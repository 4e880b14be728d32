"""Crawl datasets: visit records, call records, JSONL persistence.

``D_BA`` holds one record per successful Before-Accept visit; ``D_AA`` one
per After-Accept visit (only sites whose banner Priv-Accept accepted).
Records carry everything the analysis needs — embedded third parties, the
detected CMP, and every Topics API call with its type and gating outcome —
and round-trip losslessly through JSONL so campaigns can be archived and
re-analysed, as the paper's released dataset is.

Storage is columnar: a :class:`Dataset` owns a
:class:`repro.crawler.columnar.VisitBuffers` and materialises
:class:`VisitRecord` objects lazily (memoised per row), so the crawl hot
loop appends plain scalars while every record-oriented consumer
(analysis, validate, archive, checkpointing) sees the exact objects it
always did.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.attestation.allowlist import GatingDecision
from repro.browser.topics.manager import TopicsApiCall
from repro.browser.topics.types import ApiCallType
from repro.crawler.columnar import VisitBuffers
from repro.util.fsio import atomic_write_lines
from repro.util.timeline import Timestamp

#: Visit-phase labels, matching the paper's dataset names.
PHASE_BEFORE = "before-accept"
PHASE_AFTER = "after-accept"


@dataclass(frozen=True)
class CallRecord:
    """One Topics API call as the dataset stores it."""

    caller: str
    caller_host: str
    site: str
    call_type: str
    at: Timestamp
    decision: str
    topics_returned: int

    @classmethod
    def from_api_call(cls, call: TopicsApiCall) -> "CallRecord":
        return cls(
            caller=call.caller,
            caller_host=call.caller_host,
            site=call.site,
            call_type=call.call_type.value,
            at=call.at,
            decision=call.decision.value,
            topics_returned=call.topics_returned,
        )

    @property
    def allowed(self) -> bool:
        return GatingDecision(self.decision).allowed

    @property
    def api_call_type(self) -> ApiCallType:
        return ApiCallType(self.call_type)


@dataclass(frozen=True)
class VisitRecord:
    """One successful visit (one row of D_BA or D_AA)."""

    rank: int
    domain: str
    final_domain: str
    url: str
    final_url: str
    phase: str
    banner_present: bool
    banner_language: str | None
    accept_clicked: bool
    cmp: str | None
    third_parties: tuple[str, ...]
    calls: tuple[CallRecord, ...]

    @property
    def redirected(self) -> bool:
        return self.final_domain != self.domain

    @property
    def has_topics_call(self) -> bool:
        return bool(self.calls)

    def to_json(self) -> str:
        # asdict recurses into the calls; json writes tuples as arrays.
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "VisitRecord":
        return cls.from_dict(json.loads(line))

    @classmethod
    def from_dict(cls, payload: dict) -> "VisitRecord":
        """Rebuild a record from its decoded JSON object (consumed)."""
        payload["third_parties"] = tuple(payload["third_parties"])
        payload["calls"] = tuple(
            CallRecord(**call) for call in payload["calls"]
        )
        return cls(**payload)


class AmbiguousDomainError(LookupError):
    """A single-record lookup hit a domain with multiple records.

    Repeat-visit campaigns legitimately produce several records per
    domain; silently returning one of them (the pre-columnar behaviour)
    made such analyses quietly wrong.  Call :meth:`Dataset.all_by_domain`
    when multiple records are expected.
    """


class Dataset:
    """An append-only collection of visit records with common queries.

    A lazy materialisation facade: rows live in columnar
    :class:`VisitBuffers`; ``VisitRecord`` objects are built on first
    access per row and memoised, so aggregate-only consumers never pay
    for record objects at all.
    """

    def __init__(self, name: str, records: Iterable[VisitRecord] = ()) -> None:
        self.name = name
        self._buffers = VisitBuffers()
        self._memo: list[VisitRecord | None] = []
        self._domain_rows: dict[str, list[int]] | None = None
        for record in records:
            self.add(record)

    @classmethod
    def from_buffers(cls, name: str, buffers: VisitBuffers) -> "Dataset":
        """Wrap already-built columns (the shard-result ingest path)."""
        dataset = cls(name)
        dataset._buffers = buffers
        dataset._memo = [None] * len(buffers)
        return dataset

    @property
    def buffers(self) -> VisitBuffers:
        """The underlying columns (shared, not copied)."""
        return self._buffers

    def add(self, record: VisitRecord) -> None:
        self._buffers.append_record(record)
        # The caller's object IS row len-1's materialisation; keep it so
        # checkpoint-restore round-trips return identical objects.
        self._memo.append(record)
        self._domain_rows = None

    def append_visit(
        self,
        *,
        rank: int,
        domain: str,
        final_domain: str,
        url: str,
        final_url: str,
        phase: str,
        banner_present: bool,
        banner_language: str | None,
        accept_clicked: bool,
        cmp: str | None,
        third_parties: Iterable[str],
        api_calls: Iterable[TopicsApiCall] = (),
    ) -> None:
        """Append one row straight from live visit state — no record object."""
        self._buffers.append_visit(
            rank=rank,
            domain=domain,
            final_domain=final_domain,
            url=url,
            final_url=final_url,
            phase=phase,
            banner_present=banner_present,
            banner_language=banner_language,
            accept_clicked=accept_clicked,
            cmp=cmp,
            third_parties=third_parties,
            api_calls=api_calls,
        )
        self._memo.append(None)
        self._domain_rows = None

    def extend_rebased(self, other: "Dataset", rank_offset: int) -> None:
        """Splice another dataset's columns in, rebasing ranks (shard merge)."""
        self._buffers.extend(other._buffers, rank_offset)
        if rank_offset:
            self._memo.extend([None] * len(other._buffers))
        else:
            self._memo.extend(other._memo)
        self._domain_rows = None

    def _record_at(self, index: int) -> VisitRecord:
        record = self._memo[index]
        if record is None:
            record = self._memo[index] = self._buffers.record_at(index)
        return record

    def __len__(self) -> int:
        return len(self._buffers)

    def __iter__(self) -> Iterator[VisitRecord]:
        for index in range(len(self._buffers)):
            yield self._record_at(index)

    @property
    def records(self) -> tuple[VisitRecord, ...]:
        return tuple(self)

    def _rows_by_domain(self) -> dict[str, list[int]]:
        if self._domain_rows is None:
            rows: dict[str, list[int]] = {}
            for index, domain in enumerate(self._buffers.domain):
                rows.setdefault(domain, []).append(index)
            self._domain_rows = rows
        return self._domain_rows

    def by_domain(self, domain: str) -> VisitRecord | None:
        """The unique record for ``domain``, or None when absent.

        Raises :class:`AmbiguousDomainError` when several records share
        the domain (repeat-visit campaigns) — use :meth:`all_by_domain`
        for those.
        """
        rows = self._rows_by_domain().get(domain)
        if rows is None:
            return None
        if len(rows) > 1:
            raise AmbiguousDomainError(
                f"{len(rows)} records share domain {domain!r} in dataset"
                f" {self.name!r}; use all_by_domain() for repeat-visit data"
            )
        return self._record_at(rows[0])

    def all_by_domain(self, domain: str) -> tuple[VisitRecord, ...]:
        """Every record for ``domain``, in append order (possibly empty)."""
        return tuple(
            self._record_at(index)
            for index in self._rows_by_domain().get(domain, ())
        )

    # -- common aggregates ---------------------------------------------------------

    def site_count(self) -> int:
        return len(self._buffers)

    def unique_third_parties(self) -> set[str]:
        """Distinct third-party registrable domains observed."""
        return set(self._buffers.tp_flat)

    def iter_calls(self) -> Iterator[tuple[VisitRecord, CallRecord]]:
        offsets = self._buffers.call_offsets
        for index in range(len(self._buffers)):
            if offsets[index] == offsets[index + 1]:
                continue
            record = self._record_at(index)
            for call in record.calls:
                yield record, call

    def calling_parties(self) -> set[str]:
        """Distinct CPs (caller registrable domains) across all calls."""
        return set(self._buffers.calls.caller)

    def sites_with_calls(self) -> set[str]:
        buffers = self._buffers
        offsets = buffers.call_offsets
        return {
            buffers.domain[index]
            for index in range(len(buffers))
            if offsets[index] != offsets[index + 1]
        }

    def presence_of(self, party: str) -> set[str]:
        """Sites on which ``party`` appears among loaded third parties."""
        buffers = self._buffers
        offsets = buffers.tp_offsets
        flat = buffers.tp_flat
        present: set[str] = set()
        for index in range(len(buffers)):
            for position in range(offsets[index], offsets[index + 1]):
                if flat[position] == party:
                    present.add(buffers.domain[index])
                    break
        return present

    def callers_by_site_count(self) -> dict[str, int]:
        """CP → number of distinct sites where it called."""
        buffers = self._buffers
        offsets = buffers.call_offsets
        callers = buffers.calls.caller
        sites: dict[str, set[str]] = {}
        for index in range(len(buffers)):
            domain = buffers.domain[index]
            for position in range(offsets[index], offsets[index + 1]):
                sites.setdefault(callers[position], set()).add(domain)
        return {caller: len(site_set) for caller, site_set in sites.items()}

    # -- persistence ---------------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> None:
        atomic_write_lines(path, (record.to_json() for record in self))

    @classmethod
    def from_jsonl(cls, name: str, path: str | Path) -> "Dataset":
        records = []
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    records.append(VisitRecord.from_json(line))
        return cls(name, records)
