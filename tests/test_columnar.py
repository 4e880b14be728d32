"""Columnar data plane: round-trip fidelity, splicing, archive identity.

The columnar buffers must be semantically invisible: any sequence of
visit records pushed through :class:`VisitBuffers` and re-materialised
comes back equal (including redirect rows, call-free rows and None
optionals), buffers survive pickling (the process-backend transport),
and an archive written from the columnar hot path is byte-identical to
one written from pre-columnar record objects.
"""

import dataclasses
import pickle
import string
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.attestation.allowlist import GatingDecision
from repro.browser.topics.manager import TopicsApiCall
from repro.browser.topics.types import ApiCallType
from repro.crawler.columnar import VisitBuffers
from repro.crawler.dataset import (
    CallRecord,
    Dataset,
    PHASE_AFTER,
    PHASE_BEFORE,
    VisitRecord,
)

# -- strategies -----------------------------------------------------------------

_label = st.text(
    alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8
)
_domain = st.lists(_label, min_size=2, max_size=3).map(".".join)

_call = st.builds(
    CallRecord,
    caller=_domain,
    caller_host=_domain.map(lambda d: f"bid.{d}"),
    site=_domain,
    call_type=st.sampled_from([t.value for t in ApiCallType]),
    at=st.integers(min_value=0, max_value=2**40),
    decision=st.sampled_from([d.value for d in GatingDecision]),
    topics_returned=st.integers(min_value=0, max_value=10),
)

_record = st.builds(
    VisitRecord,
    rank=st.integers(min_value=1, max_value=50_000),
    domain=_domain,
    final_domain=_domain,  # frequently differs from domain: redirect rows
    url=_domain.map(lambda d: f"https://www.{d}/"),
    final_url=_domain.map(lambda d: f"https://www.{d}/"),
    phase=st.sampled_from([PHASE_BEFORE, PHASE_AFTER]),
    banner_present=st.booleans(),
    banner_language=st.one_of(st.none(), st.sampled_from(["en", "de", "fr"])),
    accept_clicked=st.booleans(),
    cmp=st.one_of(st.none(), st.sampled_from(["OneTrust", "HubSpot"])),
    third_parties=st.lists(_domain, max_size=4).map(tuple),
    calls=st.lists(_call, max_size=3).map(tuple),
)


class TestRoundTrip:
    @settings(max_examples=60)
    @given(st.lists(_record, max_size=8))
    def test_records_survive_columns(self, records):
        buffers = VisitBuffers()
        for record in records:
            buffers.append_record(record)
        assert len(buffers) == len(records)
        assert [buffers.record_at(i) for i in range(len(buffers))] == records
        assert list(buffers.iter_records()) == records

    @settings(max_examples=30)
    @given(st.lists(_record, max_size=6))
    def test_buffers_survive_pickle(self, records):
        buffers = VisitBuffers()
        for record in records:
            buffers.append_record(record)
        revived = pickle.loads(pickle.dumps(buffers))
        assert list(revived.iter_records()) == records

    @settings(max_examples=30)
    @given(
        st.lists(_record, max_size=5),
        st.lists(_record, max_size=5),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_extend_rebases_ranks_only(self, left, right, offset):
        buffers = VisitBuffers()
        for record in left:
            buffers.append_record(record)
        other = VisitBuffers()
        for record in right:
            other.append_record(record)
        buffers.extend(other, offset)
        expected = left + [
            dataclasses.replace(record, rank=record.rank + offset)
            for record in right
        ]
        assert list(buffers.iter_records()) == expected

    def test_edge_rows(self):
        """The corner shapes the property test may not always draw."""
        rows = [
            # redirect, no calls, no third parties, no banner metadata
            VisitRecord(
                rank=7,
                domain="a.com",
                final_domain="b.com",
                url="https://www.a.com/",
                final_url="https://www.b.com/",
                phase=PHASE_BEFORE,
                banner_present=False,
                banner_language=None,
                accept_clicked=False,
                cmp=None,
                third_parties=(),
                calls=(),
            ),
            # dense row right after an empty one (offset bookkeeping)
            VisitRecord(
                rank=8,
                domain="c.com",
                final_domain="c.com",
                url="https://www.c.com/",
                final_url="https://www.c.com/",
                phase=PHASE_AFTER,
                banner_present=True,
                banner_language="en",
                accept_clicked=True,
                cmp="OneTrust",
                third_parties=("criteo.com", "taboola.com"),
                calls=(
                    CallRecord(
                        caller="criteo.com",
                        caller_host="bid.criteo.com",
                        site="c.com",
                        call_type="fetch",
                        at=42,
                        decision="allowed-enrolled",
                        topics_returned=3,
                    ),
                ),
            ),
        ]
        buffers = VisitBuffers()
        for row in rows:
            buffers.append_record(row)
        assert list(buffers.iter_records()) == rows
        assert buffers.third_parties_at(0) == ()
        assert buffers.third_parties_at(1) == ("criteo.com", "taboola.com")
        assert buffers.call_span(0) == (0, 0)
        assert buffers.call_span(1) == (0, 1)


class TestHotPathAppend:
    def test_append_visit_matches_append_record(self):
        """The record-free hot path lands the same row as the record path."""
        api_call = TopicsApiCall(
            caller="criteo.com",
            caller_host="bid.criteo.com",
            site="news.com",
            call_type=ApiCallType.FETCH,
            at=42,
            decision=GatingDecision.ALLOWED_ENROLLED,
            topics_returned=2,
        )
        record = VisitRecord(
            rank=1,
            domain="news.com",
            final_domain="news.com",
            url="https://www.news.com/",
            final_url="https://www.news.com/",
            phase=PHASE_BEFORE,
            banner_present=True,
            banner_language="en",
            accept_clicked=False,
            cmp="OneTrust",
            third_parties=("criteo.com",),
            calls=(CallRecord.from_api_call(api_call),),
        )
        via_record = VisitBuffers()
        via_record.append_record(record)
        via_visit = VisitBuffers()
        via_visit.append_visit(
            rank=1,
            domain="news.com",
            final_domain="news.com",
            url="https://www.news.com/",
            final_url="https://www.news.com/",
            phase=PHASE_BEFORE,
            banner_present=True,
            banner_language="en",
            accept_clicked=False,
            cmp="OneTrust",
            third_parties=("criteo.com",),
            api_calls=(api_call,),
        )
        assert via_visit.record_at(0) == via_record.record_at(0)


class TestArchiveByteIdentity:
    @settings(max_examples=20)
    @given(st.lists(_record, max_size=6))
    def test_columnar_vs_legacy_jsonl_bytes(self, records):
        """A dataset built column-wise archives byte-identically to one
        built from pre-materialised record objects (the legacy path)."""
        legacy = Dataset("D", records)  # record-object ingestion
        columnar = Dataset("D")
        for record in records:  # the hot loop's scalar appends
            columnar.append_visit(
                rank=record.rank,
                domain=record.domain,
                final_domain=record.final_domain,
                url=record.url,
                final_url=record.final_url,
                phase=record.phase,
                banner_present=record.banner_present,
                banner_language=record.banner_language,
                accept_clicked=record.accept_clicked,
                cmp=record.cmp,
                third_parties=record.third_parties,
                api_calls=[
                    TopicsApiCall(
                        caller=call.caller,
                        caller_host=call.caller_host,
                        site=call.site,
                        call_type=ApiCallType(call.call_type),
                        at=call.at,
                        decision=GatingDecision(call.decision),
                        topics_returned=call.topics_returned,
                    )
                    for call in record.calls
                ],
            )
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            legacy.to_jsonl(root / "legacy.jsonl")
            columnar.to_jsonl(root / "columnar.jsonl")
            assert (root / "columnar.jsonl").read_bytes() == (
                root / "legacy.jsonl"
            ).read_bytes()


class TestDatasetFacade:
    def test_records_memoised(self):
        dataset = Dataset("D")
        dataset.append_visit(
            rank=1,
            domain="a.com",
            final_domain="a.com",
            url="https://www.a.com/",
            final_url="https://www.a.com/",
            phase=PHASE_BEFORE,
            banner_present=False,
            banner_language=None,
            accept_clicked=False,
            cmp=None,
            third_parties=(),
        )
        first = next(iter(dataset))
        assert next(iter(dataset)) is first  # lazy, materialised once
