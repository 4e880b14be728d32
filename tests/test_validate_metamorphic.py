"""The metamorphic harness: all relations hold on a healthy pipeline,
and the comparators actually detect seeded divergence.
"""

import json

import pytest

from repro.crawler.campaign import CrawlCampaign
from repro.validate import (
    MetamorphicHarness,
    compare_archives,
    render_metamorphic,
)
from repro.validate.metamorphic import compare_semantics
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

META_SITES = 160


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    return MetamorphicHarness(
        tmp_path_factory.mktemp("metamorphic"),
        sites=META_SITES,
        seed=11,
        shard_counts=(1, 2, 3),
        backends=("serial", "process"),
    )


@pytest.fixture(scope="module")
def report(harness):
    return harness.run()


class TestRelationsHold:
    def test_every_relation_passes(self, report):
        assert report.ok, render_metamorphic(report)

    def test_all_relations_ran(self, harness, report):
        assert [r.relation for r in report.results] == harness.relation_names()

    def test_report_roundtrips_to_json(self, report, tmp_path):
        out = tmp_path / "metamorphic.json"
        report.save(out)
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["sites"] == META_SITES
        assert {r["relation"] for r in payload["relations"]} == {
            r.relation for r in report.results
        }


class TestDriver:
    def test_relation_subset_selection(self, harness):
        subset = harness.run(relations=["seed-stability"])
        assert [r.relation for r in subset.results] == ["seed-stability"]

    def test_unknown_relation_rejected(self, harness):
        with pytest.raises(ValueError, match="unknown metamorphic relation"):
            harness.run(relations=["not-a-relation"])


class TestComparatorsDetectDivergence:
    """The harness is only as good as its comparators — seed a divergence
    and prove each one catches it."""

    def test_compare_archives_flags_byte_flip(self, harness, tmp_path):
        baseline = harness.baseline_archive()
        mutated = tmp_path / "mutated"
        mutated.mkdir()
        for path in baseline.iterdir():
            if path.is_file():
                (mutated / path.name).write_bytes(path.read_bytes())
        report_path = mutated / "report.json"
        report_path.write_text(report_path.read_text().replace('"ok"', '"kk"', 1))
        differences = compare_archives(baseline, mutated)
        assert any("report.json" in diff for diff in differences)

    def test_compare_archives_flags_missing_file(self, harness, tmp_path):
        baseline = harness.baseline_archive()
        empty = tmp_path / "empty"
        empty.mkdir()
        differences = compare_archives(baseline, empty)
        assert len(differences) == 5  # every archive file missing

    def test_compare_semantics_flags_different_worlds(self, harness):
        left = harness._run(
            "sequential", lambda: CrawlCampaign(harness._world()).run()
        )
        other_world = WebGenerator(
            WorldConfig.small(META_SITES, seed=99)
        ).generate()
        right = CrawlCampaign(other_world).run()
        differences = compare_semantics(left, right)
        assert differences  # different seeds → visibly different campaigns

    def test_compare_semantics_empty_on_identity(self, harness):
        result = harness._run(
            "sequential", lambda: CrawlCampaign(harness._world()).run()
        )
        assert compare_semantics(result, result) == []


class TestRenderer:
    def test_failure_rendering_names_relation_and_detail(self, report):
        from repro.validate import RelationResult, MetamorphicReport

        failing = MetamorphicReport(
            sites=report.sites,
            seed=report.seed,
            results=(
                RelationResult(
                    relation="backend-equivalence",
                    description="x",
                    passed=False,
                    details=("d_ba.jsonl: differs",),
                ),
            ),
        )
        rendered = render_metamorphic(failing)
        assert "FAIL backend-equivalence" in rendered
        assert "d_ba.jsonl: differs" in rendered
        assert "RESULT: FAIL" in rendered
        assert not failing.ok
        assert [r.relation for r in failing.failures] == ["backend-equivalence"]
