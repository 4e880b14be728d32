"""The population data plane: columnar trace buffers and sharded runs.

Pins the two contracts the plane rests on: ``TraceBuffers`` is a faithful
CSR encoding of the nested views the per-user loop produced, and
``TraceGenerator.run_many`` is byte-identical to that loop for every
backend and shard count.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.users.browsing import TraceGenerator
from repro.users.columnar import TraceBuffers, TraceView
from repro.users.population import (
    Population,
    PopulationReconstructionError,
    PopulationSpec,
    population_fingerprint,
    worker_population,
)

CALLERS = ("adtech.example", "cdn.example")
EPOCHS = 5
QUERY_EPOCHS = (2, 3, 4)


@pytest.fixture(scope="module")
def population():
    return Population.generate(30, seed=11)


@pytest.fixture(scope="module")
def generator(population):
    return TraceGenerator(
        population,
        callers=list(CALLERS),
        visits_per_epoch=12,
        noise_probability=0.05,
    )


@pytest.fixture(scope="module")
def reference(generator, population):
    """The legacy per-user path: run() + observed_topics, nested lists."""
    views = {caller: [] for caller in CALLERS}
    for user_id in range(len(population)):
        session = generator.run(user_id, EPOCHS)
        for caller in CALLERS:
            views[caller].append(
                generator.observed_topics(session, caller, list(QUERY_EPOCHS))
            )
    return views


@pytest.fixture(scope="module")
def buffers(generator):
    return generator.run_many(EPOCHS, QUERY_EPOCHS, backend="serial")


class TestTraceBuffers:
    def test_requires_callers_and_epochs(self):
        with pytest.raises(ValueError):
            TraceBuffers((), QUERY_EPOCHS)
        with pytest.raises(ValueError):
            TraceBuffers(CALLERS, ())

    def test_append_views_round_trips(self):
        buffers = TraceBuffers(CALLERS, (0, 1))
        buffers.append_views(7, [[(1, 2), (3,)], [(), (4, 5, 6)]])
        assert len(buffers) == 1
        assert buffers.cell(0, 0, 0) == (1, 2)
        assert buffers.cell(0, 0, 1) == (3,)
        assert buffers.cell(0, 1, 0) == ()
        assert buffers.cell(0, 1, 1) == (4, 5, 6)
        assert buffers.view(0, "cdn.example") == [(), (4, 5, 6)]
        assert buffers.view(0, "adtech.example").user_id == 7
        buffers.check()

    def test_append_views_rejects_wrong_shapes(self):
        buffers = TraceBuffers(CALLERS, (0, 1))
        with pytest.raises(ValueError, match="caller"):
            buffers.append_views(0, [[(1,), (2,)]])
        fresh = TraceBuffers(CALLERS, (0, 1))
        with pytest.raises(ValueError, match="epoch cell"):
            fresh.append_views(0, [[(1,)], [(2,)]])

    def test_extend_rebases_offsets(self):
        left = TraceBuffers(CALLERS, (0,))
        left.append_views(0, [[(1, 2)], [(3,)]])
        right = TraceBuffers(CALLERS, (0,))
        right.append_views(1, [[(4,)], [(5, 6)]])
        left.extend(right)
        left.check()
        assert len(left) == 2
        assert list(left.user_ids) == [0, 1]
        assert left.cell(1, 0, 0) == (4,)
        assert left.cell(1, 1, 0) == (5, 6)

    def test_extend_rejects_schema_mismatch(self):
        base = TraceBuffers(CALLERS, (0,))
        with pytest.raises(ValueError, match="caller mismatch"):
            base.extend(TraceBuffers(("other.example",), (0,)))
        with pytest.raises(ValueError, match="query-epoch"):
            base.extend(TraceBuffers(CALLERS, (1,)))

    def test_check_rejects_torn_rows(self):
        buffers = TraceBuffers(CALLERS, (0,))
        buffers.begin_user(0)
        buffers.append_cell((1,))
        # second caller's cell missing
        with pytest.raises(ValueError, match="offset column"):
            buffers.check()

    def test_pickle_round_trip(self, buffers):
        clone = pickle.loads(pickle.dumps(buffers))
        clone.check()
        assert clone.callers == buffers.callers
        assert clone.query_epochs == buffers.query_epochs
        assert clone.user_ids == buffers.user_ids
        assert clone.topics == buffers.topics
        assert clone.offsets == buffers.offsets

    def test_trace_view_is_a_sequence(self, buffers):
        view = buffers.view(0, CALLERS[0])
        assert isinstance(view, TraceView)
        assert len(view) == len(QUERY_EPOCHS)
        assert view[0] == buffers.cell(0, 0, 0)
        assert view[-1] == view[len(view) - 1]
        assert view[1:] == list(view)[1:]
        assert list(view) == buffers.materialise(0, CALLERS[0])
        with pytest.raises(IndexError):
            view[len(view)]

    def test_unknown_caller_raises(self, buffers):
        with pytest.raises(KeyError, match="unknown caller"):
            buffers.view(0, "stranger.example")


class TestRunManyEquivalence:
    def test_matches_legacy_per_user_loop(self, buffers, reference, population):
        for caller in CALLERS:
            for user_id in range(len(population)):
                assert buffers.view(user_id, caller) == reference[caller][user_id]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backends_byte_identical(self, generator, buffers, backend):
        result = generator.run_many(
            EPOCHS, QUERY_EPOCHS, backend=backend, max_workers=2, shard_count=3
        )
        assert result.__getstate__() == buffers.__getstate__()

    @given(shard_count=st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_any_shard_count_byte_identical(
        self, generator, buffers, shard_count
    ):
        result = generator.run_many(
            EPOCHS, QUERY_EPOCHS, backend="serial", shard_count=shard_count
        )
        assert result.__getstate__() == buffers.__getstate__()

    def test_user_subset_preserves_per_user_determinism(
        self, generator, buffers
    ):
        subset = generator.run_many(
            EPOCHS, QUERY_EPOCHS, user_ids=[4, 9, 17], backend="serial"
        )
        for row, user_id in enumerate([4, 9, 17]):
            for caller in CALLERS:
                assert subset.view(row, caller) == buffers.view(user_id, caller)


class TestPopulationSpec:
    def test_generate_stamps_a_spec(self, population):
        spec = population.spec
        assert isinstance(spec, PopulationSpec)
        assert spec.fingerprint == population_fingerprint(population)

    def test_rebuild_round_trips(self, population):
        rebuilt = population.spec.rebuild()
        assert population_fingerprint(rebuilt) == population.spec.fingerprint

    def test_worker_population_caches_by_fingerprint(self, population):
        first = worker_population(population.spec)
        assert worker_population(population.spec) is first

    def test_fingerprint_mismatch_raises(self, population):
        bad = PopulationSpec(
            size=len(population),
            seed=population.seed,
            sites_per_topic=3,
            interests_min=3,
            interests_max=8,
            fingerprint="0" * 16,
        )
        with pytest.raises(PopulationReconstructionError):
            bad.rebuild()

    def test_custom_taxonomy_has_no_spec(self, population):
        custom = Population.generate(5, seed=2, taxonomy=population.taxonomy)
        assert custom.spec is None
