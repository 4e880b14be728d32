"""Tests for the re-identification attack machinery and study."""

import pytest

from repro.privacy.attack import (
    LinkageResult,
    SequenceMatcher,
    TopicOverlapMatcher,
    link_profiles,
)
from repro.privacy.experiment import (
    ReidentificationConfig,
    render_sweep,
    run_reidentification,
    sweep_epochs,
    sweep_noise,
)


class TestMatchers:
    def test_overlap_identical(self):
        view = [(1, 2), (3,)]
        assert TopicOverlapMatcher().score(view, view) == 1.0

    def test_overlap_disjoint(self):
        assert TopicOverlapMatcher().score([(1, 2)], [(3, 4)]) == 0.0

    def test_overlap_partial(self):
        score = TopicOverlapMatcher().score([(1, 2)], [(2, 3)])
        assert score == pytest.approx(1 / 3)

    def test_overlap_empty(self):
        assert TopicOverlapMatcher().score([()], [()]) == 0.0

    def test_sequence_alignment_matters(self):
        matcher = SequenceMatcher()
        aligned = matcher.score([(1,), (2,)], [(1,), (2,)])
        shifted = matcher.score([(1,), (2,)], [(2,), (1,)])
        assert aligned == 2.0
        assert shifted == 0.0

    def test_sequence_unequal_lengths_zip(self):
        assert SequenceMatcher().score([(1,)], [(1,), (2,)]) == 1.0


class TestLinkage:
    def test_perfect_separation(self):
        views = [[(i,)] for i in range(5)]
        result = link_profiles(views, views, SequenceMatcher())
        assert result.accuracy_top1 == 1.0
        assert result.mean_rank == 1.0

    def test_indistinguishable_views_rank_last(self):
        # Identical views for everyone: ties rank pessimistically.
        views = [[(1,)]] * 4
        result = link_profiles(views, views, SequenceMatcher())
        assert result.accuracy_top1 == 0.0
        assert all(rank == 4 for rank in result.true_match_ranks)

    def test_population_mismatch_rejected(self):
        with pytest.raises(ValueError):
            link_profiles([[(1,)]], [], SequenceMatcher())

    def test_result_metrics(self):
        result = LinkageResult(population_size=4, true_match_ranks=(1, 1, 2, 4))
        assert result.accuracy_top1 == 0.5
        assert result.accuracy_top_k(2) == 0.75
        assert result.mean_rank == 2.0
        assert result.random_baseline == 0.25


class TestStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reidentification(
            ReidentificationConfig(population_size=40, observation_epochs=4)
        )

    def test_attack_beats_random(self, result):
        assert result.accuracy_top1 > 5 * result.linkage.random_baseline

    def test_uplift(self, result):
        assert result.uplift_over_random > 5

    def test_deterministic(self, result):
        rerun = run_reidentification(
            ReidentificationConfig(population_size=40, observation_epochs=4)
        )
        assert rerun.linkage.true_match_ranks == result.linkage.true_match_ranks

    def test_more_epochs_help(self):
        results = sweep_epochs(
            ReidentificationConfig(population_size=30), epoch_counts=[1, 6]
        )
        assert results[1].accuracy_top1 >= results[0].accuracy_top1

    def test_noise_hurts(self):
        results = sweep_noise(
            ReidentificationConfig(population_size=30),
            noise_levels=[0.0, 0.6],
        )
        assert results[1].accuracy_top1 <= results[0].accuracy_top1

    def test_render_sweep(self):
        results = sweep_noise(
            ReidentificationConfig(population_size=10), noise_levels=[0.0]
        )
        text = render_sweep(results, "noise")
        assert "top-1" in text and "uplift" in text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReidentificationConfig(population_size=0)
        with pytest.raises(ValueError):
            ReidentificationConfig(observation_epochs=0)

    def test_config_rejects_negative_burn_in(self):
        with pytest.raises(ValueError, match="burn_in_epochs"):
            ReidentificationConfig(burn_in_epochs=-1)
        # zero burn-in is a valid study (query from the first epoch)
        ReidentificationConfig(burn_in_epochs=0)

    def test_config_rejects_non_positive_visits(self):
        with pytest.raises(ValueError, match="visits_per_epoch"):
            ReidentificationConfig(visits_per_epoch=0)
        with pytest.raises(ValueError, match="visits_per_epoch"):
            ReidentificationConfig(visits_per_epoch=-3)

    def test_config_rejects_out_of_range_noise(self):
        with pytest.raises(ValueError, match="noise_probability"):
            ReidentificationConfig(noise_probability=-0.01)
        with pytest.raises(ValueError, match="noise_probability"):
            ReidentificationConfig(noise_probability=1.01)
        # the endpoints are valid (no noise / always noise)
        ReidentificationConfig(noise_probability=0.0)
        ReidentificationConfig(noise_probability=1.0)

    def test_sweep_defaults_are_immutable(self):
        import inspect

        for func, parameter in (
            (sweep_epochs, "epoch_counts"),
            (sweep_noise, "noise_levels"),
        ):
            default = inspect.signature(func).parameters[parameter].default
            assert isinstance(default, tuple), f"{parameter} default must be a tuple"

    def test_backend_does_not_change_the_study(self, result):
        parallel = run_reidentification(
            ReidentificationConfig(population_size=40, observation_epochs=4),
            backend="process",
            max_workers=2,
        )
        assert parallel.linkage.true_match_ranks == result.linkage.true_match_ranks

    def test_study_matches_legacy_per_user_pipeline(self, result):
        """The columnar + sparse study reproduces the original loop."""
        from repro.privacy.attack import link_profiles as _link
        from repro.users.browsing import TraceGenerator
        from repro.users.population import Population

        config = ReidentificationConfig(population_size=40, observation_epochs=4)
        population = Population.generate(config.population_size, seed=config.seed)
        generator = TraceGenerator(
            population,
            callers=[config.caller_a, config.caller_b],
            visits_per_epoch=config.visits_per_epoch,
            noise_probability=config.noise_probability,
        )
        total = config.burn_in_epochs + config.observation_epochs
        query = list(range(config.burn_in_epochs, total))
        views_a, views_b = [], []
        for user_id in range(len(population)):
            session = generator.run(user_id, total)
            views_a.append(generator.observed_topics(session, config.caller_a, query))
            views_b.append(generator.observed_topics(session, config.caller_b, query))
        legacy = _link(views_a, views_b, SequenceMatcher(), strategy="dense")
        assert result.linkage.true_match_ranks == legacy.true_match_ranks
