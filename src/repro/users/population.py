"""Populations: many users plus the site pool they browse.

The pool gives every taxonomy topic a handful of dedicated sites (pinned
through classifier overrides), so a user's interest in a topic translates
into visits the Topics machinery classifies back to that topic — closing
the loop the re-identification analyses measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.taxonomy.classifier import SiteClassifier
from repro.taxonomy.tree import TaxonomyTree, load_default_taxonomy
from repro.users.profile import UserProfile, generate_profile
from repro.util.rng import RngStream
from repro.util.text import stable_digest


class PopulationReconstructionError(RuntimeError):
    """A worker-rebuilt population does not match the parent's fingerprint."""


def population_fingerprint(population: "Population") -> str:
    """Identity of a generated population for cross-process verification.

    The profiles are the terminal artefact of the generator's RNG
    cascade (every interest draw feeds them), so fingerprinting the full
    interest table plus the generation knobs detects any divergence
    between a parent's population and a worker's rebuild — the same
    contract ``world_fingerprint`` gives the crawl plane.
    """
    parts: list[str] = [str(population.seed), str(len(population.profiles))]
    for profile in population.profiles:
        parts.append(
            ",".join(
                f"{topic}:{weight!r}" for topic, weight in profile.interests
            )
        )
    return "{:016x}".format(stable_digest("population", *parts))


@dataclass(frozen=True)
class PopulationSpec:
    """Everything a worker process needs to rebuild a generated population.

    Stamped onto every :meth:`Population.generate` result built from the
    default taxonomy; hand-assembled or custom-taxonomy populations have
    no spec and must travel by value (or stay in-process).
    """

    size: int
    seed: int
    sites_per_topic: int
    interests_min: int
    interests_max: int
    fingerprint: str

    def rebuild(self) -> "Population":
        """Regenerate and verify the population in this process."""
        population = Population.generate(
            self.size,
            seed=self.seed,
            sites_per_topic=self.sites_per_topic,
            interests_min=self.interests_min,
            interests_max=self.interests_max,
        )
        rebuilt = population_fingerprint(population)
        if rebuilt != self.fingerprint:
            raise PopulationReconstructionError(
                f"worker rebuilt a population with fingerprint {rebuilt}, "
                f"parent expected {self.fingerprint}; the parent population "
                "was not produced by Population.generate with the default "
                "taxonomy — use the serial backend for hand-modified "
                "populations"
            )
        return population


#: Per-worker-process population cache: (fingerprint, population).  Size
#: one, like the crawl executor's world cache — a worker serves one
#: study's shards at a time.
_WORKER_POPULATION: tuple[str, "Population"] | None = None


def worker_population(spec: PopulationSpec) -> "Population":
    """The worker-side population for ``spec``, rebuilt+verified on miss."""
    global _WORKER_POPULATION
    if _WORKER_POPULATION is not None and _WORKER_POPULATION[0] == spec.fingerprint:
        return _WORKER_POPULATION[1]
    population = spec.rebuild()
    _WORKER_POPULATION = (spec.fingerprint, population)
    return population


@dataclass
class Population:
    """N users with stable profiles and a shared topical site pool."""

    seed: int
    profiles: list[UserProfile]
    taxonomy: TaxonomyTree
    classifier: SiteClassifier
    #: topic id → hostnames dedicated to that topic.
    sites_by_topic: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: rebuild recipe for worker processes; None when not reproducible
    #: from :meth:`generate` arguments alone (custom taxonomy, hand-built).
    spec: "PopulationSpec | None" = None

    def __len__(self) -> int:
        return len(self.profiles)

    def profile(self, user_id: int) -> UserProfile:
        return self.profiles[user_id]

    def sites_for(self, topic_id: int) -> tuple[str, ...]:
        return self.sites_by_topic.get(topic_id, ())

    @classmethod
    def generate(
        cls,
        size: int,
        seed: int = 1,
        taxonomy: TaxonomyTree | None = None,
        sites_per_topic: int = 3,
        interests_min: int = 3,
        interests_max: int = 8,
    ) -> "Population":
        """Build a population of ``size`` users.

        Every taxonomy topic receives ``sites_per_topic`` synthetic sites
        whose classification is pinned to exactly that topic.
        """
        if size <= 0:
            raise ValueError("population size must be positive")
        default_taxonomy = taxonomy is None
        taxonomy = taxonomy or load_default_taxonomy()
        rng = RngStream(seed, "population")

        classifier = SiteClassifier(taxonomy)
        sites_by_topic: dict[int, tuple[str, ...]] = {}
        for node in taxonomy:
            hosts = tuple(
                f"topic{node.topic_id}-{index}.example"
                for index in range(sites_per_topic)
            )
            for host in hosts:
                classifier.add_override(host, [node.topic_id])
            sites_by_topic[node.topic_id] = hosts

        profiles = [
            generate_profile(
                rng,
                user_id,
                taxonomy,
                interests_min=interests_min,
                interests_max=interests_max,
            )
            for user_id in range(size)
        ]
        population = cls(
            seed=seed,
            profiles=profiles,
            taxonomy=taxonomy,
            classifier=classifier,
            sites_by_topic=sites_by_topic,
        )
        if default_taxonomy:
            # Only default-taxonomy populations are rebuildable from the
            # generate() arguments alone, so only they get a worker spec.
            population.spec = PopulationSpec(
                size=size,
                seed=seed,
                sites_per_topic=sites_per_topic,
                interests_min=interests_min,
                interests_max=interests_max,
                fingerprint=population_fingerprint(population),
            )
        return population
