"""World calibration knobs.

Every distribution the generator samples from is a field here, with
defaults calibrated so a paper-scale world (50k sites) reproduces the
headline numbers of Table 1 and Figures 2–7.  Tests run the same config at
reduced ``site_count``; all prevalences are per-site probabilities, so the
shape survives downscaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.web.tlds import Region
from repro.web.vantage import EU_VANTAGE, VantagePoint


def _default_region_weights() -> dict[Region, float]:
    # Approximate Tranco TLD composition bucketed by the paper's regions.
    return {
        Region.COM: 0.45,
        Region.EU: 0.20,
        Region.RU: 0.045,
        Region.JP: 0.025,
        Region.OTHER: 0.28,
    }


def _default_banner_probability() -> dict[Region, float]:
    # P(site shows a consent banner | region).  EU sites almost always do
    # (GDPR); .ru/.jp sites rarely bother for a European visitor.
    return {
        Region.COM: 0.42,
        Region.EU: 0.78,
        Region.RU: 0.35,
        Region.JP: 0.30,
        Region.OTHER: 0.32,
    }


def _default_language_mix() -> dict[Region, tuple[tuple[str, float], ...]]:
    # P(banner language | region).  Priv-Accept supports en/fr/es/de/it.
    return {
        Region.COM: (("en", 0.92), ("es", 0.03), ("pt", 0.03), ("zh", 0.02)),
        Region.EU: (
            ("de", 0.22),
            ("fr", 0.20),
            ("it", 0.15),
            ("es", 0.13),
            ("en", 0.20),
            ("nl", 0.05),
            ("sv", 0.05),
        ),
        Region.RU: (("ru", 0.85), ("en", 0.15)),
        Region.JP: (("ja", 0.90), ("en", 0.10)),
        Region.OTHER: (
            ("en", 0.55),
            ("pt", 0.15),
            ("tr", 0.10),
            ("es", 0.05),
            ("zh", 0.05),
            ("ru", 0.05),
            ("nl", 0.05),
        ),
    }


def _default_rogue_variant_weights() -> dict[str, float]:
    # §4: 72% of anomalous calls share the visited site's second-level
    # domain (the page itself, or a sibling like ad.foo.net on foo.com);
    # the manual check attributes the remaining 28% to same-company
    # domains and redirects.
    return {
        "root": 0.55,
        "sibling": 0.17,
        "entity": 0.18,
        "redirect": 0.10,
    }


@dataclass
class WorldConfig:
    """All generator knobs, paper-scale defaults."""

    seed: int = 1
    site_count: int = 50_000

    # -- first parties -------------------------------------------------------
    region_weights: dict[Region, float] = field(
        default_factory=_default_region_weights
    )
    #: Fraction of crawl targets failing with DNS/connection errors
    #: (50,000 → 43,405 successes in the paper ⇒ 13.2%).
    failure_rate: float = 0.132
    #: Among failures, the share that are transient timeouts a retry pass
    #: recovers (the paper ran without retries; its 13.2% includes these).
    transient_failure_share: float = 0.15

    # -- consent UI ------------------------------------------------------------
    banner_probability: dict[Region, float] = field(
        default_factory=_default_banner_probability
    )
    #: Where the crawler browses from (paper: a single EU location).
    #: Non-EU vantages see geo-fenced consent UIs less often.
    vantage: VantagePoint = EU_VANTAGE
    language_mix: dict[Region, tuple[tuple[str, float], ...]] = field(
        default_factory=_default_language_mix
    )
    #: P(banner is backed by a catalogue CMP | banner present).
    cmp_given_banner: float = 0.60
    #: P(accept wording defeats keyword matching | supported language) —
    #: the complement of Priv-Accept's 92–95% accuracy.
    odd_phrase_rate: float = 0.07
    #: P(a home-grown banner actually gates consent-requiring tags).
    custom_banner_gates_rate: float = 0.50

    # -- third parties ------------------------------------------------------------
    #: Share of sites that carry advertising at all.  Ad-category services
    #: concentrate on these (prevalence is scaled by 1/ad_site_rate there
    #: and zeroed elsewhere), preserving each service's overall prevalence
    #: while clustering co-occurrence — which is what keeps the union of
    #: calling parties near the paper's "one website every two".
    ad_site_rate: float = 0.58
    #: Ad-carrying probability conditioned on consent-banner presence.
    #: Bannered sites are slightly ad-heavier; the weighted mean equals
    #: ``ad_site_rate`` under the default banner probabilities.
    ad_site_given_banner: float = 0.63
    ad_site_given_no_banner: float = 0.54
    #: How aggressively a questionable service fires before consent,
    #: depending on the site's consent environment (multiplies the
    #: service's base ``before_rate``).  A leaky CMP actively mis-signals
    #: consent, so services trust it and fire; with no banner at all there
    #: is no consent string and many services stay conservative.
    questionable_multiplier_no_banner: float = 0.35
    questionable_multiplier_leaky_cmp: float = 1.6
    questionable_multiplier_custom_banner: float = 0.7
    #: Size of the synthesized long-tail widget/CDN population.
    long_tail_pool_size: int = 17_000
    #: Zipf exponent for long-tail popularity.
    long_tail_zipf_exponent: float = 0.8
    #: Mean number of long-tail services embedded per site (geometric).
    long_tail_mean_per_site: float = 8.0

    # -- enrolment -------------------------------------------------------------
    #: Total allow-list size (paper: 193).  Named active/silent enrollees
    #: come from the catalogue; the remainder is synthesized as enrolled-
    #: but-inactive services.
    allowed_total: int = 193
    #: Enrolled parties erroneously serving no valid attestation (paper: 12).
    unattested_allowed: int = 12

    # -- anomalous usage (§4) ---------------------------------------------------
    #: P(a site hosts an erroneous first-party-context call) — calibrated
    #: to 2,614 anomalous CPs over 14,719 After-Accept sites.
    rogue_rate: float = 0.178
    #: P(the rogue call also fires before consent | rogue site) —
    #: calibrated to 1,308 anomalous CPs over 43,405 Before-Accept sites.
    rogue_before_rate: float = 0.169
    #: Share of rogue sites where GTM is the vehicle (paper: 95%).
    rogue_gtm_share: float = 0.95
    rogue_variant_weights: dict[str, float] = field(
        default_factory=_default_rogue_variant_weights
    )
    #: P(the rogue tag calls twice on one page) — 3,450 calls over
    #: 2,614 callers ⇒ ≈1.32 calls per caller.
    rogue_double_call_rate: float = 0.32

    def __post_init__(self) -> None:
        if self.site_count <= 0:
            raise ValueError("site_count must be positive")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        weight_sum = sum(self.region_weights.values())
        if abs(weight_sum - 1.0) > 1e-6:
            raise ValueError(f"region weights must sum to 1, got {weight_sum}")
        for region, mix in self.language_mix.items():
            mix_sum = sum(w for _, w in mix)
            if abs(mix_sum - 1.0) > 1e-6:
                raise ValueError(f"language mix for {region} sums to {mix_sum}")

    def effective_banner_probability(self) -> dict[Region, float]:
        """Banner probabilities after the vantage point's geo-fencing."""
        return self.vantage.scaled_banner_probability(self.banner_probability)

    @classmethod
    def small(cls, site_count: int = 2_000, seed: int = 1) -> "WorldConfig":
        """A world of ``site_count`` sites: same shape at any scale.

        The long-tail pool scales proportionally so unique-third-party
        coverage behaves like the full-scale world; at 50,000 sites this
        is exactly the paper-scale default configuration.
        """
        scale = site_count / 50_000
        return cls(
            seed=seed,
            site_count=site_count,
            long_tail_pool_size=max(50, int(17_000 * scale)),
        )
