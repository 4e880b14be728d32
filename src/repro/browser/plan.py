"""Precomputed visit plans: the browser's visit engine.

Page materialisation and tag execution are deterministic per
(requested domain, consent state, script-origin mode): which tags a
page carries, which URLs they fetch, which ad tags fire, as what caller,
with which call type and how many repeats — all of it is a stable
function of world data.  Walking the page tag by tag on every visit
would recompute every bit of it and dominate the shard inner loop.

A :class:`VisitPlanner` walks the page **once** per (domain, consent)
variant and bakes the result into a :class:`SitePlan`:

* the static fetch surface — URL strings for the browser cache and the
  sorted third-party registrable domains, built once so every visit
  shares one object instead of rebuilding them;
* the telemetry shape of the load — how many objects the page walk
  fetches and how many scripts it runs — which the browser's stage
  spans apportion the visit window by;
* the pre-detected CMP name (Wappalyzer-style detection over the static
  host set — the batched topic-classification/allow-list sibling checks
  happen inside the manager, which the plan still calls per visit);
* an ordered op list for the state-mutating work that must run per
  visit: cookie-tracking impressions and Topics API invocations, with
  caller host / call type / repeat count resolved ahead of time.

Plans bake **no per-profile state**: browsing history, the cookie jar,
allow-list gating, epoch topic selection and the clock all flow through
the same manager/tracker entry points the page walk uses, in the same
order.  The only time-dependent decision — an alternating A/B policy's
ON/OFF window (doubleclick.net, criteo.com) — stays dynamic: such ops
carry their policy and are re-evaluated against the visit clock.  Plan
replay is the browser's only visit engine; the test suite keeps the
page walk (``ScriptRuntime`` over ``NetworkStack``) as its reference
and pins every visit of a generated world equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.browser.script import ScriptOriginMode, consent_environment_multiplier
from repro.browser.topics.types import ApiCallType
from repro.util.psl import etld_plus_one
from repro.web.page import ScriptKind, ScriptTag
from repro.web.site import SCRIPT_PATHS, RogueVariant
from repro.web.thirdparty import GTM_DOMAIN, ThirdPartyCategory, TopicsPolicy

if TYPE_CHECKING:
    from repro.web.banner import ConsentBanner
    from repro.web.generator import SyntheticWeb
    from repro.web.site import Website


@dataclass(frozen=True, slots=True)
class PlannedCall:
    """One statically resolved Topics API invocation burst.

    ``javascript`` calls observe in-call (``document.browsingTopics()``);
    the fetch/iframe surfaces call with ``observe=False`` and record the
    observation afterwards when the response opts in and the call was
    allowed — exactly the split in :mod:`repro.browser.topics.api`.
    ``fetch_url`` is set on ad-tag calls; for conditional
    (alternating-policy) ops that fetch joins the visit's cache surface
    only when the policy fires, while static ops' fetches are already
    part of the plan's URL set.  The endpoint shares its registrable
    domain with the ad tag that calls it, which the plan's third parties
    already hold — so a fired call never changes a visit's third
    parties or detected CMP.
    """

    caller_host: str
    call_type: ApiCallType
    count: int
    javascript: bool
    fetch_url: str | None = None
    fetch_host: str | None = None


@dataclass(frozen=True, slots=True)
class PlannedOp:
    """One page-order step of per-visit mutable work.

    ``impression_host`` fires cookie tracking (every executed ad tag);
    ``call`` is the tag's Topics invocation, if its policy said ON at
    plan time.  ``policy`` is set only for alternating policies, whose
    ON/OFF window must be re-evaluated per visit (with ``caller`` as the
    policy's subject).
    """

    impression_host: str | None = None
    call: PlannedCall | None = None
    policy: TopicsPolicy | None = None
    caller: str = ""


@dataclass(frozen=True, slots=True)
class SitePlan:
    """Everything a visit to one (domain, consent) variant does."""

    page_domain: str
    url: str
    final_url: str
    banner: "ConsentBanner | None"
    cmp: str | None
    #: every URL the visit fetches (deduplicated) — bulk-inserted into
    #: the browser cache, replacing per-tag NetworkStack.fetch calls
    cache_urls: tuple[str, ...]
    third_parties_sorted: tuple[str, ...]
    ops: tuple[PlannedOp, ...]
    #: page-level fetches (document, resources, script and frame
    #: sources; ad-call endpoints excluded) and scripts executed — the
    #: work mix the navigate/script-exec stage spans are carved from
    fetches: int
    scripts_run: int
    #: True when any op carries an alternating policy (per-visit re-check)
    conditional: bool = False


class VisitPlanner:
    """Per-world, per-script-origin-mode cache of :class:`SitePlan`s.

    Shared by every browser over one world (serial shards, concurrent
    service jobs, and — via the worker world cache — every campaign a
    worker process runs), so each (domain, consent) page is walked exactly once per
    process instead of once per visit.
    """

    def __init__(self, world: "SyntheticWeb", mode: ScriptOriginMode) -> None:
        self._world = world
        self._mode = mode
        self._pairs: dict[str, tuple[SitePlan, SitePlan]] = {}
        # Values that recur across sites — a service's script host, URL
        # and impression op, a call shape, a third-party set — are held
        # once per planner: a long-lived process keeping thousands of
        # plans stores each once, and the compiler builds each once.
        self._sources: dict[str, tuple[str, str, PlannedOp]] = {}
        self._calls: dict[tuple, PlannedCall] = {}
        self._shared: dict = {}

    def _share(self, value):
        """The planner's one instance of ``value``."""
        return self._shared.setdefault(value, value)

    def plan_for(self, domain: str, consent_granted: bool) -> SitePlan:
        """The (Before-Accept, After-Accept) plan for ``domain``'s page.

        Both consent variants are compiled together in one pass over the
        site's tag list — the crawl protocol visits each domain once per
        phase, so a per-variant cache would rebuild the shared surface
        twice and never hit within a campaign.
        """
        pair = self._pairs.get(domain)
        if pair is None:
            # setdefault keeps the first compiled pair when concurrent
            # service jobs race; both builds are identical anyway.
            pair = self._pairs.setdefault(domain, self._compile_pair(domain))
        return pair[1] if consent_granted else pair[0]

    # -- direct compilation (the hot path) -------------------------------------
    #
    # ``_compile_pair`` goes straight from ``Website`` fields to both
    # SitePlans without materialising PageModel/ScriptTag/Url objects —
    # it mirrors ``Website.build_page`` plus the page walk in ``_build``
    # tag for tag.  ``_build`` below stays as the reference
    # implementation; ``tests/test_visit_plan.py`` pins compile ≡ walk
    # for every site of a generated world, so the two cannot drift
    # silently.

    def _compile_pair(self, domain: str) -> tuple[SitePlan, SitePlan]:
        world = self._world
        site = world.site(domain)
        if site.redirect_to is not None:
            final = world.site(site.redirect_to)
            if final.redirect_to is None:
                # Share the target's cached pair; only the requested URL
                # differs.  (Redirect chains fall through to a direct
                # compile because a second hop would change the page.)
                target = self._pairs.get(final.domain)
                if target is None:
                    target = self._pairs.setdefault(
                        final.domain, self._compile_pair(final.domain)
                    )
            else:
                target = self._compile_final(final)
            url = f"https://www.{site.domain}/"
            return (replace(target[0], url=url), replace(target[1], url=url))
        return self._compile_final(site)

    def _compile_final(self, site: "Website") -> tuple[SitePlan, SitePlan]:
        # Registrable domains are tracked directly instead of being
        # derived from hosts: every host the compiler emits has a known
        # eTLD+1 by construction (``static.{tp}`` → ``tp``, ``www.{d}`` →
        # ``d``, …); only rogue frame hosts need a lookup.  The compile ≡
        # page-walk test pins this against ``_build``, which still
        # derives everything through ``etld_plus_one``.
        world = self._world
        page_domain = site.domain
        page_host = f"www.{page_domain}"
        page_url = f"https://{page_host}/"
        banner = site.banner
        enforce = site.gates_before_consent
        script_url_mode = self._mode is ScriptOriginMode.SCRIPT_URL
        services = world.third_parties
        rogue = site.rogue
        sources = self._sources
        share = self._share

        urls_ba = [
            page_url,
            f"{page_url}static/site.css",
            f"{page_url}static/logo.png",
        ]
        urls_aa = list(urls_ba)
        regs_ba = {page_domain}
        regs_aa = {page_domain}
        # Every tag the page walk executes is one script run and one
        # fetch on top of the document and its two static resources.
        scripts_ba = 0
        scripts_aa = 0
        frames = 0
        ops_ba: list[PlannedOp] = []
        ops_aa: list[PlannedOp] = []
        conditional_aa = False
        multiplier = consent_environment_multiplier(world, page_domain)

        if banner is not None and banner.cmp is not None:
            cmp_domain = world.cmp_domain(banner.cmp)
            cmp_host = f"cdn.{cmp_domain}"
            cmp_url = f"https://{cmp_host}/cmp/stub.js"
            urls_ba.append(cmp_url)
            urls_aa.append(cmp_url)
            regs_ba.add(cmp_domain)
            regs_aa.add(cmp_domain)
            scripts_ba += 1
            scripts_aa += 1

        for tp_domain in site.embedded:
            service = services.get(tp_domain)
            category = (
                service.category if service else ThirdPartyCategory.WIDGET
            )
            if category is ThirdPartyCategory.TAG_MANAGER:
                gtm_url = "https://www.googletagmanager.com/gtm.js?id=GTM-XXXX"
                urls_ba.append(gtm_url)
                urls_aa.append(gtm_url)
                regs_ba.add(GTM_DOMAIN)
                regs_aa.add(GTM_DOMAIN)
                scripts_ba += 1
                scripts_aa += 1
                if (
                    rogue is not None
                    and rogue.variant is RogueVariant.ROOT_GTM
                    and tp_domain == GTM_DOMAIN
                ):
                    caller_host = (
                        "www.googletagmanager.com" if script_url_mode else page_host
                    )
                    op = PlannedOp(
                        call=PlannedCall(
                            caller_host=caller_host,
                            call_type=ApiCallType.JAVASCRIPT,
                            count=rogue.call_count,
                            javascript=True,
                        )
                    )
                    ops_aa.append(op)
                    if rogue.fires_before_consent:
                        ops_ba.append(op)
                continue

            gated = bool(service and service.consent_gated) and (
                enforce or not service.loads_preconsent_on(page_domain)
            )
            source = sources.get(tp_domain)
            if source is None:
                host = f"static.{tp_domain}"
                source = sources[tp_domain] = (
                    host,
                    f"https://{host}{SCRIPT_PATHS[category]}",
                    PlannedOp(impression_host=host),
                )
            host, url, impression = source
            if not gated:
                urls_ba.append(url)
                regs_ba.add(tp_domain)
                scripts_ba += 1
            urls_aa.append(url)
            regs_aa.add(tp_domain)
            scripts_aa += 1
            if category is not ThirdPartyCategory.ADS:
                continue

            caller = tp_domain
            policy = world.policy_of(caller)
            if policy is None:
                if not gated:
                    ops_ba.append(impression)
                ops_aa.append(impression)
                continue
            # Decide first, resolve the call shape (two more digests)
            # only for tags that actually fire somewhere.
            alternating = policy.alternating_period is not None
            aa_fires = False if alternating else policy.is_enabled(
                caller, page_domain, 0
            )
            ba_fires = not gated and policy.calls_in_before_accept(
                caller, page_domain, multiplier
            )
            call = (
                self._planned_ad_call(policy, caller, page_domain)
                if (alternating or aa_fires or ba_fires)
                else None
            )
            if alternating:
                ops_aa.append(
                    PlannedOp(
                        impression_host=host,
                        call=call,
                        policy=policy,
                        caller=caller,
                    )
                )
                conditional_aa = True
            elif aa_fires:
                urls_aa.append(call.fetch_url)
                regs_aa.add(caller)
                ops_aa.append(share(PlannedOp(impression_host=host, call=call)))
            else:
                ops_aa.append(impression)
            if not gated:
                if ba_fires:
                    urls_ba.append(call.fetch_url)
                    regs_ba.add(caller)
                    ops_ba.append(share(PlannedOp(impression_host=host, call=call)))
                else:
                    ops_ba.append(impression)

        if rogue is not None:
            if rogue.variant is RogueVariant.ROOT_LIB:
                lib_url = "https://cdn.adwidgets-lib.com/widget/loader.js"
                urls_ba.append(lib_url)
                urls_aa.append(lib_url)
                regs_ba.add("adwidgets-lib.com")
                regs_aa.add("adwidgets-lib.com")
                scripts_ba += 1
                scripts_aa += 1
                caller_host = (
                    "cdn.adwidgets-lib.com" if script_url_mode else page_host
                )
                op = PlannedOp(
                    call=PlannedCall(
                        caller_host=caller_host,
                        call_type=ApiCallType.JAVASCRIPT,
                        count=rogue.call_count,
                        javascript=True,
                    )
                )
                ops_aa.append(op)
                if rogue.fires_before_consent:
                    ops_ba.append(op)
            elif rogue.variant in (RogueVariant.SIBLING, RogueVariant.ENTITY):
                frame_host = rogue.caller_host
                frame_reg = etld_plus_one(frame_host)
                frame_url = f"https://{frame_host}/embed/frame.html"
                inner_url = f"https://{frame_host}/embed/inner.js"
                urls_ba.extend((frame_url, inner_url))
                urls_aa.extend((frame_url, inner_url))
                regs_ba.add(frame_reg)
                regs_aa.add(frame_reg)
                # The frame document plus its one inner script.
                frames = 1
                scripts_ba += 1
                scripts_aa += 1
                # Both script-origin modes resolve to the frame host: the
                # inner tag's src host equals the frame's.
                op = PlannedOp(
                    call=PlannedCall(
                        caller_host=frame_host,
                        call_type=ApiCallType.JAVASCRIPT,
                        count=rogue.call_count,
                        javascript=True,
                    )
                )
                ops_aa.append(op)
                if rogue.fires_before_consent:
                    ops_ba.append(op)

        return (
            self._assemble(
                page_domain, page_url, banner, urls_ba, regs_ba, ops_ba,
                3 + frames + scripts_ba, scripts_ba, False,
            ),
            self._assemble(
                page_domain, page_url, banner, urls_aa, regs_aa, ops_aa,
                3 + frames + scripts_aa, scripts_aa, conditional_aa,
            ),
        )

    def _assemble(
        self,
        page_domain: str,
        page_url: str,
        banner: "ConsentBanner | None",
        urls: list[str],
        registrables: set[str],
        ops: list[PlannedOp],
        fetches: int,
        scripts_run: int,
        conditional: bool,
    ) -> SitePlan:
        third_parties = set(registrables)
        third_parties.discard(page_domain)
        return SitePlan(
            page_domain=page_domain,
            url=page_url,
            final_url=page_url,
            banner=banner,
            cmp=self._world.cmps.detect_from_registrables(registrables),
            cache_urls=tuple(dict.fromkeys(urls)),
            third_parties_sorted=self._share(tuple(sorted(third_parties))),
            ops=tuple(ops),
            fetches=fetches,
            scripts_run=scripts_run,
            conditional=conditional,
        )

    # -- reference builder (page walk) -----------------------------------------

    def _build(self, domain: str, consent: bool) -> SitePlan:
        world = self._world
        site = world.site(domain)
        final_site = site
        if site.redirect_to is not None:
            final_site = world.site(site.redirect_to)
        page = final_site.build_page(world)
        page_domain = final_site.domain

        urls: list[str] = [str(page.url)]
        hosts: set[str] = {page.url.host}
        ops: list[PlannedOp] = []
        conditional = False
        fetches = 1
        scripts_run = 0

        for resource in page.resources:
            if resource.gated and not consent:
                continue
            urls.append(str(resource.src))
            hosts.add(resource.src.host)
            fetches += 1

        for tag in page.scripts:
            if tag.gated and not consent:
                continue
            urls.append(str(tag.src))
            hosts.add(tag.src.host)
            fetches += 1
            scripts_run += 1
            conditional |= self._plan_script(
                tag, page_domain, page.url.host, consent, ops, urls, hosts
            )

        for frame in page.iframes:
            if frame.gated and not consent:
                continue
            urls.append(str(frame.src))
            hosts.add(frame.src.host)
            fetches += 1
            if frame.browsingtopics_attr:
                ops.append(
                    PlannedOp(
                        call=PlannedCall(
                            caller_host=frame.src.host,
                            call_type=ApiCallType.IFRAME,
                            count=1,
                            javascript=False,
                        )
                    )
                )
            for inner in frame.scripts:
                urls.append(str(inner.src))
                hosts.add(inner.src.host)
                fetches += 1
                scripts_run += 1
                conditional |= self._plan_script(
                    inner, page_domain, frame.src.host, consent, ops, urls, hosts
                )

        third_parties = {etld_plus_one(host) for host in hosts}
        third_parties.discard(page_domain)
        return SitePlan(
            page_domain=page_domain,
            url=str(site.url),
            final_url=str(page.url),
            banner=page.banner,
            cmp=world.cmps.detect_from_domains(hosts),
            cache_urls=tuple(dict.fromkeys(urls)),
            third_parties_sorted=tuple(sorted(third_parties)),
            ops=tuple(ops),
            fetches=fetches,
            scripts_run=scripts_run,
            conditional=conditional,
        )

    def _plan_script(
        self,
        tag: ScriptTag,
        page_domain: str,
        context_host: str,
        consent: bool,
        ops: list[PlannedOp],
        urls: list[str],
        hosts: set[str],
    ) -> bool:
        """Plan one script tag's execution; True if it needs a per-visit
        policy re-check (alternating A/B window)."""
        if tag.kind is ScriptKind.AD_TAG:
            return self._plan_ad_tag(tag, page_domain, consent, ops, urls, hosts)
        if tag.kind in (ScriptKind.TAG_MANAGER, ScriptKind.ROGUE_FIRST_PARTY):
            self._plan_infrastructure(tag, context_host, consent, ops)
        # CMP and GENERIC scripts: nothing beyond their own fetch.
        return False

    def _plan_ad_tag(
        self,
        tag: ScriptTag,
        page_domain: str,
        consent: bool,
        ops: list[PlannedOp],
        urls: list[str],
        hosts: set[str],
    ) -> bool:
        caller_domain = etld_plus_one(tag.src.host)
        impression_host = tag.src.host
        policy = self._world.policy_of(caller_domain)
        if policy is None:
            ops.append(PlannedOp(impression_host=impression_host))
            return False
        if consent:
            if policy.alternating_period is not None:
                # The ON/OFF window depends on the visit clock: bake the
                # call shape, defer the fire decision.
                ops.append(
                    PlannedOp(
                        impression_host=impression_host,
                        call=self._planned_ad_call(policy, caller_domain, page_domain),
                        policy=policy,
                        caller=caller_domain,
                    )
                )
                return True
            # now is unused for non-alternating policies (window="static")
            should_call = policy.is_enabled(caller_domain, page_domain, 0)
        else:
            should_call = policy.calls_in_before_accept(
                caller_domain,
                page_domain,
                consent_environment_multiplier(self._world, page_domain),
            )
        if not should_call:
            ops.append(PlannedOp(impression_host=impression_host))
            return False
        call = self._planned_ad_call(policy, caller_domain, page_domain)
        # Static fire: the per-attempt fetch is part of the fixed surface.
        urls.append(call.fetch_url)
        hosts.add(call.fetch_host)
        ops.append(PlannedOp(impression_host=impression_host, call=call))
        return False

    def _planned_ad_call(
        self, policy: TopicsPolicy, caller: str, page_domain: str
    ) -> PlannedCall:
        call_type = policy.pick_call_type(caller, page_domain)
        count = policy.calls_on_page(caller, page_domain)
        key = (caller, call_type, count)
        call = self._calls.get(key)
        if call is not None:
            return call
        if call_type is ApiCallType.JAVASCRIPT:
            host = f"frame.{caller}"
            url = f"https://{host}/topics.html"
        elif call_type is ApiCallType.FETCH:
            host = f"bid.{caller}"
            url = f"https://{host}/topics/bid"
        else:
            host = f"ads.{caller}"
            url = f"https://{host}/render/ad.html"
        call = self._calls[key] = PlannedCall(
            caller_host=host,
            call_type=call_type,
            count=count,
            javascript=call_type is ApiCallType.JAVASCRIPT,
            fetch_url=url,
            fetch_host=host,
        )
        return call

    def _plan_infrastructure(
        self,
        tag: ScriptTag,
        context_host: str,
        consent: bool,
        ops: list[PlannedOp],
    ) -> None:
        if not tag.rogue_topics_call:
            return
        if not consent and not tag.rogue_fires_before_consent:
            return
        if self._mode is ScriptOriginMode.SCRIPT_URL:
            caller_host = tag.src.host
        else:
            # Real platform behaviour: the embedding context's origin —
            # the page itself at root, the frame host inside an iframe.
            caller_host = context_host
        ops.append(
            PlannedOp(
                call=PlannedCall(
                    caller_host=caller_host,
                    call_type=ApiCallType.JAVASCRIPT,
                    count=tag.rogue_call_count,
                    javascript=True,
                )
            )
        )
