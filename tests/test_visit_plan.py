"""Visit plans: compiled plans and plan replay ≡ the page-walk reference.

``VisitPlanner._compile_pair`` builds both consent variants of a site's
plan directly from ``Website`` fields; ``VisitPlanner._build`` is the
retained reference implementation that materialises the page and walks
its tags.  ``Browser`` loads every page by replaying its plan;
:class:`PageWalkBrowser` below keeps the page walk itself — the public
``ScriptRuntime``/``TopicsApi``/``NetworkStack`` run over the browser's
own manager, cache and cookie tracker — as the replay's reference.
These tests pin compile ≡ walk for every site of a generated world
(both script-origin modes, both consent states), replay ≡ walk visit by
visit, and a replayed campaign equal to a walked one, so neither engine
can drift silently.
"""

import dataclasses

import pytest

from repro.browser.browser import Browser, VisitOutcome
from repro.browser.context import root_context_for
from repro.browser.network import NetworkLog, NetworkStack
from repro.browser.script import ScriptOriginMode, ScriptRuntime
from repro.browser.topics.api import TopicsApi
from repro.crawler import campaign as campaign_module
from repro.crawler.campaign import CrawlCampaign
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator


class PageWalkBrowser(Browser):
    """A browser that loads pages by walking their tags, not by replay."""

    def __init__(
        self,
        world,
        script_origin_mode=ScriptOriginMode.EMBEDDER,
        **kwargs,
    ):
        super().__init__(world, script_origin_mode=script_origin_mode, **kwargs)
        self._walk_api = TopicsApi(self.topics_manager)
        self._walk_network = NetworkStack(self.cache)
        self._walk_runtime = ScriptRuntime(
            world,
            self._walk_api,
            self._walk_network,
            script_origin_mode,
            self.cookie_tracker,
        )

    def _planned_visit(self, domain, plan, consent_granted):  # noqa: ARG002
        world = self._world
        site = world.site(domain)
        final_site = site
        if site.redirect_to is not None:
            final_site = world.site(site.redirect_to)
        page = final_site.build_page(world)
        page_domain = final_site.domain
        manager = self.topics_manager
        network = self._walk_network
        runtime = self._walk_runtime
        log = NetworkLog()
        call_mark = manager.call_count
        now = self.clock.now()

        network.fetch(page.url, page_domain, now, log)
        manager.record_page_visit(page_domain, now)
        root = root_context_for(page.url)
        for resource in page.resources:
            if resource.gated and not consent_granted:
                continue
            network.fetch(resource.src, page_domain, now, log)
        for tag in page.scripts:
            if tag.gated and not consent_granted:
                continue
            network.fetch(tag.src, page_domain, now, log)
            runtime.execute(tag, root, consent_granted, now, log, page_domain)
        for frame in page.iframes:
            if frame.gated and not consent_granted:
                continue
            network.fetch(frame.src, page_domain, now, log)
            if frame.browsingtopics_attr and manager.topics_enabled:
                child, _ = self._walk_api.iframe_with_topics(root, frame.src, now)
            else:
                child = root.open_iframe(frame.src)
            for inner in frame.scripts:
                network.fetch(inner.src, page_domain, now, log)
                runtime.execute(inner, child, consent_granted, now, log, page_domain)

        return VisitOutcome(
            requested_domain=domain,
            ok=True,
            final_domain=page_domain,
            url=str(site.url),
            final_url=str(page.url),
            consent_granted=consent_granted,
            banner=page.banner,
            topics_calls=tuple(manager.drain_calls_since(call_mark)),
            fetched_urls=tuple(dict.fromkeys(str(r.url) for r in log.records)),
            third_parties_sorted=tuple(sorted(log.third_party_domains(page_domain))),
            detected_cmp=world.cmps.detect_from_domains(log.hosts()),
        )


def comparable(outcome):
    """The outcome with its fetched URLs as a set: replay appends a
    fired conditional call's endpoint after the static surface, the
    walk logs it where the ad tag runs."""
    return dataclasses.replace(outcome, fetched_urls=frozenset(outcome.fetched_urls))


@pytest.fixture(scope="module")
def world():
    return WebGenerator(WorldConfig.small(300, seed=11)).generate()


class TestCompileMatchesPageWalk:
    @pytest.mark.parametrize("mode", list(ScriptOriginMode))
    def test_every_site_both_consents(self, world, mode):
        planner = world.visit_planner(mode)
        domains = list(world.tranco.domains) + sorted(world.shadow_sites)
        mismatches = []
        for domain in domains:
            for consent in (False, True):
                compiled = planner.plan_for(domain, consent)
                walked = planner._build(domain, consent)
                if compiled != walked:
                    mismatches.append((domain, consent))
        assert mismatches == []

    def test_redirect_plans_share_target_surface(self, world):
        planner = world.visit_planner(ScriptOriginMode.EMBEDDER)
        redirecting = [
            site
            for site in (world.site(d) for d in world.tranco.domains)
            if site.redirect_to is not None
            and world.site(site.redirect_to).redirect_to is None
        ]
        assert redirecting, "world should contain single-hop redirects"
        for site in redirecting:
            plan = planner.plan_for(site.domain, False)
            target = planner.plan_for(site.redirect_to, False)
            assert plan.url == f"https://www.{site.domain}/"
            assert plan.final_url == target.final_url
            assert plan.page_domain == target.page_domain
            assert plan.ops == target.ops
            assert plan.third_parties_sorted == target.third_parties_sorted


class TestReplayMatchesPageWalk:
    @pytest.mark.parametrize("topics_enabled", [True, False])
    @pytest.mark.parametrize("mode", list(ScriptOriginMode))
    def test_every_visit_matches_reference_walk(self, world, mode, topics_enabled):
        """Replay and walk agree on every outcome and every browser state,
        visit by visit, over every site in both consent states."""
        replay = Browser(
            world, script_origin_mode=mode, topics_enabled=topics_enabled
        )
        walk = PageWalkBrowser(
            world, script_origin_mode=mode, topics_enabled=topics_enabled
        )
        domains = list(world.tranco.domains) + sorted(world.shadow_sites)
        mismatches = []
        for domain in domains:
            for consent in (False, True):
                replayed = replay.visit(domain, consent_granted=consent)
                walked = walk.visit(domain, consent_granted=consent)
                if comparable(replayed) != comparable(walked):
                    mismatches.append((domain, consent, "outcome"))
                if replay.state_digest() != walk.state_digest():
                    mismatches.append((domain, consent, "state"))
        assert mismatches == []
        assert replay.topics_manager.call_count == walk.topics_manager.call_count
        if topics_enabled:
            assert replay.topics_manager.call_count > 0


class TestReferenceWalkEquivalence:
    def test_campaign_equals_reference_walk(self, monkeypatch):
        world = WebGenerator(WorldConfig.small(150, seed=23)).generate()
        replayed = CrawlCampaign(world, corrupt_allowlist=True).run()
        monkeypatch.setattr(campaign_module, "Browser", PageWalkBrowser)
        walked = CrawlCampaign(world, corrupt_allowlist=True).run()

        assert replayed.d_ba.records == walked.d_ba.records
        assert replayed.d_aa.records == walked.d_aa.records
        assert replayed.report == walked.report
        assert replayed.allowed_domains == walked.allowed_domains
        assert (
            replayed.survey.attested_domains() == walked.survey.attested_domains()
        )
