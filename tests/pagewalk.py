"""The page-walk reference browser shared by the visit-plan tests.

``Browser`` loads every page by replaying its compiled ``SitePlan``.
:class:`PageWalkBrowser` instead materialises the page with
``Website.build_page`` and walks its tags through the public
``ScriptRuntime``/``TopicsApi``/``NetworkStack`` over the browser's own
manager, cache and cookie tracker — the DOM-walk semantics the replay
must reproduce.  Because it reads the page builder at visit time, it also
sees hand-built pages that no compiled plan knows about.
"""

from repro.browser.browser import Browser, VisitOutcome
from repro.browser.context import root_context_for
from repro.browser.network import NetworkLog, NetworkStack
from repro.browser.script import ScriptOriginMode, ScriptRuntime
from repro.browser.topics.api import TopicsApi


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
