"""Tests for Website.build_page and the declarative iframe topics path."""

import pytest

from repro.browser.topics.types import ApiCallType
from repro.util.urls import https
from repro.web.banner import ConsentBanner
from repro.web.generator import SyntheticWeb
from repro.web.page import IFrameTag, ScriptKind
from repro.web.site import RogueVariant, Website
from repro.web.tlds import Region
from tests.pagewalk import PageWalkBrowser


class TestBuildPage:
    def test_page_url_is_www_host(self, world):
        site = next(s for s in world.websites if s.redirect_to is None)
        page = site.build_page(world)
        assert page.url.host == f"www.{site.domain}"

    def test_embedded_services_become_tags(self, world):
        site = next(
            s
            for s in world.websites
            if s.redirect_to is None and len(s.embedded) > 5
        )
        page = site.build_page(world)
        script_hosts = {tag.src.host for tag in page.scripts}
        for tp_domain in site.embedded:
            assert any(tp_domain in host for host in script_hosts), tp_domain

    def test_cmp_script_present_for_cmp_banners(self, world):
        site = next(
            s
            for s in world.websites
            if s.banner is not None and s.banner.cmp is not None
            and s.redirect_to is None
        )
        page = site.build_page(world)
        cmp_domain = world.cmp_domain(site.banner.cmp)
        assert any(cmp_domain in tag.src.host for tag in page.scripts)

    def test_ad_tags_marked(self, world):
        site = next(
            s
            for s in world.websites
            if s.redirect_to is None and "criteo.com" in s.embedded
        )
        page = site.build_page(world)
        criteo_tag = next(
            tag for tag in page.scripts if "criteo.com" in tag.src.host
        )
        assert criteo_tag.kind is ScriptKind.AD_TAG

    def test_gating_consistency(self, world):
        # On gating sites every consent-gated service's tag is gated.
        site = next(
            s
            for s in world.websites
            if s.gates_before_consent
            and s.redirect_to is None
            and any(world.is_consent_gated(d) for d in s.embedded)
        )
        page = site.build_page(world)
        for tag in page.scripts:
            if tag.kind is ScriptKind.AD_TAG:
                assert tag.gated

    def test_rogue_sibling_iframe_present(self, world):
        site = next(
            s
            for s in world.websites
            if s.rogue is not None and s.rogue.variant is RogueVariant.SIBLING
        )
        page = site.build_page(world)
        assert any(
            frame.src.host == site.rogue.caller_host for frame in page.iframes
        )


class TestDeclarativeTopicsIframe:
    @pytest.fixture
    def custom_world(self, world) -> SyntheticWeb:
        # Splice a hand-built site carrying an <iframe browsingtopics>
        # into a copy of the shared world's lookup.
        site = Website(
            domain="handmade.com",
            rank=0,
            tld="com",
            region=Region.COM,
            banner=ConsentBanner("en", "Accept all", None, False),
            embedded=(),
        )
        original_build = site.build_page

        def build_with_topics_iframe(ecosystem):
            page = original_build(ecosystem)
            page.iframes.append(
                IFrameTag(
                    src=https("ads.criteo.com", "/slot.html"),
                    browsingtopics_attr=True,
                )
            )
            return page

        site.build_page = build_with_topics_iframe  # type: ignore[method-assign]
        world.shadow_sites["handmade.com"] = site
        world._sites_by_domain["handmade.com"] = site  # noqa: SLF001
        yield world
        del world.shadow_sites["handmade.com"]
        del world._sites_by_domain["handmade.com"]  # noqa: SLF001

    def test_iframe_attr_calls_as_frame_source(self, custom_world):
        # A hand-built page is invisible to compiled plans; the page-walk
        # reference browser owns the DOM-walk semantics under test.
        browser = PageWalkBrowser(custom_world, corrupt_allowlist=False)
        outcome = browser.visit("handmade.com", consent_granted=True)
        iframe_calls = [
            call
            for call in outcome.topics_calls
            if call.call_type is ApiCallType.IFRAME
        ]
        assert iframe_calls
        assert iframe_calls[0].caller == "criteo.com"
        assert iframe_calls[0].allowed  # criteo is enrolled
