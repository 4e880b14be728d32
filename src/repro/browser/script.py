"""The script runtime: what third-party code does when it executes.

Dispatches on :class:`~repro.web.page.ScriptKind`:

* **AD_TAG** — an enrolled service's tag.  If its adoption policy says ON
  for this (caller, site, time), it invokes the Topics API *as itself*:
  a JavaScript call from an own-origin iframe, a topics-enabled fetch to
  its own endpoint, or an ``<iframe browsingtopics>`` — whichever the
  policy picks.  Compliant services stay silent before consent.
* **TAG_MANAGER / ROGUE_FIRST_PARTY** — infrastructure code.  When the
  tag carries a rogue ``browsingTopics()`` call, it executes it **in the
  embedding context** — so the caller the browser sees is the page (or
  iframe) origin, not the script's host.  This is the paper's §4
  mechanism, reproduced mechanically rather than sampled.
* **CMP / GENERIC** — fetch a sub-resource or two; no Topics involvement.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.browser.context import BrowsingContext
from repro.browser.network import NetworkLog, NetworkStack
from repro.browser.topics.api import TopicsApi
from repro.browser.topics.manager import TopicsApiDisabledError
from repro.browser.topics.types import ApiCallType
from repro.util.psl import etld_plus_one
from repro.util.timeline import Timestamp
from repro.util.urls import https
from repro.web.page import ScriptKind, ScriptTag

if TYPE_CHECKING:
    from repro.browser.cookies import CookieTracker
    from repro.web.generator import SyntheticWeb


class ScriptOriginMode(enum.Enum):
    """Which origin a plain ``<script>`` tag's code calls with.

    ``EMBEDDER`` is the real platform behaviour (and the default).
    ``SCRIPT_URL`` is a counterfactual for the ablation study: if the
    platform attributed script calls to the host the script bytes came
    from, §4's thousands of per-site anomalous callers would collapse to
    the one or two library hosts actually responsible.
    """

    EMBEDDER = "embedder"
    SCRIPT_URL = "script-url"


def consent_environment_multiplier(world: "SyntheticWeb", site_domain: str) -> float:
    """How the visited site's consent setup modulates pre-consent
    behaviour: no banner → no consent string, services stay mostly
    conservative; a leaky CMP mis-signals consent and services trust
    it; a home-grown non-gating banner sits in between."""
    site = world.resolve(site_domain)
    config = world.config
    if site is None or site.banner is None:
        return config.questionable_multiplier_no_banner
    if site.banner.cmp is not None and not site.banner.gates_before_consent:
        return config.questionable_multiplier_leaky_cmp
    return config.questionable_multiplier_custom_banner


class ScriptRuntime:
    """Executes script tags within browsing contexts."""

    def __init__(
        self,
        world: "SyntheticWeb",
        api: TopicsApi,
        network: NetworkStack,
        script_origin_mode: ScriptOriginMode = ScriptOriginMode.EMBEDDER,
        cookie_tracker: "CookieTracker | None" = None,
    ) -> None:
        self._world = world
        self._api = api
        self._network = network
        self._script_origin_mode = script_origin_mode
        self._cookie_tracker = cookie_tracker

    def execute(
        self,
        tag: ScriptTag,
        context: BrowsingContext,
        consent_granted: bool,
        now: Timestamp,
        log: NetworkLog,
        page_domain: str,
    ) -> None:
        """Run one script tag's behaviour."""
        if tag.kind is ScriptKind.AD_TAG:
            self._run_ad_tag(tag, context, consent_granted, now, log, page_domain)
        elif tag.kind in (ScriptKind.TAG_MANAGER, ScriptKind.ROGUE_FIRST_PARTY):
            self._run_infrastructure(tag, context, consent_granted, now)
        # CMP and GENERIC scripts have no executable behaviour beyond the
        # fetch of their own bytes, which the browser already logged.

    # -- enrolled ad tags -------------------------------------------------------

    def _run_ad_tag(
        self,
        tag: ScriptTag,
        context: BrowsingContext,
        consent_granted: bool,
        now: Timestamp,
        log: NetworkLog,
        page_domain: str,
    ) -> None:
        caller_domain = etld_plus_one(tag.src.host)
        site = context.top_frame_site
        if self._cookie_tracker is not None:
            # Every executed ad tag is an impression: the cookie-based
            # tracking loop runs regardless of Topics adoption — it is
            # the baseline the A/B tests of §3 compare against.
            self._cookie_tracker.track_impression(tag.src.host, site, now)
        policy = self._world.policy_of(caller_domain)
        if policy is None:
            return
        if consent_granted:
            should_call = policy.is_enabled(caller_domain, site, now)
        else:
            # The tag only executes pre-consent on sites that failed to
            # gate it; whether it *calls* is the service's own behaviour,
            # pushed or restrained by the site's consent environment.
            should_call = policy.calls_in_before_accept(
                caller_domain, site, self._consent_environment_multiplier(site)
            )
        if not should_call:
            return

        call_type = policy.pick_call_type(caller_domain, site)
        for _ in range(policy.calls_on_page(caller_domain, site)):
            self._issue_call(caller_domain, call_type, context, now, log, page_domain)

    def _consent_environment_multiplier(self, site_domain: str) -> float:
        return consent_environment_multiplier(self._world, site_domain)

    def _issue_call(
        self,
        caller_domain: str,
        call_type: ApiCallType,
        context: BrowsingContext,
        now: Timestamp,
        log: NetworkLog,
        page_domain: str,
    ) -> None:
        try:
            if call_type is ApiCallType.JAVASCRIPT:
                # The ad tag opens an own-origin helper iframe and calls
                # document.browsingTopics() inside it, so the calling
                # context origin — hence the caller — is its own.
                frame_url = https(f"frame.{caller_domain}", "/topics.html")
                self._network.fetch(frame_url, page_domain, now, log)
                frame = context.open_iframe(frame_url)
                self._api.document_browsing_topics(frame, now)
            elif call_type is ApiCallType.FETCH:
                bid_url = https(f"bid.{caller_domain}", "/topics/bid")
                self._network.fetch(bid_url, page_domain, now, log)
                self._api.fetch_with_topics(context, bid_url, now)
            else:
                ad_url = https(f"ads.{caller_domain}", "/render/ad.html")
                self._network.fetch(ad_url, page_domain, now, log)
                self._api.iframe_with_topics(context, ad_url, now)
        except TopicsApiDisabledError:
            # The promise rejects for non-opted-in users; real tags catch
            # it and carry on serving contextual ads.
            pass

    # -- tag managers and rogue libraries ---------------------------------------------

    def _run_infrastructure(
        self,
        tag: ScriptTag,
        context: BrowsingContext,
        consent_granted: bool,
        now: Timestamp,
    ) -> None:
        if not tag.rogue_topics_call:
            return
        if not consent_granted and not tag.rogue_fires_before_consent:
            return
        if self._script_origin_mode is ScriptOriginMode.SCRIPT_URL:
            # Counterfactual attribution (ablation): pretend the platform
            # charged the call to the script's own host.
            calling_context = context.open_iframe(tag.src)
        else:
            # Real platform behaviour: the script tag sits in the page
            # HTML, so context.script_execution_origin() is the page
            # itself — the call is logged with the website as caller.
            calling_context = context
        for _ in range(tag.rogue_call_count):
            try:
                self._api.document_browsing_topics(calling_context, now)
            except TopicsApiDisabledError:
                return
