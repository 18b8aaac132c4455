//! Web clients: redirect-chain resolution.
//!
//! [`WebClient`] is the boundary trait between the pipeline and the web.
//! The pipeline only ever asks one question — *"starting from this URL,
//! where does a browser end up, and what favicon does that page serve?"* —
//! which is exactly what [`FetchResult`] answers. A production deployment
//! would implement `WebClient` with Selenium/chromedriver; this crate's
//! [`SimWebClient`] resolves against a [`crate::hosting::SimWeb`].
//!
//! `fetch` is fallible: transport-level failures (timeouts, resets,
//! 429/503, circuit-breaker fast-fails) surface as
//! `Err(`[`TransportError`]`)`, distinct from the *content-level* terminal
//! states in [`FetchOutcome`]. An unreachable host is an answer ("that
//! site is dead"); a timeout is the absence of one. [`SimWebClient`]
//! itself never fails — faults enter through
//! [`crate::flaky::FlakyWebClient`] and are absorbed by
//! [`crate::retry::RetryingWebClient`].

use crate::hosting::SimWeb;
use crate::site::{RedirectKind, SiteNode};
use borges_resilience::TransportError;
use borges_types::{FaviconHash, Url};
use std::collections::BTreeSet;

/// Redirect-chain TTL: the maximum number of *redirect hops* a fetch
/// follows. Browsers give up around 20 hops; the simulator uses a slightly
/// tighter bound since synthetic chains are short.
///
/// The contract is exact: a chain that resolves after `MAX_REDIRECTS`
/// redirect hops succeeds; one that needs a `MAX_REDIRECTS + 1`-th hop is
/// refused with [`FetchOutcome::TooManyRedirects`]. The final on-site
/// canonical-path hop (a page normalizing `/` to `/personas/`, say) is not
/// a redirect and does not count against the budget — so
/// [`FetchResult::hops`], which counts every chain edge, can legitimately
/// report `MAX_REDIRECTS + 1` on a successful fetch.
pub const MAX_REDIRECTS: usize = 16;

/// Terminal state of a fetch (content-level — transport failures are the
/// `Err` arm of [`WebClient::fetch`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Landed on a page.
    Ok,
    /// The start host (or a host mid-chain) did not answer.
    Unreachable,
    /// The chain revisited a URL.
    RedirectLoop,
    /// The chain needed more than [`MAX_REDIRECTS`] redirect hops.
    TooManyRedirects,
}

/// The observable result of loading a URL in a browser-grade client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResult {
    /// The URL the browser settles on, when [`FetchOutcome::Ok`].
    pub final_url: Option<Url>,
    /// The favicon of the final page, if it serves one.
    pub favicon: Option<FaviconHash>,
    /// Every URL visited, in order, starting with the requested one.
    pub chain: Vec<Url>,
    /// Why the fetch terminated.
    pub outcome: FetchOutcome,
}

impl FetchResult {
    /// `true` when the fetch landed on a page.
    pub fn is_ok(&self) -> bool {
        self.outcome == FetchOutcome::Ok
    }

    /// Number of chain edges traversed (0 when the first URL was final).
    /// Counts redirect hops *plus* the final on-site canonical-path hop,
    /// so it can exceed [`MAX_REDIRECTS`] by one on a successful fetch.
    pub fn hops(&self) -> usize {
        self.chain.len().saturating_sub(1)
    }
}

/// Anything that can load a URL and report where it ended up — or fail at
/// the transport layer trying. `Sync`, so one client can serve every crawl
/// worker.
pub trait WebClient: Sync {
    /// Loads `url`, following refreshes and redirects, and reports the
    /// final URL and favicon. `Err` means the transport failed (the
    /// request never completed); content-level dead ends are `Ok` results
    /// with a non-[`FetchOutcome::Ok`] outcome.
    fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError>;
}

impl<C: WebClient + ?Sized> WebClient for &C {
    fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError> {
        (**self).fetch(url)
    }
}

impl<C: WebClient + ?Sized> WebClient for Box<C> {
    fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError> {
        (**self).fetch(url)
    }
}

/// A deterministic client resolving against a [`SimWeb`].
///
/// `js_enabled` models the headless-browser distinction (§4.3.1): with it
/// off, [`RedirectKind::JavaScript`] hops do not fire and the client stops
/// on the hosting page — the behaviour of a plain HTTP scraper, and the
/// reason the paper needed Selenium.
#[derive(Debug, Clone)]
pub struct SimWebClient<'w> {
    web: &'w SimWeb,
    js_enabled: bool,
}

impl<'w> SimWebClient<'w> {
    /// A browser-grade client (follows every redirect kind).
    pub fn browser(web: &'w SimWeb) -> Self {
        SimWebClient {
            web,
            js_enabled: true,
        }
    }

    /// A plain HTTP client (does not execute JavaScript redirects).
    pub fn plain_http(web: &'w SimWeb) -> Self {
        SimWebClient {
            web,
            js_enabled: false,
        }
    }

    /// Whether this client executes JavaScript.
    pub fn js_enabled(&self) -> bool {
        self.js_enabled
    }
}

impl WebClient for SimWebClient<'_> {
    fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError> {
        let mut chain = vec![url.clone()];
        let mut visited: BTreeSet<String> = BTreeSet::new();
        visited.insert(url.canonical());
        let mut current = url.clone();
        // Explicit hop accounting pins the TTL contract: `redirect_hops`
        // counts only redirect edges, never the final canonical-path hop,
        // and the budget check refuses exactly the (MAX_REDIRECTS + 1)-th
        // redirect hop.
        let mut redirect_hops = 0usize;

        loop {
            let node = match self.web.lookup(current.host()) {
                Some(node) => node,
                None => {
                    return Ok(FetchResult {
                        final_url: None,
                        favicon: None,
                        chain,
                        outcome: FetchOutcome::Unreachable,
                    })
                }
            };
            match node {
                SiteNode::Down => {
                    return Ok(FetchResult {
                        final_url: None,
                        favicon: None,
                        chain,
                        outcome: FetchOutcome::Unreachable,
                    })
                }
                SiteNode::Page { canonical, favicon } => {
                    // A page may still normalize the URL (e.g. land on
                    // /personas/). That is one final on-site hop, exempt
                    // from the redirect budget.
                    let landed = canonical.clone();
                    if landed != current {
                        chain.push(landed.clone());
                    }
                    return Ok(FetchResult {
                        final_url: Some(landed),
                        favicon: *favicon,
                        chain,
                        outcome: FetchOutcome::Ok,
                    });
                }
                SiteNode::Redirect { to, kind } => {
                    if *kind == RedirectKind::JavaScript && !self.js_enabled {
                        // A non-JS client sees a 200 page containing a
                        // script it never runs: it believes it has arrived,
                        // but there is no real page (and no favicon).
                        return Ok(FetchResult {
                            final_url: Some(current),
                            favicon: None,
                            chain,
                            outcome: FetchOutcome::Ok,
                        });
                    }
                    if redirect_hops == MAX_REDIRECTS {
                        return Ok(FetchResult {
                            final_url: None,
                            favicon: None,
                            chain,
                            outcome: FetchOutcome::TooManyRedirects,
                        });
                    }
                    if !visited.insert(to.canonical()) {
                        return Ok(FetchResult {
                            final_url: None,
                            favicon: None,
                            chain,
                            outcome: FetchOutcome::RedirectLoop,
                        });
                    }
                    redirect_hops += 1;
                    chain.push(to.clone());
                    current = to.clone();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosting::SimWeb;

    fn icon(name: &str) -> FaviconHash {
        FaviconHash::of_bytes(name.as_bytes())
    }

    /// The paper's Clearwire example: clearwire → sprint → t-mobile.
    fn sprint_web() -> SimWeb {
        SimWeb::builder()
            .redirect(
                "www.clearwire.com",
                "https://www.sprint.com/",
                RedirectKind::Http,
            )
            .redirect(
                "www.sprint.com",
                "https://www.t-mobile.com/",
                RedirectKind::JavaScript,
            )
            .page("www.t-mobile.com", Some(icon("t-mobile")))
            .build()
    }

    /// A web holding one pure-redirect chain of exactly `hops` edges:
    /// h0 → h1 → … → h{hops}, with a page (serving a favicon) at the end.
    fn chain_web(hops: usize) -> SimWeb {
        let mut b = SimWeb::builder();
        for i in 0..hops {
            b = b.redirect(
                &format!("h{i}.com"),
                &format!("https://h{}.com/", i + 1),
                RedirectKind::Http,
            );
        }
        b.page(&format!("h{hops}.com"), Some(icon("end"))).build()
    }

    #[test]
    fn direct_page_fetch() {
        let web = sprint_web();
        let client = SimWebClient::browser(&web);
        let r = client
            .fetch(&"https://www.t-mobile.com/".parse().unwrap())
            .unwrap();
        assert!(r.is_ok());
        assert_eq!(r.hops(), 0);
        assert_eq!(r.favicon, Some(icon("t-mobile")));
    }

    #[test]
    fn multi_hop_chain_resolves_like_the_clearwire_example() {
        let web = sprint_web();
        let client = SimWebClient::browser(&web);
        let r = client
            .fetch(&"http://www.clearwire.com".parse().unwrap())
            .unwrap();
        assert!(r.is_ok());
        assert_eq!(
            r.final_url.as_ref().unwrap().to_string(),
            "https://www.t-mobile.com/"
        );
        assert_eq!(r.hops(), 2);
    }

    #[test]
    fn plain_http_client_stops_at_js_redirects() {
        let web = sprint_web();
        let client = SimWebClient::plain_http(&web);
        let r = client
            .fetch(&"http://www.clearwire.com".parse().unwrap())
            .unwrap();
        assert!(r.is_ok());
        // Stuck on sprint.com: the JS hop never fires.
        assert_eq!(
            r.final_url.as_ref().unwrap().host().as_str(),
            "www.sprint.com"
        );
        assert_eq!(r.favicon, None);
    }

    #[test]
    fn unknown_host_is_unreachable() {
        let web = sprint_web();
        let client = SimWebClient::browser(&web);
        let r = client
            .fetch(&"http://nxdomain.example".parse().unwrap())
            .unwrap();
        assert_eq!(r.outcome, FetchOutcome::Unreachable);
        assert!(r.final_url.is_none());
    }

    #[test]
    fn down_mid_chain_is_unreachable() {
        let web = SimWeb::builder()
            .redirect("a.com", "https://b.com/", RedirectKind::Http)
            .down("b.com")
            .build();
        let client = SimWebClient::browser(&web);
        let r = client.fetch(&"http://a.com".parse().unwrap()).unwrap();
        assert_eq!(r.outcome, FetchOutcome::Unreachable);
        assert_eq!(r.chain.len(), 2);
    }

    #[test]
    fn two_node_loop_is_detected() {
        let web = SimWeb::builder()
            .redirect("a.com", "https://b.com/", RedirectKind::Http)
            .redirect("b.com", "https://a.com/", RedirectKind::Http)
            .build();
        let client = SimWebClient::browser(&web);
        let r = client.fetch(&"https://a.com/".parse().unwrap()).unwrap();
        assert_eq!(r.outcome, FetchOutcome::RedirectLoop);
    }

    #[test]
    fn self_loop_is_detected() {
        let web = SimWeb::builder()
            .redirect("a.com", "https://a.com/", RedirectKind::Http)
            .build();
        let client = SimWebClient::browser(&web);
        let r = client.fetch(&"https://a.com/".parse().unwrap()).unwrap();
        assert_eq!(r.outcome, FetchOutcome::RedirectLoop);
    }

    #[test]
    fn long_chains_hit_the_ttl() {
        let web = chain_web(MAX_REDIRECTS + 5);
        let client = SimWebClient::browser(&web);
        let r = client.fetch(&"https://h0.com/".parse().unwrap()).unwrap();
        assert_eq!(r.outcome, FetchOutcome::TooManyRedirects);
    }

    #[test]
    fn chain_of_exactly_max_redirects_resolves() {
        let web = chain_web(MAX_REDIRECTS);
        let client = SimWebClient::browser(&web);
        let r = client.fetch(&"https://h0.com/".parse().unwrap()).unwrap();
        assert_eq!(r.outcome, FetchOutcome::Ok, "at-budget chains succeed");
        assert_eq!(r.hops(), MAX_REDIRECTS);
        assert_eq!(r.favicon, Some(icon("end")));
    }

    #[test]
    fn chain_of_one_hop_past_the_budget_is_refused() {
        let web = chain_web(MAX_REDIRECTS + 1);
        let client = SimWebClient::browser(&web);
        let r = client.fetch(&"https://h0.com/".parse().unwrap()).unwrap();
        assert_eq!(r.outcome, FetchOutcome::TooManyRedirects);
        // The refused hop is not taken: the chain holds the start URL plus
        // exactly MAX_REDIRECTS followed redirects.
        assert_eq!(r.hops(), MAX_REDIRECTS);
        assert!(r.final_url.is_none());
    }

    #[test]
    fn canonical_landing_hop_is_exempt_from_the_redirect_budget() {
        // MAX_REDIRECTS redirect hops, then the landing page normalizes
        // its path: one extra chain edge that must NOT trip the TTL.
        let mut b = SimWeb::builder();
        for i in 0..MAX_REDIRECTS {
            b = b.redirect(
                &format!("h{i}.com"),
                &format!("https://h{}.com/", i + 1),
                RedirectKind::Http,
            );
        }
        let web = b
            .page_at(
                &format!("h{MAX_REDIRECTS}.com"),
                &format!("https://h{MAX_REDIRECTS}.com/home/"),
                Some(icon("end")),
            )
            .build();
        let client = SimWebClient::browser(&web);
        let r = client.fetch(&"https://h0.com/".parse().unwrap()).unwrap();
        assert_eq!(r.outcome, FetchOutcome::Ok);
        assert_eq!(r.hops(), MAX_REDIRECTS + 1, "landing hop rides free");
        assert_eq!(
            r.final_url.unwrap().to_string(),
            format!("https://h{MAX_REDIRECTS}.com/home/")
        );
    }

    #[test]
    fn page_with_canonical_path_adds_final_hop() {
        let web = SimWeb::builder()
            .page_at(
                "www.clarochile.cl",
                "https://www.clarochile.cl/personas/",
                Some(icon("claro")),
            )
            .build();
        let client = SimWebClient::browser(&web);
        let r = client
            .fetch(&"http://www.clarochile.cl".parse().unwrap())
            .unwrap();
        assert!(r.is_ok());
        assert_eq!(r.hops(), 1);
        assert_eq!(
            r.final_url.unwrap().to_string(),
            "https://www.clarochile.cl/personas/"
        );
    }

    #[test]
    fn meta_refresh_followed_by_all_clients() {
        let web = SimWeb::builder()
            .redirect("old.com", "https://new.com/", RedirectKind::MetaRefresh)
            .page("new.com", None)
            .build();
        for client in [SimWebClient::browser(&web), SimWebClient::plain_http(&web)] {
            let r = client.fetch(&"http://old.com".parse().unwrap()).unwrap();
            assert_eq!(r.final_url.as_ref().unwrap().host().as_str(), "new.com");
        }
    }
}
