//! The `/metrics` northbound: a Prometheus-text exporter mounted on the
//! existing REST [`http`](crate::http) server.
//!
//! Every scrape walks the process-wide obs registry and renders it fresh
//! — no caching layer, so a scrape after an event always sees it.  The
//! registry read path is lock-free for counters/gauges/histograms (one
//! short mutex hold to walk the name index), so scrapes do not perturb
//! the E2AP hot path they observe.

use crate::http::{Response, Router};

/// Mounts `GET /metrics` on `router`, serving the whole obs registry in
/// Prometheus text exposition format.
pub fn with_metrics_route(router: Router) -> Router {
    router.route("GET", "/metrics", |_req| Response {
        status: 200,
        body: flexric_obs::prom::render_text().into_bytes(),
        content_type: flexric_obs::prom::CONTENT_TYPE,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpClient, HttpServer};

    #[test]
    fn metrics_route_serves_registry() {
        let c = flexric_obs::counter(
            "flexric_test_xapp_scrape_total",
            "test counter for the /metrics route",
        );
        c.add(3);
        let srv = HttpServer::spawn("127.0.0.1:0", with_metrics_route(Router::new())).unwrap();
        let addr = srv.addr.to_string();
        let (status, body) = HttpClient::get(&addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("# TYPE flexric_test_xapp_scrape_total counter"));
        if cfg!(feature = "obs-off") {
            assert!(text.contains("flexric_test_xapp_scrape_total 0"));
        } else {
            assert!(text.contains("flexric_test_xapp_scrape_total 3"));
        }
    }
}
