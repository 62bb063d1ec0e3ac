//! Request metrics for the `/metrics` endpoint.
//!
//! Everything is relaxed atomics (diagnostics, not synchronisation):
//! status counters, and one lock-free [`Histogram`] of wall-clock latency
//! per route.  A route's request count is its histogram's count, and the
//! global `latency_ms` summary is the bucket-wise sum of the route
//! histograms at render time, so each request records exactly once.

use crate::json::Json;
use ppl_obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The routes the server distinguishes in its per-route counters.
/// `/v1/models/{id}` and `/v1/artifacts/{id}` lifecycle requests are
/// normalised to their `{id}` buckets.
pub const ROUTES: [&str; 12] = [
    "/healthz",
    "/metrics",
    "/v1/models",
    "/v1/models/{id}",
    "/v1/query",
    "/v1/batch",
    "/v1/fit",
    "/v1/artifacts",
    "/v1/artifacts/{id}",
    "/v1/trace",
    "/v1/trace/{id}",
    "other",
];

/// Index of the catch-all `"other"` entry of [`ROUTES`].
const OTHER: usize = ROUTES.len() - 1;

/// Resolves a request path to the index of the [`ROUTES`] entry it is
/// counted under: lifecycle requests collapse to their `{id}` buckets,
/// and any unmatched path maps to `"other"`.
pub fn route_index(path: &str) -> usize {
    let path = if path.starts_with("/v1/models/") {
        "/v1/models/{id}"
    } else if path.starts_with("/v1/artifacts/") {
        "/v1/artifacts/{id}"
    } else if path.starts_with("/v1/trace/") {
        "/v1/trace/{id}"
    } else {
        path
    };
    ROUTES[..OTHER]
        .iter()
        .position(|route| *route == path)
        .unwrap_or(OTHER)
}

/// The `count`/`mean`/`max`/`p50`/`p90`/`p99` summary, in milliseconds,
/// that `/metrics` renders for every latency histogram.
pub(crate) fn summary_ms(hist: &Histogram) -> Vec<(String, Json)> {
    let ms = |nanos: f64| Json::num_or_null(nanos / 1e6);
    let [p50, p90, p99] = hist.quantiles([0.50, 0.90, 0.99]);
    vec![
        ("count".into(), Json::Num(hist.count() as f64)),
        ("mean".into(), ms(hist.mean())),
        ("max".into(), ms(hist.max() as f64)),
        ("p50".into(), ms(p50 as f64)),
        ("p90".into(), ms(p90 as f64)),
        ("p99".into(), ms(p99 as f64)),
    ]
}

/// Aggregated serving metrics.
pub struct Metrics {
    started: Instant,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// `408 Request Timeout` responses, counted apart from the generic
    /// 4xx class so deadline pressure is visible at a glance.
    responses_timeout: AtomicU64,
    /// Requests whose path matched no known route (they are counted
    /// under the `"other"` bucket, but no longer silently).
    unknown_paths: AtomicU64,
    /// Request latency, one histogram per [`ROUTES`] entry.
    latency_by_route: Vec<Histogram>,
    /// Handler panics caught and converted to `500 server.panic`.
    panics: AtomicU64,
    /// Requests shed by a per-endpoint concurrency cap (`429`).
    cap_sheds: AtomicU64,
    /// Connections shed at the transport admission queue (`429`).  Behind
    /// an `Arc` so it can be handed to
    /// [`crate::http::ServerConfig::shed_counter`] — the transport layer
    /// sheds before the handler (and therefore these metrics) ever runs.
    queue_sheds: Arc<AtomicU64>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("total_requests", &self.total_requests())
            .finish_non_exhaustive()
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Creates zeroed metrics with the clock started now.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            responses_timeout: AtomicU64::new(0),
            unknown_paths: AtomicU64::new(0),
            latency_by_route: ROUTES.iter().map(|_| Histogram::new()).collect(),
            panics: AtomicU64::new(0),
            cap_sheds: AtomicU64::new(0),
            queue_sheds: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Counts one caught handler panic.
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request shed by a per-endpoint concurrency cap.
    pub fn record_cap_shed(&self) {
        self.cap_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Handler panics caught so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Requests shed by per-endpoint concurrency caps so far.
    pub fn cap_sheds(&self) -> u64 {
        self.cap_sheds.load(Ordering::Relaxed)
    }

    /// Connections shed at the transport admission queue so far.
    pub fn queue_sheds(&self) -> u64 {
        self.queue_sheds.load(Ordering::Relaxed)
    }

    /// The shared queue-shed counter, for wiring into
    /// [`crate::http::ServerConfig::shed_counter`].
    pub fn queue_sheds_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.queue_sheds)
    }

    /// Records one handled request: its route (the [`route_index`] of
    /// `path`), response status, and wall-clock latency.
    pub fn record(&self, route: usize, path: &str, status: u16, latency: Duration) {
        if route == OTHER {
            // Unmatched paths still land in the "other" bucket, but no
            // longer silently: count them and leave a (rate-limited)
            // breadcrumb naming the path.
            self.unknown_paths.fetch_add(1, Ordering::Relaxed);
            ppl_obs::log::debug(
                "route.unknown",
                "request for unmatched path counted under \"other\"",
                &[("path", ppl_obs::log::Value::s(path))],
            );
        }
        let status_counter = match status {
            200..=299 => &self.responses_2xx,
            408 => &self.responses_timeout,
            500..=599 => &self.responses_5xx,
            _ => &self.responses_4xx,
        };
        status_counter.fetch_add(1, Ordering::Relaxed);
        let nanos = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.latency_by_route[route.min(OTHER)].record(nanos);
    }

    /// Requests for paths that matched no known route so far.
    pub fn unknown_paths(&self) -> u64 {
        self.unknown_paths.load(Ordering::Relaxed)
    }

    /// `408 Request Timeout` responses so far.
    pub fn timeouts(&self) -> u64 {
        self.responses_timeout.load(Ordering::Relaxed)
    }

    /// Total requests across every route.
    pub fn total_requests(&self) -> u64 {
        self.latency_by_route.iter().map(Histogram::count).sum()
    }

    /// Renders the metrics document served by `/metrics`.  `cache_hits`,
    /// `cache_misses`, and `cache_len` come from the response cache.
    pub fn render(&self, cache_hits: u64, cache_misses: u64, cache_len: usize) -> Json {
        let mut all = Histogram::new();
        for hist in &self.latency_by_route {
            all.absorb(hist);
        }
        let (upper_ms, counts) = all
            .buckets()
            .map(|(upper, n)| (Json::num_or_null(upper as f64 / 1e6), Json::Num(n as f64)))
            .unzip();
        let mut latency = summary_ms(&all);
        latency.push((
            "histogram".into(),
            Json::Obj(vec![
                ("upper_ms".into(), Json::Arr(upper_ms)),
                ("counts".into(), Json::Arr(counts)),
            ]),
        ));
        let routes = ROUTES
            .iter()
            .zip(&self.latency_by_route)
            .map(|(route, hist)| (route.to_string(), Json::Num(hist.count() as f64)));
        let by_route = ROUTES
            .iter()
            .zip(&self.latency_by_route)
            .filter(|(_, hist)| hist.count() > 0)
            .map(|(route, hist)| (route.to_string(), Json::Obj(summary_ms(hist))));
        let cache_total = cache_hits + cache_misses;
        let hit_rate = if cache_total > 0 {
            cache_hits as f64 / cache_total as f64
        } else {
            0.0
        };
        Json::Obj(vec![
            (
                "uptime_seconds".into(),
                Json::num_or_null(self.started.elapsed().as_secs_f64()),
            ),
            ("requests_total".into(), Json::Num(all.count() as f64)),
            ("requests_by_route".into(), Json::Obj(routes.collect())),
            (
                "responses".into(),
                Json::Obj(vec![
                    (
                        "2xx".into(),
                        Json::Num(self.responses_2xx.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "4xx".into(),
                        Json::Num(self.responses_4xx.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "5xx".into(),
                        Json::Num(self.responses_5xx.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "timeout".into(),
                        Json::Num(self.responses_timeout.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            (
                "unknown_paths".into(),
                Json::Num(self.unknown_paths.load(Ordering::Relaxed) as f64),
            ),
            ("latency_ms".into(), Json::Obj(latency)),
            ("latency_by_route_ms".into(), Json::Obj(by_route.collect())),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::Num(cache_hits as f64)),
                    ("misses".into(), Json::Num(cache_misses as f64)),
                    ("hit_rate".into(), Json::num_or_null(hit_rate)),
                    ("entries".into(), Json::Num(cache_len as f64)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(m: &Metrics, path: &str, status: u16, latency_ms: f64) {
        let latency = Duration::from_secs_f64(latency_ms / 1e3);
        m.record(route_index(path), path, status, latency);
    }

    fn num(doc: &Json, key: &str) -> f64 {
        match doc.get(key) {
            Some(Json::Num(v)) => *v,
            other => panic!("{key} missing: {other:?}"),
        }
    }

    #[test]
    fn records_routes_statuses_and_latency() {
        let m = Metrics::new();
        record(&m, "/healthz", 200, 0.5);
        record(&m, "/v1/query", 200, 12.0);
        record(&m, "/v1/query", 400, 1.0);
        record(&m, "/nope", 404, 0.1);
        record(&m, "/v1/models/m-0011223344556677", 200, 0.2);
        record(&m, "/v1/artifacts/a-0011223344556677", 200, 0.2);
        record(&m, "/v1/query", 500, 2_001.0);
        record(&m, "/v1/query", 408, 250.0);
        assert_eq!(m.total_requests(), 8);
        assert_eq!(m.timeouts(), 1);
        assert_eq!(m.unknown_paths(), 1);
        let json = m.render(3, 1, 2);
        assert_eq!(
            json.get("requests_by_route").unwrap().get("/v1/query"),
            Some(&Json::Num(4.0))
        );
        assert_eq!(
            json.get("requests_by_route")
                .unwrap()
                .get("/v1/models/{id}"),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            json.get("requests_by_route")
                .unwrap()
                .get("/v1/artifacts/{id}"),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            json.get("requests_by_route").unwrap().get("other"),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            json.get("responses").unwrap().get("4xx"),
            Some(&Json::Num(2.0))
        );
        assert_eq!(
            json.get("responses").unwrap().get("5xx"),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            json.get("responses").unwrap().get("timeout"),
            Some(&Json::Num(1.0)),
            "408 is its own class, not folded into 4xx"
        );
        assert_eq!(json.get("unknown_paths"), Some(&Json::Num(1.0)));
        assert_eq!(
            json.get("cache").unwrap().get("hit_rate"),
            Some(&Json::Num(0.75))
        );
        let latency = json.get("latency_ms").unwrap();
        assert!(
            (num(latency, "max") - 2_001.0).abs() < 1e-5,
            "the slowest sample is the reported max, with no overflow region"
        );
        for key in ["p50", "p90", "p99"] {
            assert!(num(latency, key) > 0.0, "global latency reports {key}");
        }
        let by_route = json.get("latency_by_route_ms").unwrap();
        let query = by_route.get("/v1/query").expect("per-route latency");
        assert_eq!(query.get("count"), Some(&Json::Num(4.0)));
        assert!(matches!(query.get("p99"), Some(Json::Num(v)) if *v > 0.0));
        assert!(
            by_route.get("/v1/batch").is_none(),
            "routes with no traffic are omitted"
        );
        // The document always serialises (every number finite).
        assert!(json.write().is_ok());
    }

    #[test]
    fn percentiles_track_the_tail() {
        // 2% of samples in the tail: nearest-rank p99 must land there
        // (with exactly 1% it would sit right on the bulk boundary).
        let m = Metrics::new();
        for _ in 0..98 {
            record(&m, "/v1/query", 200, 10.0);
        }
        record(&m, "/v1/query", 200, 1_500.0);
        record(&m, "/v1/query", 200, 1_500.0);
        let json = m.render(0, 0, 0);
        let latency = json.get("latency_ms").unwrap();
        let num = |key: &str| num(latency, key);
        assert!(num("p50") < 100.0, "median near the bulk");
        assert!(num("p99") > 1_000.0, "p99 sees the tail the mean hides");
        assert!(num("mean") < num("p99"));
    }

    #[test]
    fn normalize_route_covers_ids_and_unknowns() {
        let normalize_route = |path| ROUTES[route_index(path)];
        assert_eq!(normalize_route("/healthz"), "/healthz");
        assert_eq!(normalize_route("/v1/models/m-00"), "/v1/models/{id}");
        assert_eq!(normalize_route("/v1/artifacts/a-00"), "/v1/artifacts/{id}");
        assert_eq!(normalize_route("/v1/trace"), "/v1/trace");
        assert_eq!(normalize_route("/v1/trace/t-00"), "/v1/trace/{id}");
        assert_eq!(normalize_route("/nope"), "other");
    }

    #[test]
    fn sub_millisecond_route_latencies_render_inside_the_observed_range() {
        // 100 requests of 0.030–0.066 ms once rendered p50 = p90 = p99 =
        // 25 ms, the first bin centre of a linear 0–2000 ms histogram.
        let m = Metrics::new();
        let samples: Vec<f64> = (0..100).map(|i| 0.030 + i as f64 * 0.00036).collect();
        for &ms in &samples {
            record(&m, "/v1/query", 200, ms);
        }
        let json = m.render(0, 0, 0);
        let by_route = json.get("latency_by_route_ms").unwrap();
        for summary in [
            json.get("latency_ms").unwrap(),
            by_route.get("/v1/query").unwrap(),
        ] {
            let (min, max) = (samples[0], samples[99]);
            assert!((num(summary, "max") - max).abs() < 1e-5);
            // Nearest rank of 100 samples: the 50th, 90th and 99th.
            for (key, rank) in [("p50", 50), ("p90", 90), ("p99", 99)] {
                let exact = samples[rank - 1];
                let reported = num(summary, key);
                assert!(min - 1e-5 <= reported && reported <= max + 1e-5, "{key}");
                assert!((reported - exact).abs() <= 0.125 * exact, "{key}");
            }
        }
    }
}
