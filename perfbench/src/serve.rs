//! The `serve` workload: a loopback `ppl-serve` (`App` + `Server`, two
//! workers, response cache on, artifact store in a directory, flight
//! recorder off) under open-loop Poisson arrivals at one fixed offered
//! rate, then a fixed ladder of rates for `max_rate_rps`.
//!
//! Every request is timed from when it was due, so a stalled server shows
//! as latency on the requests queued behind the stall. Every response is
//! checked after the timed window: query bodies byte for byte against the
//! in-process answer for the same inputs.

use crate::admit;
use crate::common::{median, quantile, secs, timed, InputRng, Report, Tracer, SETUP_REPS};
use guide_ppl::{Method, Session};
use ppl_dist::Sample;
use ppl_inference::{ParamSpec, ViConfig};
use ppl_semantics::value::Value;
use ppl_serve::api::query_response_json;
use ppl_serve::http::{ClientConn, Request};
use ppl_serve::{App, AppLimits, Json, Registry, Server, ServerConfig};
use ppl_store::Store;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed offered rate of the timed window, in requests per second:
/// about a tenth of the capacity of one connection (near 1,150 requests/s)
/// on the 2-CPU host it was set on (see `perfbench/README.md`).
pub const OFFERED_RPS: f64 = 120.0;
/// The fixed rate ladder for `max_rate_rps`, in requests per second. The
/// top rung offers several times what the load connection can carry, so
/// its requests queue at the generator and complete at the server's
/// capacity.
pub const LADDER_RPS: [f64; 3] = [250.0, 1_000.0, 5_000.0];
/// Seconds of arrivals each ladder rung schedules.
pub const RUNG_SECONDS: f64 = 1.0;
/// Segments the timed window is cut into: `latency_p50_ms` and
/// `latency_p99_ms` are the medians of the segments' own percentiles, so
/// one episode of host contention moves at most one segment.
pub const SEGMENTS: usize = 3;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// IS particles per cold query.
pub const QUERY_PARTICLES: usize = 1_000;
/// Response cache capacity.
const CACHE_CAPACITY: usize = 4_096;
/// VI fits: iterations and samples per iteration.
const FIT_ITERATIONS: usize = 50;
const FIT_SAMPLES: usize = 8;
/// A repeat re-sends a body at least this many arrivals old, so its
/// original has usually completed and the repeat is a cache hit.
const REPEAT_DISTANCE: usize = 16;
/// In a traced run each sender reads `/v1/trace` after this many requests
/// (the recorder keeps the last 64 traces).
const TRACE_POLL_EVERY: usize = 12;

/// What one request is, with the inputs its answer is checked against.
#[derive(Debug, Clone)]
enum Kind {
    /// `POST /v1/query`, IS on a registry model; `repeat` re-sends an
    /// earlier body.
    Query {
        model: &'static str,
        observations: Vec<Sample>,
        seed: u64,
        repeat: bool,
    },
    /// `POST /v1/models` of a generated pair, then its first query.
    Submit {
        pair: Box<admit::Pair>,
        observations: Vec<Sample>,
        seed: u64,
    },
    /// `POST /v1/query` drawing from a stored artifact.
    Warm { artifact: usize, draws: usize },
    /// `POST /v1/fit` with a fresh seed.
    Fit,
    /// `GET /metrics`.
    Metrics,
}

impl Kind {
    /// The HTTP statuses a correct server answers, in order.
    fn statuses(&self) -> &'static [u16] {
        match self {
            Kind::Submit { .. } => &[201, 200],
            Kind::Fit => &[201],
            _ => &[200],
        }
    }
}

#[derive(Debug, Clone)]
struct Req {
    due_s: f64,
    kind: Kind,
    body: String,
}

/// What came back for one request.
#[derive(Debug, Clone, Default)]
struct Outcome {
    statuses: Vec<u16>,
    body: Vec<u8>,
    /// Completion minus due time.
    latency_ms: f64,
    /// Completion minus send time of the request's main call.
    service_ms: f64,
    /// Send time minus due time.
    lag_ms: f64,
    /// The id a submission minted.
    minted: Option<String>,
    error: Option<String>,
}

/// A fitted artifact made during set-up.
#[derive(Debug, Clone)]
struct Fitted {
    model: &'static str,
    observations: Vec<Sample>,
    seed: u64,
    id: String,
}

/// The registry models the cold queries draw from: every IS model whose
/// guide takes no arguments.
fn query_models() -> Vec<ppl_models::Benchmark> {
    ppl_models::all_benchmarks()
        .into_iter()
        .filter(|b| b.expressible && b.inference == ppl_models::InferenceKind::ImportanceSampling)
        .collect()
}

fn obs_json(observations: &[Sample]) -> String {
    let items: Vec<String> = observations
        .iter()
        .map(|o| match o {
            Sample::Real(x) => format!("{x:?}"),
            Sample::Bool(b) => b.to_string(),
            Sample::Nat(n) => format!("{{\"nat\":{n}}}"),
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn query_body(model: &str, observations: &[Sample], seed: u64) -> String {
    format!(
        r#"{{"model":"{model}","observations":{},"method":{{"algorithm":"importance","particles":{QUERY_PARTICLES}}},"seed":{seed}}}"#,
        obs_json(observations)
    )
}

fn fit_body(model: &str, observations: &[Sample], seed: u64) -> String {
    format!(
        r#"{{"model":"{model}","observations":{},"seed":{seed},"fit":{{"iterations":{FIT_ITERATIONS},"samples_per_iteration":{FIT_SAMPLES}}}}}"#,
        obs_json(observations)
    )
}

fn jitter(observations: &[Sample], rng: &mut InputRng) -> Vec<Sample> {
    observations
        .iter()
        .map(|o| match o {
            Sample::Real(x) => Sample::Real(((x + rng.range(-0.2, 0.2)) * 1e4).round() / 1e4),
            other => *other,
        })
        .collect()
}

/// Builds an open-loop schedule: Poisson arrivals at `rate` for `seconds`,
/// 60% cold queries, 25% repeats, 5% submissions, 5% warm draws, 2% fits
/// and 3% metrics reads.
fn schedule(rng: &mut InputRng, rate: f64, seconds: f64, fitted: &[Fitted], tag: &str) -> Vec<Req> {
    let models = query_models();
    let mut reqs: Vec<Req> = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(rate);
        if t >= seconds {
            break;
        }
        let i = reqs.len();
        let roll = rng.unit();
        let cold: Vec<usize> = if (0.60..0.85).contains(&roll) && i > REPEAT_DISTANCE {
            (0..i - REPEAT_DISTANCE)
                .filter(|&j| matches!(reqs[j].kind, Kind::Query { repeat: false, .. }))
                .collect()
        } else {
            Vec::new()
        };
        let (kind, body) = if roll < 0.60 || (roll < 0.85 && cold.is_empty()) {
            let b = &models[rng.below(models.len())];
            let observations = jitter(&b.observations, rng);
            let seed = rng.next_u64() >> 12;
            let body = query_body(b.name, &observations, seed);
            let kind = Kind::Query {
                model: b.name,
                observations,
                seed,
                repeat: false,
            };
            (kind, body)
        } else if roll < 0.85 {
            let j = cold[rng.below(cold.len())];
            let mut kind = reqs[j].kind.clone();
            if let Kind::Query { repeat, .. } = &mut kind {
                *repeat = true;
            }
            (kind, reqs[j].body.clone())
        } else if roll < 0.90 {
            let pair = admit::generate(rng, &format!("{tag}q{i}"), 6, None);
            let observations = (0..pair.observations)
                .map(|_| Sample::Real((rng.range(-2.0, 2.0) * 1e4).round() / 1e4))
                .collect();
            let body = format!(
                r#"{{"name":"gen-{tag}-{i}","model_src":{},"guide_src":{},"model_proc":"{}","guide_proc":"{}"}}"#,
                Json::str(pair.model_src.clone())
                    .write()
                    .expect("strings encode"),
                Json::str(pair.guide_src.clone())
                    .write()
                    .expect("strings encode"),
                pair.model_proc,
                pair.guide_proc
            );
            let seed = rng.next_u64() >> 12;
            (
                Kind::Submit {
                    pair: Box::new(pair),
                    observations,
                    seed,
                },
                body,
            )
        } else if roll < 0.95 {
            let artifact = rng.below(fitted.len());
            let draws = 200 + rng.below(400);
            let f = &fitted[artifact];
            let body = format!(
                r#"{{"model":"{}","artifact":"{}","draw_particles":{draws}}}"#,
                f.model, f.id
            );
            (Kind::Warm { artifact, draws }, body)
        } else if roll < 0.97 {
            let b = ppl_models::benchmark("weight").expect("registered");
            let body = fit_body(
                "weight",
                &jitter(&b.observations, rng),
                rng.next_u64() >> 12,
            );
            (Kind::Fit, body)
        } else {
            (Kind::Metrics, String::new())
        };
        reqs.push(Req {
            due_s: t,
            kind,
            body,
        });
    }
    reqs
}

fn send(
    conn: &mut Option<ClientConn>,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, Vec<u8>), String> {
    if conn.is_none() {
        *conn = Some(ClientConn::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let c = conn.as_mut().expect("connected above");
    match c.send(method, path, body) {
        Ok((status, _, body)) => Ok((status, body)),
        Err(e) => {
            *conn = None;
            Err(format!("{method} {path}: {e}"))
        }
    }
}

fn execute(req: &Req, conn: &mut Option<ClientConn>, addr: SocketAddr, out: &mut Outcome) {
    let result = match &req.kind {
        Kind::Query { .. } | Kind::Warm { .. } => {
            send(conn, addr, "POST", "/v1/query", Some(&req.body))
        }
        Kind::Fit => send(conn, addr, "POST", "/v1/fit", Some(&req.body)),
        Kind::Metrics => send(conn, addr, "GET", "/metrics", None),
        Kind::Submit {
            observations, seed, ..
        } => match send(conn, addr, "POST", "/v1/models", Some(&req.body)) {
            Ok((status, body)) => {
                out.statuses.push(status);
                let id = std::str::from_utf8(&body)
                    .ok()
                    .and_then(|s| Json::parse(s).ok())
                    .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_string));
                match id {
                    Some(id) => {
                        let body = query_body(&id, observations, *seed);
                        out.minted = Some(id);
                        send(conn, addr, "POST", "/v1/query", Some(&body))
                    }
                    None => Err(format!("submission answered {status} without an id")),
                }
            }
            Err(e) => Err(e),
        },
    };
    match result {
        Ok((status, body)) => {
            out.statuses.push(status);
            out.body = body;
        }
        Err(e) => out.error = Some(e),
    }
}

/// Runs `reqs` open-loop over one keep-alive connection, sending each
/// request when it is due or, if the connection is still busy, as soon as
/// it is free. One connection, so two requests never compete for the
/// host's CPUs: with two, the median latency of runs with different seeds
/// spread by a factor of two. With `poll_traces`, it also reads
/// `/v1/trace` periodically and returns the retained traces.
fn run_open_loop(
    reqs: &[Req],
    addr: SocketAddr,
    tracer: &Tracer,
    poll_traces: bool,
) -> (Vec<Outcome>, Vec<Json>, f64) {
    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut traces = Vec::new();
    // One thread per CPU yields in a loop while load runs. They keep every
    // virtual CPU runnable, so a request's wake-up never waits for the
    // hypervisor to reschedule a halted one; they give way to any woken
    // thread at once.
    let done = AtomicBool::new(false);
    let keep_awake = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..keep_awake {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            });
        }
        // Release the keep-awake threads even if a request panics, or the
        // scope would wait for them forever.
        let _release = Release(&done);
        let mut conn: Option<ClientConn> = None;
        for (i, req) in reqs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(req.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let mut out = Outcome::default();
            let sent_at = Instant::now();
            out.lag_ms = sent_at.saturating_duration_since(due).as_secs_f64() * 1e3;
            tracer.span("serve", "request", || {
                execute(req, &mut conn, addr, &mut out)
            });
            let finished = Instant::now();
            out.latency_ms = finished.saturating_duration_since(due).as_secs_f64() * 1e3;
            out.service_ms = (finished - sent_at).as_secs_f64() * 1e3;
            outcomes.push(out);
            if poll_traces && (i + 1).is_multiple_of(TRACE_POLL_EVERY) {
                if let Ok((200, body)) = send(&mut conn, addr, "GET", "/v1/trace", None) {
                    if let Some(list) = std::str::from_utf8(&body)
                        .ok()
                        .and_then(|s| Json::parse(s).ok())
                        .and_then(|doc| {
                            doc.get("traces")
                                .and_then(Json::as_arr)
                                .map(<[Json]>::to_vec)
                        })
                    {
                        traces.extend(list);
                    }
                }
            }
        }
    });
    (outcomes, traces, secs(start))
}

/// Sets its flag when dropped.
struct Release<'a>(&'a AtomicBool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A running server with its store directory.
struct Bench {
    app: Arc<App>,
    server: Server,
    dir: PathBuf,
    fitted: Vec<Fitted>,
}

impl Bench {
    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    Path::new("perfbench/out").join(format!("{name}-{}", std::process::id()))
}

/// Boots the server and fits the warm-draw artifacts (store writes).
fn boot(seed: u64, recorder: bool, rep: usize) -> Result<Bench, String> {
    let dir = scratch_dir(&format!("store{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("store dir: {e}"))?;
    let store = Store::open(&dir, ppl_store::DEFAULT_STORE_CAPACITY)
        .map_err(|e| format!("store: {e:?}"))?;
    let app = App::with_limits(
        Registry::from_benchmarks(),
        CACHE_CAPACITY,
        ppl_inference::DEFAULT_BLOCK,
        Arc::new(store),
        AppLimits::default(),
    );
    app.obs.set_enabled(recorder);
    let config = ServerConfig {
        workers: WORKERS,
        recorder: recorder.then(|| Arc::clone(&app.obs)),
        ..ServerConfig::default()
    };
    let server = Server::bind_with_config("127.0.0.1:0", config, app.handler())
        .map_err(|e| format!("bind: {e}"))?;
    let mut rng = InputRng::new(seed, "serve.fits");
    let mut conn = None;
    let mut fitted = Vec::new();
    for model in ["weight", "weight", "vae", "vae"] {
        let b = ppl_models::benchmark(model).expect("registered");
        let observations = jitter(&b.observations, &mut rng);
        let fit_seed = rng.next_u64() >> 12;
        let (status, body) = send(
            &mut conn,
            server.local_addr(),
            "POST",
            "/v1/fit",
            Some(&fit_body(model, &observations, fit_seed)),
        )?;
        let id = std::str::from_utf8(&body)
            .ok()
            .and_then(|s| Json::parse(s).ok())
            .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_string))
            .filter(|_| status == 201)
            .ok_or_else(|| format!("set-up fit answered {status}"))?;
        fitted.push(Fitted {
            model,
            observations,
            seed: fit_seed,
            id,
        });
    }
    Ok(Bench {
        app,
        server,
        dir,
        fitted,
    })
}

fn param_specs(app: &App, model: &str) -> Vec<ParamSpec> {
    app.registry
        .get(model)
        .expect("registered")
        .guide_param_defaults
        .iter()
        .map(|p| {
            if p.positive {
                ParamSpec::positive(&p.name, p.init)
            } else {
                ParamSpec::unconstrained(&p.name, p.init)
            }
        })
        .collect()
}

/// The in-process `/v1/query` answer for an IS query.
fn expected_query(
    session: &Session,
    id: &str,
    guide_args: Vec<Value>,
    observations: &[Sample],
    seed: u64,
    block: usize,
) -> Result<Vec<u8>, String> {
    let method = Method::Importance {
        particles: QUERY_PARTICLES,
    };
    let posterior = session
        .query()
        .observe(observations.iter().cloned())
        .seed(seed)
        .threads(1)
        .block(block)
        .guide_args(guide_args)
        .run(&method)
        .map_err(|e| e.to_string())?;
    Ok(query_response_json(id, &method, seed, &posterior, 0)
        .write()
        .map_err(|e| e.to_string())?
        .into_bytes())
}

/// Checks every outcome of the timed window; returns per-request failures.
fn verify(bench: &Bench, reqs: &[Req], outcomes: &[Outcome], report: &mut Report) {
    let app = &bench.app;
    let block = app.default_block;
    let mut cache: HashMap<String, Vec<u8>> = HashMap::new();
    for (req, out) in reqs.iter().zip(outcomes) {
        let checked: Result<(), String> = (|| {
            if let Some(e) = &out.error {
                return Err(e.clone());
            }
            let want_status = req.kind.statuses();
            if out.statuses != want_status {
                return Err(format!("statuses {:?}, want {want_status:?}", out.statuses));
            }
            let expected = match &req.kind {
                Kind::Query {
                    model,
                    observations,
                    seed,
                    ..
                } => {
                    if let Some(body) = cache.get(&req.body) {
                        body.clone()
                    } else {
                        let entry = app.registry.get(model).ok_or("model vanished")?;
                        let guide_args = entry
                            .guide_param_defaults
                            .iter()
                            .map(|p| Value::Real(p.init))
                            .collect();
                        let body = expected_query(
                            &entry.session,
                            &entry.id,
                            guide_args,
                            observations,
                            *seed,
                            block,
                        )?;
                        cache.insert(req.body.clone(), body.clone());
                        body
                    }
                }
                Kind::Submit {
                    pair,
                    observations,
                    seed,
                } => {
                    let session = Session::from_sources(
                        &pair.model_src,
                        &pair.model_proc,
                        &pair.guide_src,
                        &pair.guide_proc,
                    )
                    .map_err(|e| e.to_string())?;
                    let id = out.minted.as_deref().ok_or("no minted id")?;
                    expected_query(&session, id, Vec::new(), observations, *seed, block)?
                }
                Kind::Warm { artifact, draws } => {
                    let f = &bench.fitted[*artifact];
                    let entry = app.registry.get(f.model).ok_or("model vanished")?;
                    let method = Method::Vi {
                        params: param_specs(app, f.model),
                        config: ViConfig {
                            iterations: FIT_ITERATIONS,
                            samples_per_iteration: FIT_SAMPLES,
                            ..ViConfig::default()
                        },
                        draw_particles: Some(*draws),
                    };
                    let posterior = entry
                        .session
                        .query()
                        .observe(f.observations.iter().cloned())
                        .seed(f.seed)
                        .threads(1)
                        .block(block)
                        .run(&method)
                        .map_err(|e| e.to_string())?;
                    query_response_json(&entry.id, &method, f.seed, &posterior, 0)
                        .write()
                        .map_err(|e| e.to_string())?
                        .into_bytes()
                }
                Kind::Fit => {
                    return Json::parse(&String::from_utf8_lossy(&out.body))
                        .ok()
                        .and_then(|d| d.get("id").and_then(Json::as_str).map(|_| ()))
                        .ok_or_else(|| "fit response without an id".to_string());
                }
                Kind::Metrics => {
                    return Json::parse(&String::from_utf8_lossy(&out.body))
                        .map(|_| ())
                        .map_err(|e| format!("metrics body: {e:?}"));
                }
            };
            if out.body == expected {
                Ok(())
            } else {
                Err(format!(
                    "body differs from the in-process answer: {} vs {}",
                    String::from_utf8_lossy(&out.body),
                    String::from_utf8_lossy(&expected)
                ))
            }
        })();
        report.check(checked.is_ok(), || {
            format!(
                "{}: {}",
                req.body.chars().take(80).collect::<String>(),
                checked.clone().unwrap_err()
            )
        });
    }
}

/// The median over [`SEGMENTS`] equal segments of the window (by due
/// time) of each segment's latency quantile `q`.
fn segmented(reqs: &[Req], outcomes: &[Outcome], seconds: f64, q: f64) -> f64 {
    let mut segments = vec![Vec::new(); SEGMENTS];
    for (req, out) in reqs.iter().zip(outcomes) {
        let k = ((req.due_s / seconds * SEGMENTS as f64) as usize).min(SEGMENTS - 1);
        segments[k].push(out.latency_ms);
    }
    let per_segment: Vec<f64> = segments.iter().map(|s| quantile(s, q)).collect();
    median(&per_segment)
}

/// Percentiles of the flight recorder's per-phase spans, read from
/// `/v1/trace`, de-duplicated by trace id.
fn phase_metrics(traces: &[Json], report: &mut Report) {
    let mut seen = std::collections::HashSet::new();
    let mut by_phase: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for t in traces {
        let Some(id) = t.get("trace_id").and_then(Json::as_str) else {
            continue;
        };
        if t.get("route").and_then(Json::as_str) == Some("/v1/trace")
            || !seen.insert(id.to_string())
        {
            continue;
        }
        for phase in ppl_obs::PHASES {
            if let Some(ms) = t
                .get("spans_ms")
                .and_then(|s| s.get(phase.as_str()))
                .and_then(Json::as_f64)
            {
                by_phase.entry(phase.as_str()).or_default().push(ms * 1e3);
            }
        }
    }
    for phase in ppl_obs::PHASES {
        let xs = by_phase.get(phase.as_str()).cloned().unwrap_or_default();
        report.put(
            format!("serve.phase.{}.p50_us", phase.as_str()),
            median(&xs),
            "us",
        );
        report.put(
            format!("serve.phase.{}.p99_us", phase.as_str()),
            quantile(&xs, 0.99),
            "us",
        );
    }
    eprintln!("serve: {} distinct traces read from /v1/trace", seen.len());
}

/// Closed-loop passes through the in-process handler with a switch off
/// and on; returns the relative cost of switching it on, in percent.
fn toggle_overhead(seed: u64, set: impl Fn(&App, bool), span: &Tracer) -> f64 {
    let app = App::new(Registry::from_benchmarks(), 0);
    app.obs.set_enabled(false);
    let handler = app.handler();
    let mut rng = InputRng::new(seed, "serve.overhead");
    let models = query_models();
    let bodies: Vec<String> = (0..16)
        .map(|_| {
            let b = &models[rng.below(models.len())];
            query_body(
                b.name,
                &jitter(&b.observations, &mut rng),
                rng.next_u64() >> 12,
            )
        })
        .collect();
    let pass = |on: bool| {
        set(&app, on);
        let (_, s) = timed(|| {
            for body in &bodies {
                let req = Request {
                    method: "POST".into(),
                    path: "/v1/query".into(),
                    query: None,
                    headers: Vec::new(),
                    body: body.as_bytes().to_vec(),
                };
                span.span("serve", "handler", || handler(&req));
            }
        });
        s
    };
    pass(false);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        off.push(pass(false));
        on.push(pass(true));
    }
    set(&app, false);
    (median(&on) / median(&off) - 1.0) * 100.0
}

/// Store and JSON rows: artifact puts into a fresh on-disk store, gets,
/// and JSON decode/encode of the window's response bodies.
fn store_metrics(bench: &Bench, outcomes: &[Outcome], tracer: &Tracer, report: &mut Report) {
    let artifacts = bench.app.store.list();
    let (mut put_us, mut get_us) = (Vec::new(), Vec::new());
    for rep in 0..10 {
        let dir = scratch_dir(&format!("put{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        if std::fs::create_dir_all(&dir).is_err() {
            continue;
        }
        if let Ok(store) = Store::open(&dir, ppl_store::DEFAULT_STORE_CAPACITY) {
            for a in &artifacts {
                let (_, s) = timed(|| tracer.span("store", "put", || store.put((**a).clone())));
                put_us.push(s * 1e6);
                let (_, s) = timed(|| tracer.span("store", "get", || store.get(&a.id)));
                get_us.push(s * 1e6);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    report.put("store.put_us", median(&put_us), "us");
    report.put("store.get_us", median(&get_us), "us");
    let bodies: Vec<String> = outcomes
        .iter()
        .filter(|o| o.body.first() == Some(&b'{'))
        .map(|o| String::from_utf8_lossy(&o.body).into_owned())
        .collect();
    let kb = bodies.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let (docs, decode_s) = timed(|| {
        tracer.span("store", "json_decode", || {
            bodies
                .iter()
                .filter_map(|b| Json::parse(b).ok())
                .collect::<Vec<_>>()
        })
    });
    let (_, encode_s) = timed(|| {
        tracer.span("store", "json_encode", || {
            docs.iter()
                .map(|d| d.write().map(|s| s.len()).unwrap_or(0))
                .sum::<usize>()
        })
    });
    report.put("store.json_decode_us_per_kb", decode_s * 1e6 / kb, "us/KB");
    report.put("store.json_encode_us_per_kb", encode_s * 1e6 / kb, "us/KB");
}

fn kind_ms(reqs: &[Req], outcomes: &[Outcome], pick: impl Fn(&Kind) -> bool) -> Vec<f64> {
    reqs.iter()
        .zip(outcomes)
        .filter(|(r, o)| pick(&r.kind) && o.error.is_none())
        .map(|(_, o)| o.service_ms)
        .collect()
}

/// Runs the workload and returns its report.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let traced = tracer.is_on();
    tracer.set_on(false);
    // Set up several times for a steady `setup_s`; each earlier server is
    // shut down before the next boots, and the last one serves the run.
    let mut setup_times = Vec::new();
    let mut bench: Option<Bench> = None;
    for rep in 0..SETUP_REPS {
        if let Some(b) = bench.take() {
            b.stop();
        }
        let (booted, s) = timed(|| boot(seed, traced, rep));
        setup_times.push(s);
        match booted {
            Ok(b) => bench = Some(b),
            Err(e) => {
                eprintln!("perfbench: serve set-up failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let bench = bench.expect("SETUP_REPS > 0");
    let setup_s = median(&setup_times);
    let mut rng = InputRng::new(seed, "serve.window");
    let reqs = schedule(
        &mut rng,
        OFFERED_RPS,
        seconds,
        &bench.fitted,
        &format!("w{seed}"),
    );
    tracer.set_on(traced);
    let (outcomes, traces, wall_s) =
        run_open_loop(&reqs, bench.server.local_addr(), tracer, traced);
    tracer.set_on(false);
    verify(&bench, &reqs, &outcomes, &mut report);
    eprintln!(
        "serve: {} requests in {wall_s:.2} s at {OFFERED_RPS} offered ({} latency samples beyond p99)",
        reqs.len(),
        reqs.len() / 100
    );

    if traced {
        tracer.set_on(true);
        phase_metrics(&traces, &mut report);
        let shed = outcomes
            .iter()
            .filter(|o| o.statuses.contains(&429))
            .count();
        report.put("serve.cache_hit_ratio", bench.app.cache.hit_rate(), "ratio");
        report.put("serve.shed_ratio", shed as f64 / reqs.len() as f64, "ratio");
        let lags: Vec<f64> = outcomes.iter().map(|o| o.lag_ms).collect();
        report.put("serve.generator_lag_ms_p99", quantile(&lags, 0.99), "ms");
        let handler = bench.app.handler();
        let render: Vec<f64> = (0..200)
            .map(|_| {
                let req = Request {
                    method: "GET".into(),
                    path: "/metrics".into(),
                    query: None,
                    headers: Vec::new(),
                    body: Vec::new(),
                };
                timed(|| handler(&req)).1 * 1e6
            })
            .collect();
        report.put("serve.metrics_render_us", median(&render), "us");
        let submit: Vec<f64> = kind_ms(&reqs, &outcomes, |k| matches!(k, Kind::Submit { .. }));
        report.put("serve.submit_ms_p50", median(&submit), "ms");
        report.put(
            "serve.fit_ms_p50",
            median(&kind_ms(&reqs, &outcomes, |k| matches!(k, Kind::Fit))),
            "ms",
        );
        report.put(
            "serve.warm_draw_ms_p50",
            median(&kind_ms(&reqs, &outcomes, |k| {
                matches!(k, Kind::Warm { .. })
            })),
            "ms",
        );
        store_metrics(&bench, &outcomes, tracer, &mut report);
        let quiet = Tracer::new(false);
        report.put(
            "obs.recorder_overhead_pct",
            toggle_overhead(seed, |app, on| app.obs.set_enabled(on), &quiet),
            "%",
        );
        report.put(
            "obs.bench_tracing_overhead_pct",
            toggle_overhead(seed, |_, on| tracer.set_on(on), tracer),
            "%",
        );
        tracer.set_on(true);
        crate::put_busy(tracer, &mut report);
        bench.stop();
        return report;
    }

    // The ladder: each rung is a fresh schedule at a fixed rate; the
    // highest completion rate reached is the server's capacity, which the
    // top rung, far above it, should reach.
    let mut max_rate_rps = 0.0f64;
    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        let mut rng = InputRng::new(seed ^ (k as u64 + 1), "serve.ladder");
        let rung = schedule(
            &mut rng,
            rate,
            RUNG_SECONDS,
            &bench.fitted,
            &format!("l{seed}r{k}"),
        );
        let (outs, _, rung_s) = run_open_loop(&rung, bench.server.local_addr(), tracer, false);
        // Ladder requests are checked by status only.
        for (req, out) in rung.iter().zip(&outs) {
            let ok = out.error.is_none() && out.statuses == req.kind.statuses();
            report.check(ok, || {
                format!(
                    "ladder {rate} rps: {}",
                    req.body.chars().take(80).collect::<String>()
                )
            });
        }
        let lat: Vec<f64> = outs.iter().map(|o| o.latency_ms).collect();
        let completed = rung.len() as f64 / rung_s;
        eprintln!(
            "serve: ladder {rate:>6} rps offered, {completed:>7.1} completed/s, p50 {:.2} ms, p99 {:.2} ms",
            median(&lat),
            quantile(&lat, 0.99)
        );
        if k + 1 == LADDER_RPS.len() && completed > 0.8 * rate {
            eprintln!("serve: the top rung did not saturate the server; raise LADDER_RPS");
        }
        max_rate_rps = max_rate_rps.max(completed);
    }

    let cold_ms = kind_ms(&reqs, &outcomes, |k| {
        matches!(k, Kind::Query { repeat: false, .. })
    });
    let fit_ms = kind_ms(&reqs, &outcomes, |k| matches!(k, Kind::Fit));
    let probe = crate::infer::engine_probe(seed, tracer, &mut report);
    report.put("setup_s", setup_s, "s");
    // Requests per second the connection was busy: the window's offered
    // rate is fixed, so this is what serving speed moves.
    let busy_s = outcomes.iter().map(|o| o.service_ms).sum::<f64>() / 1e3;
    report.put("ops_per_s", reqs.len() as f64 / busy_s, "1/s");
    report.put(
        "latency_p50_ms",
        segmented(&reqs, &outcomes, seconds, 0.5),
        "ms",
    );
    report.put(
        "latency_p99_ms",
        segmented(&reqs, &outcomes, seconds, 0.99),
        "ms",
    );
    report.put("max_rate_rps", max_rate_rps, "1/s");
    probe.put(&mut report);
    report.put(
        "particles_per_s",
        (cold_ms.len() * QUERY_PARTICLES) as f64 / (cold_ms.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    report.put(
        "vi_iters_per_s",
        (fit_ms.len() * FIT_ITERATIONS) as f64 / (fit_ms.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    bench.stop();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_medians_over_segments() {
        let reqs: Vec<Req> = (0..500)
            .map(|i| Req {
                due_s: i as f64 / 100.0,
                kind: Kind::Metrics,
                body: String::new(),
            })
            .collect();
        // One stall in the first segment only.
        let outcomes: Vec<Outcome> = (0..500)
            .map(|i| Outcome {
                latency_ms: if i < 50 {
                    100.0
                } else {
                    1.0 + (i % 100) as f64 / 100.0
                },
                ..Outcome::default()
            })
            .collect();
        let p99 = segmented(&reqs, &outcomes, 5.0, 0.99);
        assert!(p99 < 2.0, "{p99}");
    }

    #[test]
    fn schedule_follows_the_traffic_mix() {
        let mut rng = InputRng::new(5, "t");
        let fitted = vec![Fitted {
            model: "weight",
            observations: vec![Sample::Real(9.0), Sample::Real(9.0)],
            seed: 1,
            id: "a-0".into(),
        }];
        let reqs = schedule(&mut rng, 1_000.0, 4.0, &fitted, "t");
        let n = reqs.len() as f64;
        assert!((n - 4_000.0).abs() < 300.0, "{n}");
        let share =
            |f: &dyn Fn(&Kind) -> bool| reqs.iter().filter(|r| f(&r.kind)).count() as f64 / n;
        assert!((share(&|k| matches!(k, Kind::Query { repeat: true, .. })) - 0.25).abs() < 0.03);
        assert!((share(&|k| matches!(k, Kind::Metrics)) - 0.03).abs() < 0.01);
    }
}
