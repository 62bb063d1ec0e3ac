//! The `infer` workload: in-process, closed loop, one caller, engine
//! threads 1, default block. A seeded shuffle over every expressible
//! registry model runs its paper algorithm through
//! `Session::query()…run()`, then the Table 2 phase runs at the paper's
//! sizes.

use crate::common::{median, quantile, repeated_setup, secs, timed, InputRng, Report, Tracer};
use crate::{dist_rows, table2};
use guide_ppl::{Method, Posterior, PosteriorResult, Session};
use ppl_dist::Sample;
use ppl_inference::{ParamSpec, ViConfig, DEFAULT_BLOCK};
use ppl_models::InferenceKind;
use ppl_semantics::value::Value;
use std::sync::Arc;
use std::time::Instant;

/// IS particles per query.
pub const IS_PARTICLES: usize = 4_000;
/// MH iterations per query.
pub const MH_ITERATIONS: usize = 4_000;
/// VI iterations per query.
pub const VI_ITERATIONS: usize = 100;
/// VI samples per iteration.
pub const VI_SAMPLES: usize = 8;
/// Monte Carlo standard errors a conjugate posterior mean may sit from its
/// closed form before the answer counts as wrong.
const Z_LIMIT: f64 = 5.0;
/// Times the session builds are repeated for `setup_s`: one build takes
/// well under a millisecond, so a median of few builds moves with every
/// scheduler hiccup.
const SETUP_BUILDS: usize = 65;

/// The registry models whose recursion the block planner cannot unroll;
/// they run on the scalar fallback path.
pub const RECURSIVE: [&str; 5] = ["ex-2", "ptrace", "gp-dsl", "geometric", "marsaglia"];

/// One registry model, ready to query.
pub struct Model {
    /// Registry name.
    pub name: &'static str,
    /// The compiled session.
    pub session: Arc<Session>,
    /// The paper's algorithm for it.
    pub kind: InferenceKind,
    /// The registry's observations, the base of each query's inputs.
    pub observations: Vec<Sample>,
    /// Guide arguments for IS and MH.
    pub guide_args: Vec<Value>,
    /// Variational parameters (VI only).
    pub params: Vec<ParamSpec>,
}

impl Model {
    /// Whether the block planner falls back to the scalar path for it.
    pub fn recursive(&self) -> bool {
        RECURSIVE.contains(&self.name)
    }

    /// The method this model runs in the schedule.
    pub fn method(&self) -> Method {
        match self.kind {
            InferenceKind::ImportanceSampling => Method::Importance {
                particles: IS_PARTICLES,
            },
            InferenceKind::Mcmc => Method::Mh {
                iterations: MH_ITERATIONS,
                burn_in: MH_ITERATIONS / 10,
            },
            InferenceKind::VariationalInference => Method::vi(
                self.params.clone(),
                ViConfig {
                    iterations: VI_ITERATIONS,
                    samples_per_iteration: VI_SAMPLES,
                    ..ViConfig::default()
                },
            ),
        }
    }

    /// Observations for one query: the registry's, with reals jittered and
    /// the conjugate models' data drawn afresh.
    pub fn observations_for(&self, rng: &mut InputRng) -> Vec<Sample> {
        match self.name {
            "normal-normal" => vec![Sample::Real(rng.range(-2.0, 2.0))],
            "coin" => (0..4).map(|_| Sample::Bool(rng.chance(0.5))).collect(),
            _ => self
                .observations
                .iter()
                .map(|o| match o {
                    Sample::Real(x) => Sample::Real(x + rng.range(-0.2, 0.2)),
                    other => *other,
                })
                .collect(),
        }
    }
}

/// Per-model set-up timings of one traced set-up pass, in seconds, with
/// the bytes they covered.
#[derive(Debug, Default)]
pub struct SetupLayers {
    parse_s: f64,
    infer_s: Vec<f64>,
    check_s: Vec<f64>,
    compile_s: f64,
    session_s: Vec<f64>,
    pyro_s: f64,
    generated_loc: Vec<f64>,
    bytes: usize,
}

/// Builds every expressible registry model. With `layers`, also times each
/// layer of the pipeline the session runs, call by call.
pub fn build_models(tracer: &Tracer, mut layers: Option<&mut SetupLayers>) -> Vec<Model> {
    ppl_models::all_benchmarks()
        .into_iter()
        .filter(|b| b.expressible)
        .map(|b| {
            if let Some(l) = layers.as_deref_mut() {
                let (programs, s) = timed(|| {
                    tracer.span("syntax", "parse_program", || {
                        (
                            ppl_syntax::parse_program(b.model_src).expect("registry parses"),
                            ppl_syntax::parse_program(b.guide_src).expect("registry parses"),
                        )
                    })
                });
                l.parse_s += s;
                l.bytes += b.model_src.len() + b.guide_src.len();
                let (model, guide) = programs;
                let ((menv, genv), s) = timed(|| {
                    tracer.span("types", "infer_program", || {
                        (
                            ppl_types::infer_program(&model).expect("registry types"),
                            ppl_types::infer_program(&guide).expect("registry types"),
                        )
                    })
                });
                l.infer_s.push(s);
                let (_, s) = timed(|| {
                    tracer.span("types", "check_model_guide", || {
                        ppl_types::check_model_guide(
                            &menv,
                            &b.model_proc.into(),
                            &genv,
                            &b.guide_proc.into(),
                        )
                        .expect("registry pairs are compatible")
                    })
                });
                l.check_s.push(s);
                let (_, s) = timed(|| {
                    tracer.span("runtime", "compile_shared", || {
                        (
                            ppl_runtime::CompiledProgram::compile_shared(&model),
                            ppl_runtime::CompiledProgram::compile_shared(&guide),
                        )
                    })
                });
                l.compile_s += s;
                let (compiled, s) = timed(|| {
                    tracer.span("compiler", "compile_pair", || {
                        ppl_compiler::compile_pair(
                            &model,
                            b.model_proc,
                            &guide,
                            b.guide_proc,
                            ppl_compiler::Style::Coroutine,
                        )
                    })
                });
                l.pyro_s += s;
                l.generated_loc.push(compiled.generated_loc as f64);
                let (_, s) = timed(|| {
                    tracer.span("core", "from_programs", || {
                        Session::from_programs(model, b.model_proc, guide, b.guide_proc)
                            .expect("registry pairs type-check")
                    })
                });
                l.session_s.push(s);
            }
            let session = tracer.span("core", "from_sources", || {
                Session::from_sources(b.model_src, b.model_proc, b.guide_src, b.guide_proc)
                    .expect("registry pairs type-check")
            });
            let guide_args = if b.inference == InferenceKind::Mcmc {
                // The MH proposal guide takes the previous state's flag.
                vec![Value::Bool(false)]
            } else {
                b.guide_params.iter().map(|p| Value::Real(p.init)).collect()
            };
            let params = b
                .guide_params
                .iter()
                .map(|p| {
                    if p.positive {
                        ParamSpec::positive(p.name, p.init)
                    } else {
                        ParamSpec::unconstrained(p.name, p.init)
                    }
                })
                .collect();
            Model {
                name: b.name,
                session: Arc::new(session),
                kind: b.inference,
                observations: b.observations.clone(),
                guide_args,
                params,
            }
        })
        .collect()
}

/// The closed-form posterior (mean, variance) of a conjugate model.
fn closed_form(name: &str, observations: &[Sample]) -> Option<(f64, f64)> {
    match name {
        // x ~ N(0, 1), y ~ N(x, 1): x | y ~ N(y / 2, 1 / 2).
        "normal-normal" => Some((observations[0].as_f64() / 2.0, 0.5)),
        // p ~ Beta(2, 2), k heads in n flips: p | k ~ Beta(2 + k, 2 + n − k).
        "coin" => {
            let heads = observations
                .iter()
                .filter(|o| o.as_bool() == Some(true))
                .count() as f64;
            let (a, b) = (2.0 + heads, 2.0 + observations.len() as f64 - heads);
            Some((a / (a + b), a * b / ((a + b) * (a + b) * (a + b + 1.0))))
        }
        _ => None,
    }
}

/// Checks one answer: it ran, its figures are finite, and a conjugate
/// model's posterior mean lies within [`Z_LIMIT`] ESS-based standard
/// errors of the closed form.
pub fn check_answer(
    model: &Model,
    observations: &[Sample],
    result: &Result<PosteriorResult, guide_ppl::SessionError>,
) -> Result<(), String> {
    let posterior = result
        .as_ref()
        .map_err(|e| format!("{}: {e}", model.name))?;
    let ess = posterior.ess();
    if !(ess.is_finite() && ess > 0.0) {
        return Err(format!("{}: ESS {ess}", model.name));
    }
    if let Some((mean, var)) = closed_form(model.name, observations) {
        let estimate = posterior.mean_of_sample(0).unwrap_or(f64::NAN);
        let z = (estimate - mean) / (var / ess).sqrt();
        if z.is_nan() || z.abs() > Z_LIMIT {
            return Err(format!(
                "{}: posterior mean {estimate} vs closed form {mean} (z = {z:.2}, ESS {ess:.0})",
                model.name
            ));
        }
    }
    Ok(())
}

/// What the timed schedule measured.
#[derive(Debug, Default)]
struct Schedule {
    latencies_ms: Vec<f64>,
    /// Latencies by model index.
    by_model_ms: std::collections::BTreeMap<usize, Vec<f64>>,
    is_particles: f64,
    is_s: f64,
    is_s_vectorised: f64,
    is_particles_vectorised: f64,
    is_s_recursive: f64,
    is_particles_recursive: f64,
    mh_proposals: f64,
    mh_s: f64,
    vi_iterations: f64,
    vi_samples: f64,
    vi_s: f64,
    ess_ratios: Vec<f64>,
    acceptance: Vec<f64>,
    query_build_s: Vec<f64>,
    pass_s: [Vec<f64>; 2],
    joint_execs: u64,
    vi_joint_execs: u64,
    lane_splits: u64,
    lane_reconverges: u64,
    ops: usize,
    wall_s: f64,
}

impl Schedule {
    /// Each model's median latency in milliseconds.
    fn per_model_p50(&self) -> Vec<f64> {
        self.by_model_ms.values().map(|v| median(v)).collect()
    }
}

/// Runs shuffled passes over `models` for `seconds`. In a traced run the
/// tracer alternates off and on by pass, so both pass timings exist.
fn run_schedule(
    models: &[Model],
    seed: u64,
    seconds: f64,
    max_passes: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> Schedule {
    let traced = tracer.is_on();
    let mut rng = InputRng::new(seed, "infer.schedule");
    let mut order: Vec<usize> = (0..models.len()).collect();
    let mut out = Schedule::default();
    let start = Instant::now();
    let mut pass = 0usize;
    while secs(start) < seconds && pass < max_passes {
        rng.shuffle(&mut order);
        let on = traced && pass % 2 == 1;
        tracer.set_on(on);
        let pass_start = Instant::now();
        for &i in &order {
            let m = &models[i];
            let observations = m.observations_for(&mut rng);
            let query_seed = rng.next_u64();
            let method = m.method();
            let splits = ppl_runtime::stats::lane_splits();
            let reconverges = ppl_runtime::stats::lane_reconverges();
            let execs = ppl_inference::counters::joint_executions();
            let op_start = Instant::now();
            let (query, build_s) = timed(|| {
                tracer.span("core", "query_build", || {
                    m.session
                        .query()
                        .observe(observations.clone())
                        .seed(query_seed)
                        .threads(1)
                        .block(DEFAULT_BLOCK)
                        .guide_args(m.guide_args.clone())
                        .build()
                })
            });
            let result = match query {
                Ok(q) => tracer.span("inference", "query_run", || q.run(&method)),
                Err(e) => Err(e.into()),
            };
            let op_s = secs(op_start);
            out.query_build_s.push(build_s);
            out.latencies_ms.push(op_s * 1e3);
            out.by_model_ms.entry(i).or_default().push(op_s * 1e3);
            let exec_delta = ppl_inference::counters::joint_executions() - execs;
            out.joint_execs += exec_delta;
            out.ops += 1;
            let checked = check_answer(m, &observations, &result);
            report.check(checked.is_ok(), || checked.clone().unwrap_err());
            let Ok(posterior) = result else { continue };
            match m.kind {
                InferenceKind::ImportanceSampling => {
                    out.is_particles += IS_PARTICLES as f64;
                    out.is_s += op_s;
                    out.ess_ratios.push(posterior.ess() / IS_PARTICLES as f64);
                    out.lane_splits += ppl_runtime::stats::lane_splits() - splits;
                    out.lane_reconverges += ppl_runtime::stats::lane_reconverges() - reconverges;
                    if m.recursive() {
                        out.is_s_recursive += op_s;
                        out.is_particles_recursive += IS_PARTICLES as f64;
                    } else {
                        out.is_s_vectorised += op_s;
                        out.is_particles_vectorised += IS_PARTICLES as f64;
                    }
                }
                InferenceKind::Mcmc => {
                    out.mh_proposals += MH_ITERATIONS as f64;
                    out.mh_s += op_s;
                    if let Some(r) = posterior.as_mcmc() {
                        out.acceptance.push(r.acceptance_rate);
                    }
                }
                InferenceKind::VariationalInference => {
                    out.vi_iterations += VI_ITERATIONS as f64;
                    out.vi_samples += (VI_ITERATIONS * VI_SAMPLES) as f64;
                    out.vi_s += op_s;
                    out.vi_joint_execs += exec_delta;
                }
            }
            if secs(start) >= seconds {
                break;
            }
        }
        out.pass_s[usize::from(on)].push(secs(pass_start));
        pass += 1;
    }
    tracer.set_on(traced);
    out.wall_s = secs(start);
    out
}

/// Passes over the registry an engine probe runs.
const PROBE_PASSES: usize = 25;

/// The engine figures of a workload whose own traffic runs no such
/// inference, measured by a fixed reference probe after its timed window:
/// [`PROBE_PASSES`] schedule passes and the Table 2 phase.
#[derive(Debug)]
pub struct Probe {
    particles_per_s: f64,
    mh_proposals_per_s: f64,
    vi_iters_per_s: f64,
    gi_hi_geomean: f64,
}

impl Probe {
    /// Adds the probe's end-to-end metrics.
    pub fn put(&self, report: &mut Report) {
        report.put("particles_per_s", self.particles_per_s, "1/s");
        report.put("mh_proposals_per_s", self.mh_proposals_per_s, "1/s");
        report.put("vi_iters_per_s", self.vi_iters_per_s, "1/s");
        report.put("gi_hi_geomean", self.gi_hi_geomean, "ratio");
    }
}

/// Runs the reference engine probe; its answers are checked like the
/// `infer` workload's and counted in `report`.
pub fn engine_probe(seed: u64, tracer: &Tracer, report: &mut Report) -> Probe {
    let models = build_models(tracer, None);
    let s = run_schedule(&models, seed, f64::INFINITY, PROBE_PASSES, tracer, report);
    let rows = table2::rows(seed, tracer);
    Probe {
        particles_per_s: s.is_particles / s.is_s,
        mh_proposals_per_s: s.mh_proposals / s.mh_s,
        vi_iters_per_s: s.vi_iterations / s.vi_s,
        gi_hi_geomean: table2::gi_hi_geomean(&rows),
    }
}

/// IS seconds per particle of `models` at `block`, over `reps` queries each.
fn is_seconds(models: &[&Model], block: usize, reps: usize, seed: u64) -> f64 {
    let mut total = 0.0;
    for m in models {
        for r in 0..reps {
            let (_, s) = timed(|| {
                m.session
                    .query()
                    .observe(m.observations.clone())
                    .seed(seed ^ r as u64)
                    .threads(1)
                    .block(block)
                    .guide_args(m.guide_args.clone())
                    .run(&Method::Importance {
                        particles: IS_PARTICLES,
                    })
                    .expect("registry IS runs")
            });
            total += s;
        }
    }
    total
}

/// Runs the workload and returns its report.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let traced = tracer.is_on();
    tracer.set_on(false);
    let (models, setup_s) = repeated_setup(SETUP_BUILDS, |_| build_models(tracer, None));
    let mut layers = SetupLayers::default();
    if traced {
        tracer.set_on(true);
        build_models(tracer, Some(&mut layers));
    }
    let s = run_schedule(&models, seed, seconds, usize::MAX, tracer, &mut report);
    let rows = table2::rows(seed, tracer);

    let lat = &s.latencies_ms;
    report.put("setup_s", setup_s, "s");
    report.put("ops_per_s", s.ops as f64 / s.wall_s, "1/s");
    // Each model runs once a pass, so the pooled median would sit on the
    // jump between two models' latencies; the median of per-model medians
    // weighs every model equally and does not.
    report.put("latency_p50_ms", median(&s.per_model_p50()), "ms");
    report.put("latency_p99_ms", quantile(lat, 0.99), "ms");
    report.put("max_rate_rps", s.ops as f64 / s.wall_s, "1/s");
    report.put("particles_per_s", s.is_particles / s.is_s, "1/s");
    report.put("mh_proposals_per_s", s.mh_proposals / s.mh_s, "1/s");
    report.put("vi_iters_per_s", s.vi_iterations / s.vi_s, "1/s");
    report.put("gi_hi_geomean", table2::gi_hi_geomean(&rows), "ratio");
    eprintln!(
        "infer: {} ops in {:.2} s ({} latency samples beyond p99)",
        s.ops,
        s.wall_s,
        lat.len() / 100
    );

    if traced {
        tracer.set_on(true);
        let kb = layers.bytes as f64 / 1024.0;
        report.put("syntax.parse_us_per_kb", layers.parse_s * 1e6 / kb, "us/KB");
        report.put("types.infer_us.small", median(&layers.infer_s) * 1e6, "us");
        report.put("types.check_us", median(&layers.check_s) * 1e6, "us");
        report.put("types.reject_ratio", 0.0, "ratio");
        report.put(
            "runtime.compile_us_per_kb",
            layers.compile_s * 1e6 / kb,
            "us/KB",
        );
        report.put("compiler.pyro_us_per_kb", layers.pyro_s * 1e6 / kb, "us/KB");
        report.put(
            "compiler.generated_loc",
            median(&layers.generated_loc),
            "count",
        );
        report.put(
            "core.session_build_us",
            median(&layers.session_s) * 1e6,
            "us",
        );
        report.put("core.query_build_us", median(&s.query_build_s) * 1e6, "us");

        let vectorised: Vec<&Model> = models
            .iter()
            .filter(|m| m.kind == InferenceKind::ImportanceSampling && !m.recursive())
            .collect();
        let recursive: Vec<&Model> = models.iter().filter(|m| m.recursive()).collect();
        let gain = |set: &[&Model]| {
            let one = is_seconds(set, 1, 2, seed);
            let default = is_seconds(set, DEFAULT_BLOCK, 2, seed);
            one / default
        };
        report.put("runtime.block_gain.vectorised", gain(&vectorised), "ratio");
        report.put("runtime.block_gain.recursive", gain(&recursive), "ratio");
        let kparticles = s.is_particles / 1e3;
        report.put(
            "runtime.lane_splits_per_kparticle",
            s.lane_splits as f64 / kparticles,
            "count",
        );
        report.put(
            "runtime.lane_reconverges_per_kparticle",
            s.lane_reconverges as f64 / kparticles,
            "count",
        );
        report.put(
            "inference.is_ns_per_particle.vectorised",
            s.is_s_vectorised * 1e9 / s.is_particles_vectorised,
            "ns",
        );
        report.put(
            "inference.is_ns_per_particle.recursive",
            s.is_s_recursive * 1e9 / s.is_particles_recursive,
            "ns",
        );
        report.put("inference.ess_ratio", median(&s.ess_ratios), "ratio");
        report.put(
            "inference.mh_acceptance",
            s.acceptance.iter().sum::<f64>() / s.acceptance.len().max(1) as f64,
            "ratio",
        );
        report.put(
            "inference.vi_us_per_sample",
            s.vi_s * 1e6 / s.vi_samples,
            "us",
        );
        report.put(
            "inference.vi_joint_execs_per_iter",
            s.vi_joint_execs as f64 / s.vi_iterations,
            "count",
        );
        report.put(
            "inference.joint_execs_per_query",
            s.joint_execs as f64 / s.ops as f64,
            "count",
        );
        dist_rows::report(&mut report);
        table2::report(&rows, &mut report);
        let overhead = median(&s.pass_s[1]) / median(&s.pass_s[0]) - 1.0;
        report.put("obs.bench_tracing_overhead_pct", overhead * 100.0, "%");
        crate::put_busy(tracer, &mut report);
    }
    report
}
