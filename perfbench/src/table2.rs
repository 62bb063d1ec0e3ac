//! The paper's Table 2 at its own sizes: per benchmark, CG (guide-type
//! inference plus Pyro code generation), GLOC, GI (inference through the
//! coroutine engine), HLOC, HI (the same algorithm hand-written against
//! the distribution library) and GI/HI, each over repeated samples, plus a
//! z-score of how far the two paths' estimates disagree.

use crate::common::{geomean, median, rel_iqr, timed, Report, Tracer};
use guide_ppl::Session;
use ppl_compiler::Style;
use ppl_dist::rng::Pcg32;
use ppl_dist::special::log_sum_exp;
use ppl_dist::Sample;
use ppl_inference::{ImportanceSampler, ParamSpec, VariationalInference, ViConfig};
use ppl_models::{benchmark, handwritten, handwritten_is, InferenceKind};

/// Importance-sampling particles per GI/HI sample (the paper's size).
pub const IS_PARTICLES: usize = 30_000;
/// VI iterations per GI/HI sample (the paper's size).
pub const VI_ITERATIONS: usize = 150;
/// VI samples per iteration (the paper's size).
pub const VI_SAMPLES: usize = 10;
/// GI/HI samples per benchmark, alternating GI and HI.
pub const SAMPLES: usize = 5;
/// VI ELBO estimates averaged at the end of a fit for the agreement check.
const ELBO_TAIL: usize = 10;

/// One Table 2 row, over [`SAMPLES`] repeated samples.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// CG in milliseconds (median over samples).
    pub cg_ms: f64,
    /// Generated lines of Pyro.
    pub gloc: usize,
    /// Hand-written lines.
    pub hloc: usize,
    /// GI in milliseconds (median).
    pub gi_ms: f64,
    /// HI in milliseconds (median).
    pub hi_ms: f64,
    /// Per-sample GI/HI ratios.
    pub ratios: Vec<f64>,
    /// Median z-score of the two paths' estimates, (GI − HI) / SE.
    pub agreement_z: f64,
}

impl Row {
    /// Median GI/HI.
    pub fn gi_hi(&self) -> f64 {
        self.gi_ms / self.hi_ms
    }
}

/// An estimate with its Monte Carlo standard error.
#[derive(Debug, Clone, Copy)]
struct Estimate {
    mean: f64,
    se: f64,
}

fn z_score(a: Estimate, b: Estimate) -> f64 {
    let se = (a.se * a.se + b.se * b.se).sqrt();
    if se > 0.0 {
        (a.mean - b.mean) / se
    } else {
        0.0
    }
}

/// Self-normalised estimate of the mean of `stats` under `log_weights`,
/// with the ESS-based standard error `sqrt(var / ESS)`.
pub fn weighted_estimate(stats: &[f64], log_weights: &[f64]) -> (f64, f64, f64) {
    let lse = log_sum_exp(log_weights);
    let w: Vec<f64> = log_weights.iter().map(|lw| (lw - lse).exp()).collect();
    let mean: f64 = stats.iter().zip(&w).map(|(s, w)| s * w).sum();
    let var: f64 = stats
        .iter()
        .zip(&w)
        .map(|(s, w)| w * (s - mean) * (s - mean))
        .sum();
    let ess = 1.0 / w.iter().map(|w| w * w).sum::<f64>();
    (mean, (var / ess).sqrt(), ess)
}

fn tail_estimate(trace: &[f64]) -> Estimate {
    let tail = &trace[trace.len().saturating_sub(ELBO_TAIL)..];
    let n = tail.len() as f64;
    let mean = tail.iter().sum::<f64>() / n;
    let var = tail.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0).max(1.0);
    Estimate {
        mean,
        se: (var / n).sqrt(),
    }
}

/// Hand-written self-normalised importance sampling (the HI path).
fn handwritten_importance(
    particle: handwritten::IsParticleFn,
    observations: &[Sample],
    rng: &mut Pcg32,
) -> Estimate {
    let mut stats = Vec::with_capacity(IS_PARTICLES);
    let mut log_weights = Vec::with_capacity(IS_PARTICLES);
    for _ in 0..IS_PARTICLES {
        let (stat, lw) = particle(rng, observations);
        stats.push(stat);
        log_weights.push(lw);
    }
    let (mean, se, _) = weighted_estimate(&stats, &log_weights);
    Estimate { mean, se }
}

/// Hand-written VI with the engine's estimator: REINFORCE with a mean
/// baseline, central finite-difference scores and Adam (the HI path).
/// Returns the ELBO estimate of every iteration.
fn handwritten_vi_fit(
    h: &handwritten::HandwrittenVi,
    observations: &[Sample],
    init: &[f64],
    positive: &[bool],
    config: &ViConfig,
    rng: &mut Pcg32,
) -> Vec<f64> {
    let dim = init.len();
    let mut theta: Vec<f64> = init
        .iter()
        .zip(positive)
        .map(|(&p, &pos)| if pos { p.ln() } else { p })
        .collect();
    let constrain = |theta: &[f64]| -> Vec<f64> {
        theta
            .iter()
            .zip(positive)
            .map(|(&t, &pos)| if pos { t.exp() } else { t })
            .collect()
    };
    let (mut m, mut v) = (vec![0.0; dim], vec![0.0; dim]);
    let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
    let mut trace = Vec::with_capacity(config.iterations);
    for t in 1..=config.iterations {
        let params = constrain(&theta);
        let mut fs = Vec::with_capacity(config.samples_per_iteration);
        let mut latents = Vec::with_capacity(config.samples_per_iteration);
        for _ in 0..config.samples_per_iteration {
            let (z, log_q) = (h.sample_guide)(rng, &params);
            fs.push((h.log_joint)(&z, observations) - log_q);
            latents.push(z);
        }
        let baseline = fs.iter().sum::<f64>() / fs.len() as f64;
        trace.push(baseline);
        let mut grad = vec![0.0; dim];
        for (f, z) in fs.iter().zip(&latents) {
            let advantage = f - baseline;
            if advantage == 0.0 {
                continue;
            }
            for d in 0..dim {
                let mut plus = theta.clone();
                plus[d] += config.fd_epsilon;
                let mut minus = theta.clone();
                minus[d] -= config.fd_epsilon;
                let lp = (h.log_guide)(z, &constrain(&plus));
                let lm = (h.log_guide)(z, &constrain(&minus));
                grad[d] += advantage * (lp - lm) / (2.0 * config.fd_epsilon);
            }
        }
        for i in 0..dim {
            let g = grad[i] / config.samples_per_iteration as f64;
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let m_hat = m[i] / (1.0 - beta1.powi(t as i32));
            let v_hat = v[i] / (1.0 - beta2.powi(t as i32));
            theta[i] += config.learning_rate * m_hat / (v_hat.sqrt() + eps);
        }
    }
    trace
}

fn vi_config() -> ViConfig {
    ViConfig {
        iterations: VI_ITERATIONS,
        samples_per_iteration: VI_SAMPLES,
        ..ViConfig::default()
    }
}

/// Runs every Table 2 row, seeding each GI/HI sample from `seed`.
pub fn rows(seed: u64, tracer: &Tracer) -> Vec<Row> {
    ppl_models::table2_benchmarks()
        .into_iter()
        .map(|(name, kind)| row(name, kind, seed, tracer))
        .collect()
}

fn row(name: &'static str, kind: InferenceKind, seed: u64, tracer: &Tracer) -> Row {
    let b = benchmark(name).expect("Table 2 benchmarks are registered");
    let model = b
        .parsed_model()
        .expect("registry parses")
        .expect("expressible");
    let guide = b
        .parsed_guide()
        .expect("registry parses")
        .expect("expressible");
    let session = Session::from_benchmark(name).expect("Table 2 benchmarks type-check");
    let executor = session.executor(b.observations.clone());
    let spec = session.spec();
    let params: Vec<ParamSpec> = b
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
    let positive: Vec<bool> = b.guide_params.iter().map(|p| p.positive).collect();

    let (mut cg, mut gi, mut hi, mut ratios, mut zs) = (vec![], vec![], vec![], vec![], vec![]);
    let mut gloc = 0;
    let mut hloc = 0;
    for s in 0..SAMPLES {
        let (compiled, cg_s) = timed(|| {
            tracer.span("types", "infer_program", || {
                ppl_types::infer_program(&model).expect("model types");
                ppl_types::infer_program(&guide).expect("guide types");
            });
            tracer.span("compiler", "compile_pair", || {
                ppl_compiler::compile_pair(
                    &model,
                    b.model_proc,
                    &guide,
                    b.guide_proc,
                    Style::Coroutine,
                )
            })
        });
        gloc = compiled.generated_loc;
        cg.push(cg_s * 1e3);
        let sample_seed = seed.wrapping_mul(31).wrapping_add(s as u64);
        let (gi_s, hi_s, z) = match kind {
            InferenceKind::ImportanceSampling => {
                let h = handwritten_is(name).expect("hand-written IS baseline");
                hloc = h.loc;
                let mut rng = Pcg32::seed_from_u64(sample_seed);
                let (result, gi_s) = timed(|| {
                    tracer.span("inference", "table2.gi", || {
                        ImportanceSampler::new(IS_PARTICLES)
                            .run(&executor, &spec, &mut rng)
                            .expect("coroutine IS")
                    })
                });
                let mut rng = Pcg32::seed_from_u64(sample_seed);
                let (hand, hi_s) = timed(|| {
                    tracer.span("models", "table2.hi", || {
                        handwritten_importance(h.particle, &b.observations, &mut rng)
                    })
                });
                let stats: Vec<f64> = result
                    .particles
                    .iter()
                    .map(|p| p.samples[0].as_f64())
                    .collect();
                let lws: Vec<f64> = result.particles.iter().map(|p| p.log_weight).collect();
                let (mean, se, _) = weighted_estimate(&stats, &lws);
                (gi_s, hi_s, z_score(Estimate { mean, se }, hand))
            }
            InferenceKind::VariationalInference => {
                let h = ppl_models::handwritten_vi(name).expect("hand-written VI baseline");
                hloc = h.loc;
                let config = vi_config();
                let mut rng = Pcg32::seed_from_u64(sample_seed);
                let (result, gi_s) = timed(|| {
                    tracer.span("inference", "table2.gi", || {
                        VariationalInference::new(config.clone())
                            .run(&executor, &spec, &params, &mut rng)
                            .expect("coroutine VI")
                    })
                });
                let mut rng = Pcg32::seed_from_u64(sample_seed);
                let (trace, hi_s) = timed(|| {
                    tracer.span("models", "table2.hi", || {
                        handwritten_vi_fit(
                            &h,
                            &b.observations,
                            &b.initial_guide_args(),
                            &positive,
                            &config,
                            &mut rng,
                        )
                    })
                });
                let z = z_score(tail_estimate(&result.elbo_trace), tail_estimate(&trace));
                (gi_s, hi_s, z)
            }
            InferenceKind::Mcmc => unreachable!("Table 2 uses IS and VI only"),
        };
        gi.push(gi_s * 1e3);
        hi.push(hi_s * 1e3);
        ratios.push(gi_s / hi_s);
        zs.push(z);
    }
    Row {
        name,
        cg_ms: median(&cg),
        gloc,
        hloc,
        gi_ms: median(&gi),
        hi_ms: median(&hi),
        ratios,
        agreement_z: median(&zs),
    }
}

/// Geometric mean of the rows' GI/HI ratios.
pub fn gi_hi_geomean(rows: &[Row]) -> f64 {
    geomean(&rows.iter().map(Row::gi_hi).collect::<Vec<_>>())
}

/// Adds the `table2.*` per-layer metrics and prints the table to stderr.
pub fn report(rows: &[Row], report: &mut Report) {
    eprintln!(
        "Table 2 ({IS_PARTICLES} IS particles, {VI_ITERATIONS}x{VI_SAMPLES} VI, {SAMPLES} samples)"
    );
    eprintln!(
        "{:<10} {:>8} {:>5} {:>9} {:>5} {:>9} {:>6} {:>7} {:>7}",
        "model", "CG ms", "GLOC", "GI ms", "HLOC", "HI ms", "GI/HI", "spread", "z"
    );
    for r in rows {
        eprintln!(
            "{:<10} {:>8.3} {:>5} {:>9.2} {:>5} {:>9.2} {:>6.2} {:>7.3} {:>7.2}",
            r.name,
            r.cg_ms,
            r.gloc,
            r.gi_ms,
            r.hloc,
            r.hi_ms,
            r.gi_hi(),
            rel_iqr(&r.ratios),
            r.agreement_z
        );
        let key = |m: &str| format!("table2.{}.{m}", r.name);
        report.put(key("cg_ms"), r.cg_ms, "ms");
        report.put(key("gloc"), r.gloc as f64, "count");
        report.put(key("gi_ms"), r.gi_ms, "ms");
        report.put(key("hloc"), r.hloc as f64, "count");
        report.put(key("hi_ms"), r.hi_ms, "ms");
        report.put(key("gi_hi"), r.gi_hi(), "ratio");
        report.put(key("gi_hi_spread"), rel_iqr(&r.ratios), "ratio");
        report.put(key("agreement_z"), r.agreement_z, "z");
    }
}
