//! The `admit` workload: in-process, closed loop, one caller, no
//! inference. A seeded generator builds model/guide pairs whose verdict is
//! known by construction; each goes through `Session::from_sources`, and
//! accepted pairs through `compile_pair` (Pyro).

use crate::common::{
    median, quantile, repeated_setup, secs, timed, InputRng, Report, Tracer, SETUP_REPS,
};
use guide_ppl::{Session, SessionError};
use ppl_compiler::Style;
use ppl_types::types_error_code as code;
use std::fmt::Write as _;
use std::time::Instant;

/// Smallest and largest number of latent sites in a generated model.
pub const MIN_SITES: usize = 5;
/// See [`MIN_SITES`].
pub const MAX_SITES: usize = 500;
/// Share of pairs made incompatible or ill-typed on purpose.
pub const DEFECT_SHARE: f64 = 0.2;
/// Pairs generated per set-up; the timed loop cycles through them.
pub const CORPUS: usize = 3_000;
/// Pairs in each warm-up pass timed as `setup_s`.
const WARMUP_PAIRS: usize = 48;

/// A defect planted in a generated pair, each with one known error code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// A guide site samples from a family of another support.
    WrongSupport,
    /// The guide skips one of the model's latent sites.
    MissingSite,
    /// A model expression names a variable that is never bound.
    UnboundVar,
    /// The guide calls a procedure that does not exist.
    UnknownProc,
    /// The model calls a chunk procedure with one argument too many.
    Arity,
    /// A statement separator is missing from the guide.
    Syntax,
}

const DEFECTS: [Defect; 6] = [
    Defect::WrongSupport,
    Defect::MissingSite,
    Defect::UnboundVar,
    Defect::UnknownProc,
    Defect::Arity,
    Defect::Syntax,
];

impl Defect {
    /// The error code the pipeline must report for this defect.
    pub fn code(self) -> &'static str {
        match self {
            Defect::WrongSupport | Defect::MissingSite => code::GUIDE_MISMATCH,
            Defect::UnboundVar => code::UNBOUND_VAR,
            Defect::UnknownProc => code::UNKNOWN_PROC,
            Defect::Arity => code::ARITY,
            Defect::Syntax => ppl_syntax::parser::code::UNEXPECTED_TOKEN,
        }
    }
}

/// A generated model/guide pair and its known verdict.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Model source.
    pub model_src: String,
    /// Model entry procedure.
    pub model_proc: String,
    /// Guide source.
    pub guide_src: String,
    /// Guide entry procedure.
    pub guide_proc: String,
    /// Latent sites in the model source.
    pub sites: usize,
    /// Observations the model sends.
    pub observations: usize,
    /// The planted defect; `None` means the pair must be accepted.
    pub defect: Option<Defect>,
}

impl Pair {
    /// The expected error code, or `None` when the pair must be accepted.
    pub fn expected_code(&self) -> Option<&'static str> {
        self.defect.map(Defect::code)
    }

    /// Source bytes of both programs.
    pub fn bytes(&self) -> usize {
        self.model_src.len() + self.guide_src.len()
    }
}

/// One latent site: the model's and the guide's distribution.
#[derive(Debug, Clone, Copy)]
enum Site {
    Normal,
    Gamma,
    Beta,
    Ber,
}

impl Site {
    fn pick(rng: &mut InputRng) -> Site {
        match rng.below(8) {
            0..=3 => Site::Normal,
            4 => Site::Gamma,
            5 => Site::Beta,
            _ => Site::Ber,
        }
    }

    fn model(self, mean: &str) -> String {
        match self {
            Site::Normal => format!("Normal({mean} * 0.5, 1.0)"),
            Site::Gamma => "Gamma(2.0, 1.0)".into(),
            Site::Beta => "Beta(2.0, 2.0)".into(),
            Site::Ber => "Ber(0.5)".into(),
        }
    }

    fn guide(self, rng: &mut InputRng) -> String {
        match self {
            Site::Normal => format!("Normal({:.2}, 2.0)", rng.range(-1.0, 1.0)),
            Site::Gamma => "Gamma(1.5, 1.0)".into(),
            Site::Beta if rng.chance(0.5) => "Unif".into(),
            Site::Beta => "Beta(1.0, 1.0)".into(),
            Site::Ber => format!("Ber({:.2})", rng.range(0.2, 0.8)),
        }
    }

    /// A guide distribution of another support than this site's.
    fn wrong(self) -> &'static str {
        match self {
            Site::Normal => "Gamma(1.5, 1.0)",
            _ => "Normal(0.0, 1.0)",
        }
    }
}

/// Generates a pair with `sites` latent sites (at least [`MIN_SITES`]),
/// its identifiers suffixed with `tag`, carrying `defect`.
pub fn generate(rng: &mut InputRng, tag: &str, sites: usize, defect: Option<Defect>) -> Pair {
    let sites = sites.max(MIN_SITES);
    // Fixed sites: the first latent, the tail branch arms' sites and the
    // recursive procedure's one site.
    let depth = rng.below(3);
    let fixed = 1 + depth + 1;
    // One chunk procedure per 200 sites shares the remaining sites, so
    // every pair keeps long straight-line bodies.
    let left = sites - fixed;
    let parts = (1 + sites / 200).min(left);
    let mut chunks: Vec<Vec<Site>> = (0..parts)
        .map(|p| {
            let n = left / parts + usize::from(p < left % parts);
            (0..n).map(|_| Site::pick(rng)).collect()
        })
        .collect();
    // Where a defect lands. An unbound variable needs a site whose
    // distribution reads one.
    let target_chunk = rng.below(chunks.len());
    let target_site = rng.below(chunks[target_chunk].len());
    if defect == Some(Defect::UnboundVar) {
        chunks[target_chunk][target_site] = Site::Normal;
    }

    let mut m = String::new();
    let mut g = String::new();
    let model_proc = format!("M{tag}");
    let guide_proc = format!("G{tag}");

    // The chunk procedures: straight-line latent sites threading a real.
    for (j, chunk) in chunks.iter().enumerate() {
        let _ = writeln!(m, "proc C{j}{tag}(x{tag} : real) : real consume latent {{");
        let _ = writeln!(g, "proc D{j}{tag}() provide latent {{");
        let mut last_real = format!("x{tag}");
        for (k, &site) in chunk.iter().enumerate() {
            let var = format!("v{k}{tag}");
            let mean =
                if defect == Some(Defect::UnboundVar) && j == target_chunk && k == target_site {
                    format!("u{tag}")
                } else {
                    last_real.clone()
                };
            let _ = writeln!(
                m,
                "  let {var} <- sample recv latent ({});",
                site.model(&mean)
            );
            if matches!(site, Site::Normal) {
                last_real = var.clone();
            }
            let at_target = j == target_chunk && k == target_site;
            if at_target && defect == Some(Defect::MissingSite) {
                continue;
            }
            let dist = if at_target && defect == Some(Defect::WrongSupport) {
                site.wrong().to_string()
            } else {
                site.guide(rng)
            };
            let sep = if at_target && defect == Some(Defect::Syntax) {
                ""
            } else {
                ";"
            };
            let _ = writeln!(g, "  let {var} <- sample send latent ({dist}){sep}");
        }
        let _ = writeln!(m, "  return {last_real}\n}}");
        let _ = writeln!(g, "  return ()\n}}");
    }

    // The recursive procedure: a geometric counter.
    let _ = writeln!(
        m,
        "proc R{tag}(p{tag} : ureal) : real consume latent {{
  let u{tag} <- sample recv latent (Unif);
  if send latent (u{tag} < p{tag}) {{
    return 0.0
  }} else {{
    let r{tag} <- call R{tag}(p{tag});
    return r{tag} + 1.0
  }}
}}"
    );
    let _ = writeln!(
        g,
        "proc S{tag}() provide latent {{
  let u{tag} <- sample send latent (Unif);
  if recv latent {{
    return ()
  }} else {{
    let _ <- call S{tag}();
    return ()
  }}
}}"
    );

    // The entry procedures: the chunks in sequence, one observation after
    // each, then a tail of nested branches ending in the recursion.
    let _ = writeln!(
        m,
        "proc {model_proc}() : real consume latent provide obs {{
  let x0{tag} <- sample recv latent (Normal(0.0, 1.0));"
    );
    let _ = writeln!(
        g,
        "proc {guide_proc}() provide latent {{
  let x0{tag} <- sample send latent (Normal(0.0, 1.5));"
    );
    for j in 0..chunks.len() {
        let extra = if defect == Some(Defect::Arity) && j == target_chunk {
            ", 1.0"
        } else {
            ""
        };
        let callee = if defect == Some(Defect::UnknownProc) && j == target_chunk {
            format!("Z{j}{tag}")
        } else {
            format!("D{j}{tag}")
        };
        let _ = writeln!(
            m,
            "  let x{}{tag} <- call C{j}{tag}(x{j}{tag}{extra});\n  let _ <- sample send obs (Normal(x{}{tag}, 1.0));",
            j + 1,
            j + 1
        );
        let _ = writeln!(g, "  let _ <- call {callee}();");
    }
    let last = format!("x{}{tag}", chunks.len());
    let mut model_tail = format!("let r{tag} <- call R{tag}(0.5);\n  return {last} + r{tag}");
    let mut guide_tail = format!("let _ <- call S{tag}();\n  return ()");
    for level in (0..depth).rev() {
        let threshold = level as f64 + 0.5;
        model_tail = format!(
            "if send latent ({last} < {threshold:.1}) {{
  let w{level}{tag} <- sample recv latent (Gamma(2.0, 1.0));
  return {last}
  }} else {{
  {model_tail}
  }}"
        );
        guide_tail = format!(
            "if recv latent {{
  let w{level}{tag} <- sample send latent (Gamma(1.0, 1.0));
  return ()
  }} else {{
  {guide_tail}
  }}"
        );
    }
    let _ = writeln!(m, "  {model_tail}\n}}");
    let _ = writeln!(g, "  {guide_tail}\n}}");

    Pair {
        model_src: m,
        model_proc,
        guide_src: g,
        guide_proc,
        sites,
        observations: chunks.len(),
        defect,
    }
}

/// A corpus of `n` pairs. Sizes are log-uniform over
/// [`MIN_SITES`]..=[`MAX_SITES`], stratified so every seed spans the range
/// evenly; every fifth pair ([`DEFECT_SHARE`]) carries a defect, the kinds
/// taken in turn, so every seed's corpus has the same make-up.
pub fn corpus(seed: u64, n: usize) -> Vec<Pair> {
    let mut rng = InputRng::new(seed, "admit.corpus");
    let span = (MAX_SITES as f64 / MIN_SITES as f64).ln();
    let every = (1.0 / DEFECT_SHARE).round() as usize;
    let mut pairs: Vec<Pair> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.unit()) / n as f64;
            let sites = (MIN_SITES as f64 * (u * span).exp()).round() as usize;
            let defect = (i % every == 0).then(|| DEFECTS[(i / every) % DEFECTS.len()]);
            generate(&mut rng, &format!("s{seed}n{i}"), sites, defect)
        })
        .collect();
    rng.shuffle(&mut pairs);
    pairs
}

/// The size class of a pair for the `types.infer_us.*` rows.
fn size_class(sites: usize) -> usize {
    match sites {
        0..=20 => 0,
        21..=100 => 1,
        _ => 2,
    }
}

/// Admits one pair untraced: `Session::from_sources`, then `compile_pair`
/// when accepted. Returns the verdict.
fn admit(pair: &Pair) -> Result<(), &'static str> {
    let session = Session::from_sources(
        &pair.model_src,
        &pair.model_proc,
        &pair.guide_src,
        &pair.guide_proc,
    )
    .map_err(|e| e.code())?;
    std::hint::black_box(session.compile_to_pyro(Style::Coroutine).generated_loc);
    Ok(())
}

/// Per-layer timings of the traced admission path, which calls each
/// layer's public function in the order `Session::from_sources` does.
#[derive(Debug, Default)]
struct Layers {
    parse_s: f64,
    bytes: f64,
    infer_us: [Vec<f64>; 3],
    check_us: Vec<f64>,
    compile_s: f64,
    compile_bytes: f64,
    pyro_s: f64,
    pyro_bytes: f64,
    generated_loc: Vec<f64>,
    /// Table 2's CG per accepted pair: guide-type inference plus Pyro
    /// codegen, in milliseconds.
    cg_ms: Vec<f64>,
    session_us: Vec<f64>,
}

fn admit_traced(pair: &Pair, tracer: &Tracer, l: &mut Layers) -> Result<(), &'static str> {
    let bytes = pair.bytes() as f64;
    let (parsed, s) = timed(|| {
        tracer.span("syntax", "parse_program", || {
            ppl_syntax::parse_program(&pair.model_src)
                .and_then(|m| ppl_syntax::parse_program(&pair.guide_src).map(|g| (m, g)))
        })
    });
    l.parse_s += s;
    l.bytes += bytes;
    let (model, guide) = parsed.map_err(|e| e.code())?;
    let (envs, s) = timed(|| {
        tracer.span("types", "infer_program", || {
            ppl_types::infer_program(&model)
                .and_then(|m| ppl_types::infer_program(&guide).map(|g| (m, g)))
        })
    });
    l.infer_us[size_class(pair.sites)].push(s * 1e6);
    let infer_s = s;
    let (menv, genv) = envs.map_err(|e| e.code())?;
    let (compat, s) = timed(|| {
        tracer.span("types", "check_model_guide", || {
            ppl_types::check_model_guide(
                &menv,
                &pair.model_proc.as_str().into(),
                &genv,
                &pair.guide_proc.as_str().into(),
            )
        })
    });
    l.check_us.push(s * 1e6);
    let compat = compat.map_err(|e| e.code())?;
    if !compat.compatible {
        return Err(code::GUIDE_MISMATCH);
    }
    let (_, s) = timed(|| {
        tracer.span("runtime", "compile_shared", || {
            (
                ppl_runtime::CompiledProgram::compile_shared(&model),
                ppl_runtime::CompiledProgram::compile_shared(&guide),
            )
        })
    });
    l.compile_s += s;
    l.compile_bytes += bytes;
    let (compiled, s) = timed(|| {
        tracer.span("compiler", "compile_pair", || {
            ppl_compiler::compile_pair(
                &model,
                &pair.model_proc,
                &guide,
                &pair.guide_proc,
                Style::Coroutine,
            )
        })
    });
    l.pyro_s += s;
    l.pyro_bytes += bytes;
    l.generated_loc.push(compiled.generated_loc as f64);
    l.cg_ms.push((infer_s + s) * 1e3);
    let (session, s) = timed(|| {
        tracer.span("core", "from_programs", || {
            Session::from_programs(model, &pair.model_proc, guide, &pair.guide_proc)
        })
    });
    l.session_us.push(s * 1e6);
    session.map(|_| ()).map_err(|e: SessionError| e.code())
}

fn verdict_ok(pair: &Pair, verdict: Result<(), &'static str>) -> Result<(), String> {
    match (pair.expected_code(), verdict) {
        (None, Ok(())) => Ok(()),
        (Some(want), Err(got)) if want == got => Ok(()),
        (want, got) => Err(format!(
            "pair {} ({} sites, {:?}): expected {:?}, got {:?}",
            pair.model_proc, pair.sites, pair.defect, want, got
        )),
    }
}

/// Runs the workload and returns its report.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let pairs = corpus(seed, CORPUS);
    // Set-up is a warm-up admission pass. Its pairs are fixed, so set-up
    // times compare across seeds, and fresh in each repetition, so every
    // pass interns new identifiers as the first pass of a server would.
    let warmups: Vec<Vec<Pair>> = (0..SETUP_REPS)
        .map(|rep| corpus(u64::MAX - rep as u64, WARMUP_PAIRS))
        .collect();
    let (verdicts, setup_s) = repeated_setup(SETUP_REPS, |rep| {
        warmups[rep]
            .iter()
            .map(|pair| (pair, admit(pair)))
            .collect::<Vec<_>>()
    });
    for (pair, verdict) in verdicts {
        let checked = verdict_ok(pair, verdict);
        report.check(checked.is_ok(), || checked.clone().unwrap_err());
    }
    let traced = tracer.is_on();
    let mut latencies_ms = Vec::new();
    let mut layers = Layers::default();
    let mut rejected = 0usize;
    let mut pass_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut ops = 0usize;
    // In a traced run, passes of 50 pairs alternate untraced and traced,
    // so the tracer's overhead can be measured on equal work.
    'outer: for (batch, chunk) in pairs.chunks(50).cycle().enumerate() {
        let on = traced && batch % 2 == 1;
        tracer.set_on(on);
        let batch_start = Instant::now();
        for pair in chunk {
            let op_start = Instant::now();
            let verdict = if traced {
                admit_traced(pair, tracer, &mut layers)
            } else {
                admit(pair)
            };
            latencies_ms.push(secs(op_start) * 1e3);
            ops += 1;
            rejected += usize::from(verdict.is_err());
            let checked = verdict_ok(pair, verdict);
            report.check(checked.is_ok(), || checked.clone().unwrap_err());
            if secs(start) >= seconds {
                break 'outer;
            }
        }
        pass_s[usize::from(on)].push(secs(batch_start));
    }
    let wall_s = secs(start);
    eprintln!(
        "admit: {ops} pairs in {wall_s:.2} s ({} latency samples beyond p99)",
        ops / 100
    );
    if traced {
        tracer.set_on(true);
        let us_per_kb = |s: f64, bytes: f64| s * 1e6 / (bytes / 1024.0);
        report.put(
            "syntax.parse_us_per_kb",
            us_per_kb(layers.parse_s, layers.bytes),
            "us/KB",
        );
        for (class, name) in ["small", "medium", "large"].iter().enumerate() {
            report.put(
                format!("types.infer_us.{name}"),
                median(&layers.infer_us[class]),
                "us",
            );
        }
        report.put("types.check_us", median(&layers.check_us), "us");
        report.put("types.reject_ratio", rejected as f64 / ops as f64, "ratio");
        report.put(
            "runtime.compile_us_per_kb",
            us_per_kb(layers.compile_s, layers.compile_bytes),
            "us/KB",
        );
        report.put(
            "compiler.pyro_us_per_kb",
            us_per_kb(layers.pyro_s, layers.pyro_bytes),
            "us/KB",
        );
        report.put(
            "compiler.generated_loc",
            median(&layers.generated_loc),
            "count",
        );
        report.put("compiler.cg_ms_p50", median(&layers.cg_ms), "ms");
        report.put("core.session_build_us", median(&layers.session_us), "us");
        // Batches hold different pairs, so compare mean batch times: over
        // the run both halves see the whole corpus.
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let overhead = mean(&pass_s[1]) / mean(&pass_s[0]) - 1.0;
        report.put("obs.bench_tracing_overhead_pct", overhead * 100.0, "%");
        crate::put_busy(tracer, &mut report);
    } else {
        // The corpus is done with; free it before the engine probe runs.
        drop(pairs);
        let probe = crate::infer::engine_probe(seed, tracer, &mut report);
        report.put("setup_s", setup_s, "s");
        report.put("ops_per_s", ops as f64 / wall_s, "1/s");
        report.put("latency_p50_ms", median(&latencies_ms), "ms");
        report.put("latency_p99_ms", quantile(&latencies_ms, 0.99), "ms");
        report.put("max_rate_rps", ops as f64 / wall_s, "1/s");
        probe.put(&mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator's known verdicts match the real pipeline, on the
    /// untraced and the traced (layer-by-layer) paths alike.
    #[test]
    fn generated_verdicts_match_the_pipeline() {
        let pairs = corpus(7, 60);
        assert!(pairs.iter().any(|p| p.defect.is_none()));
        let tracer = Tracer::new(false);
        for pair in &pairs {
            let verdict = admit(pair);
            verdict_ok(pair, verdict).unwrap_or_else(|e| panic!("{e}\n{}", pair.model_src));
            let traced = admit_traced(pair, &tracer, &mut Layers::default());
            verdict_ok(pair, traced).unwrap();
        }
    }

    /// Every defect kind yields its own code on a small and a large pair.
    #[test]
    fn every_defect_is_detected_with_its_code() {
        let mut rng = InputRng::new(3, "test");
        for (i, defect) in DEFECTS.iter().enumerate() {
            for sites in [MIN_SITES, 120] {
                let pair = generate(&mut rng, &format!("t{i}x{sites}"), sites, Some(*defect));
                let verdict = admit(&pair);
                assert_eq!(
                    verdict,
                    Err(defect.code()),
                    "{defect:?}\n{}",
                    pair.guide_src
                );
            }
        }
    }

    /// Sizes span the whole range and the defect share is near its target.
    #[test]
    fn corpus_spans_sizes_and_defects() {
        let pairs = corpus(11, 400);
        let sites: Vec<usize> = pairs.iter().map(|p| p.sites).collect();
        assert!(sites.iter().any(|&s| s <= 8));
        assert!(sites.iter().any(|&s| s >= 400));
        let defects = pairs.iter().filter(|p| p.defect.is_some()).count() as f64;
        assert!((defects / 400.0 - DEFECT_SHARE).abs() < 0.01);
    }
}
