//! The guide-ppl benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload infer|serve|admit --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. The line before it
//! is the run's host fingerprint. See `perfbench/README.md`.

mod admit;
mod common;
mod dist_rows;
mod infer;
mod serve;
mod table2;

use common::{fingerprint, Report, Tracer};
use ppl_store::json::Json;

/// The end-to-end metrics, each measured untraced on every workload.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("max_rate_rps", "1/s"),
    ("particles_per_s", "1/s"),
    ("mh_proposals_per_s", "1/s"),
    ("vi_iters_per_s", "1/s"),
    ("gi_hi_geomean", "ratio"),
];

/// Layers whose busy (self) time the traced run reports as a share.
pub const BUSY_LAYERS: [&str; 9] = [
    "syntax",
    "types",
    "runtime",
    "inference",
    "core",
    "compiler",
    "models",
    "store",
    "serve",
];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    add("syntax.parse_us_per_kb", "us/KB");
    add("types.infer_us.small", "us");
    add("types.infer_us.medium", "us");
    add("types.infer_us.large", "us");
    add("types.check_us", "us");
    add("types.reject_ratio", "ratio");
    add("runtime.compile_us_per_kb", "us/KB");
    add("runtime.block_gain.vectorised", "ratio");
    add("runtime.block_gain.recursive", "ratio");
    add("runtime.lane_splits_per_kparticle", "count");
    add("runtime.lane_reconverges_per_kparticle", "count");
    for (family, _) in dist_rows::families() {
        add(&format!("dist.sample_ns_per_lane.{family}"), "ns");
        add(&format!("dist.log_density_ns_per_lane.{family}"), "ns");
    }
    add("inference.is_ns_per_particle.vectorised", "ns");
    add("inference.is_ns_per_particle.recursive", "ns");
    add("inference.ess_ratio", "ratio");
    add("inference.mh_acceptance", "ratio");
    add("inference.vi_us_per_sample", "us");
    add("inference.vi_joint_execs_per_iter", "count");
    add("inference.joint_execs_per_query", "count");
    add("core.session_build_us", "us");
    add("core.query_build_us", "us");
    add("compiler.pyro_us_per_kb", "us/KB");
    add("compiler.generated_loc", "count");
    add("compiler.cg_ms_p50", "ms");
    for (model, _) in ppl_models::table2_benchmarks() {
        for (m, unit) in [
            ("cg_ms", "ms"),
            ("gloc", "count"),
            ("gi_ms", "ms"),
            ("hloc", "count"),
            ("hi_ms", "ms"),
            ("gi_hi", "ratio"),
            ("gi_hi_spread", "ratio"),
            ("agreement_z", "z"),
        ] {
            add(&format!("table2.{model}.{m}"), unit);
        }
    }
    add("store.put_us", "us");
    add("store.get_us", "us");
    add("store.json_decode_us_per_kb", "us/KB");
    add("store.json_encode_us_per_kb", "us/KB");
    for phase in ppl_obs::PHASES {
        add(&format!("serve.phase.{}.p50_us", phase.as_str()), "us");
        add(&format!("serve.phase.{}.p99_us", phase.as_str()), "us");
    }
    add("serve.cache_hit_ratio", "ratio");
    add("serve.shed_ratio", "ratio");
    add("serve.generator_lag_ms_p99", "ms");
    add("serve.metrics_render_us", "us");
    add("serve.submit_ms_p50", "ms");
    add("serve.fit_ms_p50", "ms");
    add("serve.warm_draw_ms_p50", "ms");
    add("obs.bench_tracing_overhead_pct", "%");
    add("obs.recorder_overhead_pct", "%");
    for layer in BUSY_LAYERS {
        add(&format!("{layer}.busy_pct"), "%");
    }
    v
}

/// Adds `<layer>.busy_pct`: each layer's share of all traced self time.
pub fn put_busy(tracer: &Tracer, report: &mut Report) {
    let busy = tracer.busy_seconds();
    let total: f64 = busy.values().sum();
    for layer in BUSY_LAYERS {
        let s = busy.get(layer).copied().unwrap_or(0.0);
        report.put(
            format!("{layer}.busy_pct"),
            if total > 0.0 { s / total * 100.0 } else { 0.0 },
            "%",
        );
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "infer" => infer::run(args.seed, args.seconds, &tracer),
        "serve" => serve::run(args.seed, args.seconds, &tracer),
        "admit" => admit::run(args.seed, args.seconds, &tracer),
        other => {
            eprintln!("perfbench: unknown workload '{other}' (infer, serve, admit)");
            std::process::exit(2);
        }
    };
    for f in &report.failures {
        eprintln!("perfbench: failed: {f}");
    }
    let attempted = report.attempted.max(1) as f64;
    report.put("ok_ratio", 1.0 - report.failed as f64 / attempted, "ratio");
    report.put("peak_rss_mb", common::peak_rss_mb(), "MiB");
    let mut header = fingerprint();
    if let Json::Obj(fields) = &mut header {
        fields.push(("workload".into(), Json::str(args.workload.clone())));
        fields.push(("seed".into(), Json::Num(args.seed as f64)));
        fields.push(("seconds".into(), Json::Num(args.seconds)));
        fields.push(("trace".into(), Json::Bool(args.trace)));
    }
    if args.trace {
        let names = per_layer();
        let names: Vec<(&str, &'static str)> =
            names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        report.select(&names);
        let path = std::path::Path::new("perfbench/out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_to(&path, &header) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    } else {
        report.select(&END_TO_END);
    }
    println!("{}", header.write().expect("finite fingerprint"));
    println!(
        "{}",
        report
            .to_json()
            .write()
            .expect("metrics are made finite before writing")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }
}
