//! Per-family distribution kernel rows: `sample_batch` and
//! `log_density_batch` in nanoseconds per lane, at the lane count of the
//! default block.

use crate::common::{median, Report};
use ppl_dist::rng::Pcg32;
use ppl_dist::{Distribution, Sample};
use ppl_inference::DEFAULT_BLOCK;
use std::hint::black_box;
use std::time::Instant;

/// Every distribution family the registry's programs use, by its source
/// name, with the parameters the kernel rows run at.
pub fn families() -> Vec<(&'static str, Distribution)> {
    let d = |r: Result<Distribution, ppl_dist::DistError>| r.expect("valid parameters");
    vec![
        ("Normal", d(Distribution::normal(0.0, 1.0))),
        ("Ber", d(Distribution::bernoulli(0.3))),
        ("Gamma", d(Distribution::gamma(2.0, 1.0))),
        ("Beta", d(Distribution::beta(2.0, 3.0))),
        ("Unif", Distribution::uniform()),
        ("Geo", d(Distribution::geometric(0.4))),
        ("Pois", d(Distribution::poisson(4.0))),
        (
            "Cat",
            d(Distribution::categorical(vec![1.0, 1.0, 1.0, 1.0])),
        ),
    ]
}

/// Calls per timed sample, and samples per kernel.
const CALLS: usize = 2_000;
const SAMPLES: usize = 5;

/// Median nanoseconds per lane of `kernel`, over [`SAMPLES`] samples of
/// [`CALLS`] calls each.
fn ns_per_lane(mut kernel: impl FnMut()) -> f64 {
    kernel();
    let per_sample: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                kernel();
            }
            t.elapsed().as_nanos() as f64 / (CALLS * DEFAULT_BLOCK) as f64
        })
        .collect();
    median(&per_sample)
}

/// Adds `dist.sample_ns_per_lane.<family>` and
/// `dist.log_density_ns_per_lane.<family>` for every family.
pub fn report(report: &mut Report) {
    for (name, dist) in families() {
        let mut rngs: Vec<Pcg32> = (0..DEFAULT_BLOCK as u64)
            .map(Pcg32::seed_from_u64)
            .collect();
        let mut out = vec![Sample::Real(0.0); DEFAULT_BLOCK];
        let sample = ns_per_lane(|| dist.sample_batch(black_box(&mut rngs), black_box(&mut out)));
        let xs: Vec<f64> = out.iter().map(Sample::as_f64).collect();
        let mut dens = vec![0.0; DEFAULT_BLOCK];
        let log_density =
            ns_per_lane(|| dist.log_density_batch(black_box(&xs), black_box(&mut dens)));
        report.put(format!("dist.sample_ns_per_lane.{name}"), sample, "ns");
        report.put(
            format!("dist.log_density_ns_per_lane.{name}"),
            log_density,
            "ns",
        );
    }
}
