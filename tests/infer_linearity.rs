//! Guide-type inference does work linear in program size.
//!
//! Each typing rule prepends O(1) messages to protocol tails it shares
//! with its continuation, and the typing context is extended and restored
//! in place, so inferring a straight-line model of `n` latent sites
//! performs O(n) heap allocations.  An implementation that copies the
//! continuation protocol or the context at every binder performs O(n²).
//!
//! The test counts the allocations of `infer_program` on generated models
//! of 500 and 2 000 sites with the same per-thread counting allocator
//! `tests/alloc_budget.rs` uses.  Four times the sites must cost at most
//! 4.5 times the allocations; quadratic work would cost sixteen times.
//! Allocation counts are exact and repeatable, so the bound is not
//! sensitive to machine load the way a timing bound would be.

use guide_ppl::syntax::{parse_program, Program};
use guide_ppl::types::infer_program;
use ppl_bench::alloc_track::{thread_allocations, CountingAlloc};
use std::fmt::Write as _;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A straight-line model: `sites` latent draws, each observed once.
fn straight_line_model(sites: usize) -> Program {
    let mut src = String::from("proc Model() : real consume latent provide obs {\n");
    src.push_str("  let x0 <- sample recv latent (Normal(0.0, 1.0));\n");
    for i in 1..sites {
        let _ = writeln!(
            src,
            "  let x{i} <- sample recv latent (Normal(x{} * 0.5, 1.0));\n  let _ <- sample send obs (Normal(x{i}, 1.0));",
            i - 1
        );
    }
    let _ = writeln!(src, "  return x{}\n}}", sites - 1);
    parse_program(&src).expect("generated model parses")
}

/// Allocations `infer_program` performs on this thread for the model.
fn inference_allocations(program: &Program) -> u64 {
    let before = thread_allocations();
    let env = infer_program(program).expect("generated model is well-typed");
    let allocs = thread_allocations() - before;
    drop(env);
    allocs
}

#[test]
fn inference_allocations_grow_linearly_with_sites() {
    // The checker recurses once per binder; give the deep right-nested
    // `let` chains a stack to match.
    let (small, large) = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let small = straight_line_model(500);
            let large = straight_line_model(2_000);
            let small_allocs = inference_allocations(&small);
            // Exact repeatability is what lets the bound be tight.
            assert_eq!(inference_allocations(&small), small_allocs);
            (small_allocs, inference_allocations(&large))
        })
        .expect("spawn the measuring thread")
        .join()
        .expect("measuring thread");
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= 4.5,
        "inference allocations grew {ratio:.2}x for 4x the sites \
         ({small} at 500 sites, {large} at 2000): expected linear growth"
    );
}
