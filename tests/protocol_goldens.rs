//! Goldens for guide-type inference: the exact protocols, compatibility
//! verdicts and first-reported type errors the checker produces.
//!
//! The golden file `tests/protocol_goldens.txt` records, for every
//! expressible registry benchmark and for a set of ill-typed or
//! incompatible fixtures:
//!
//! * every inferred type-operator definition, rendered and sorted by
//!   operator name, plus each procedure's inferred value type;
//! * the [`Compatibility`] of the model–guide pair (both latent protocols,
//!   the observation protocol, and both verdicts);
//! * for programs that fail to check, the error's code, procedure,
//!   position and message.
//!
//! Passing the other tests only shows the checker still *accepts and
//! rejects* the same programs; this file shows it still says exactly the
//! same thing about them, so a change to how inference is computed (for
//! example, how protocol tails or typing contexts are stored) can be
//! proven output-identical.
//!
//! If an *intentional* change to the type system shifts the goldens,
//! regenerate the file with:
//!
//! ```text
//! PPL_UPDATE_GOLDENS=1 cargo test --test protocol_goldens
//! ```

use guide_ppl::types::{check_model_guide, infer_program, TypeEnv, TypeError};
use ppl_models::sources;
use ppl_syntax::parse_program;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/protocol_goldens.txt"
);

/// Model–guide pairs that must be rejected by the compatibility check.
const INCOMPATIBLE_PAIRS: &[(&str, &str, &str, &str, &str)] = &[
    (
        "ex-1 with the Poisson guide of Fig. 3",
        sources::EX1_MODEL,
        "Model",
        sources::EX1_BAD_GUIDE,
        "Guide1Bad",
    ),
    (
        "pcfg with a non-recursive else branch",
        sources::EX2_MODEL,
        "Pcfg",
        r#"
        proc PcfgGuide() provide latent {
          let u <- sample send latent (Unif);
          if recv latent {
            let v <- sample send latent (Normal(0.0, 2.0));
            return ()
          } else {
            let w <- sample send latent (Normal(0.0, 2.0));
            return ()
          }
        }
        "#,
        "PcfgGuide",
    ),
    (
        "guide skips a latent site",
        r#"
        proc M() : real consume latent provide obs {
          let a <- sample recv latent (Normal(0.0, 1.0));
          let b <- sample recv latent (Gamma(2.0, 1.0));
          let _ <- sample send obs (Normal(a, b));
          return a
        }
        "#,
        "M",
        r#"
        proc G() provide latent {
          let a <- sample send latent (Normal(0.0, 2.0));
          return ()
        }
        "#,
        "G",
    ),
    (
        "guide samples a site from another support",
        r#"
        proc M() : real consume latent provide obs {
          let a <- sample recv latent (Normal(0.0, 1.0));
          let b <- sample recv latent (Beta(2.0, 2.0));
          let _ <- sample send obs (Normal(a, b));
          return a
        }
        "#,
        "M",
        r#"
        proc G() provide latent {
          let a <- sample send latent (Normal(0.0, 2.0));
          let b <- sample send latent (Gamma(1.0, 1.0));
          return ()
        }
        "#,
        "G",
    ),
];

/// Single programs, most of them ill-typed.  Several carry more than one
/// defect, so the golden also pins *which* error is reported first.  The
/// scoping fixtures are well-typed and pin that a binder never leaks out
/// of the branch arm or block that introduced it.
const PROGRAMS: &[(&str, &str)] = &[
    (
        "branch arms disagree on the provided channel",
        r#"
        proc Model() consume latent provide obs {
          let v <- sample recv latent (Unif);
          if send latent (v < 0.5) {
            let _ <- sample send obs (Normal(0.0, 1.0));
            return ()
          } else {
            let _ <- sample send obs (Normal(0.0, 1.0));
            let _ <- sample send obs (Normal(0.0, 1.0));
            return ()
          }
        }
        "#,
    ),
    (
        "branch arms disagree on the consumed channel",
        r#"
        proc Model() consume latent provide obs {
          let v <- sample recv latent (Unif);
          if send obs (v < 0.5) {
            let _ <- sample recv latent (Normal(0.0, 1.0));
            return ()
          } else {
            return ()
          }
        }
        "#,
    ),
    (
        "branch arms return values without a join",
        r#"
        proc Model() consume latent {
          let v <- sample recv latent (Unif);
          if send latent (v < 0.5) { return true } else { return 1.0 }
        }
        "#,
    ),
    (
        "sample on an undeclared channel",
        r#"
        proc Model() consume latent {
          let _ <- sample recv other (Unif);
          return ()
        }
        "#,
    ),
    (
        "sample of a non-distribution",
        r#"
        proc Model() consume latent {
          let x <- sample recv latent (1.0);
          return ()
        }
        "#,
    ),
    (
        "unbound variable in a distribution parameter",
        r#"
        proc Model() consume latent {
          let x <- sample recv latent (Normal(y, 1.0));
          return x
        }
        "#,
    ),
    (
        "ill-typed distribution parameter",
        r#"
        proc Model() consume latent {
          let x <- sample recv latent (Ber(2.0));
          return x
        }
        "#,
    ),
    (
        "call argument of the wrong type",
        r#"
        proc Helper(p : ureal) consume latent {
          let _ <- sample recv latent (Ber(p));
          return ()
        }
        proc Main() consume latent {
          let _ <- call Helper(2.0);
          return ()
        }
        "#,
    ),
    (
        "call with the wrong arity",
        r#"
        proc Helper(p : ureal) consume latent {
          let _ <- sample recv latent (Ber(p));
          return ()
        }
        proc Main() consume latent {
          let _ <- call Helper(0.5, 0.5);
          return ()
        }
        "#,
    ),
    (
        "call of an unknown procedure",
        r#"
        proc Main() consume latent {
          let _ <- call Nope();
          return ()
        }
        "#,
    ),
    (
        "callee consumes a foreign channel",
        r#"
        proc Helper() consume other {
          let _ <- sample recv other (Unif);
          return ()
        }
        proc Main() consume latent {
          let _ <- call Helper();
          return ()
        }
        "#,
    ),
    (
        "callee provides a foreign channel",
        r#"
        proc Helper() provide other {
          let _ <- sample send other (Unif);
          return ()
        }
        proc Main() provide latent {
          let _ <- call Helper();
          return ()
        }
        "#,
    ),
    (
        "body value does not match the declared result",
        r#"
        proc P() : bool consume latent {
          let x <- sample recv latent (Unif);
          return x
        }
        "#,
    ),
    (
        "duplicate procedure names",
        "proc P() { return () } proc P() { return () }",
    ),
    (
        "a procedure consumes and provides one channel",
        "proc P() consume c provide c { return () }",
    ),
    (
        "errors in the bound command and in the continuation",
        r#"
        proc Model() consume latent {
          let x <- sample recv latent (Normal(0.0, 1.0));
          let y <- call Missing();
          let z <- sample recv latent (Normal(w, 1.0));
          return z
        }
        "#,
    ),
    (
        "errors in both branch arms",
        r#"
        proc Model() consume latent {
          let u <- sample recv latent (Unif);
          if send latent (u < 0.5) {
            let _ <- sample recv latent (Normal(a, 1.0));
            return ()
          } else {
            let _ <- sample recv latent (Normal(b, 1.0));
            return ()
          }
        }
        "#,
    ),
    (
        "errors in two procedures",
        r#"
        proc First() consume latent {
          let _ <- sample recv latent (Normal(p, 1.0));
          return ()
        }
        proc Second() consume latent {
          let _ <- sample recv latent (Normal(q, 1.0));
          return ()
        }
        "#,
    ),
    (
        "a binder does not leak out of a branch arm",
        r#"
        proc Model() : ureal consume latent provide obs {
          let x <- sample recv latent (Unif);
          let y <- if send latent (x < 0.5) {
            let x <- sample recv latent (Ber(0.5));
            return 1.0
          } else {
            return 2.0
          };
          let _ <- sample send obs (Normal(y, 1.0));
          return x
        }
        "#,
    ),
    (
        "a binder does not leak out of a block",
        r#"
        proc Model() : ureal consume latent provide obs {
          let x <- sample recv latent (Unif);
          let y <- {
            let x <- sample recv latent (Normal(0.0, 1.0));
            let x <- sample recv latent (Gamma(2.0, 1.0));
            return x
          };
          let _ <- sample send obs (Normal(y, 1.0));
          return x
        }
        "#,
    ),
    (
        "a shadowed binder is out of scope after its block",
        r#"
        proc Model() : ureal consume latent {
          let y <- {
            let q <- sample recv latent (Unif);
            return q
          };
          let z <- sample recv latent (Normal(q, 1.0));
          return y
        }
        "#,
    ),
];

fn render_error(out: &mut String, e: &TypeError) {
    let _ = writeln!(out, "  error {}", e.code());
    let _ = writeln!(out, "    in_proc {:?}", e.in_proc);
    let _ = writeln!(out, "    position {:?}", e.position());
    let _ = writeln!(out, "    message {}", e.message);
}

/// Renders an inference result: the sorted operator definitions and the
/// value type of every procedure, sorted by name.
fn render_env(out: &mut String, label: &str, env: &TypeEnv) {
    let _ = writeln!(out, "  {label} defs");
    for line in env.defs.to_string().lines() {
        let _ = writeln!(out, "    {line}");
    }
    let mut values: Vec<String> = env
        .value_types
        .iter()
        .map(|(p, t)| format!("{p} : {t}"))
        .collect();
    values.sort();
    for v in values {
        let _ = writeln!(out, "    value {v}");
    }
}

fn render_program(out: &mut String, label: &str, src: &str) -> Option<TypeEnv> {
    match infer_program(&parse_program(src).expect("fixture parses")) {
        Ok(env) => {
            render_env(out, label, &env);
            Some(env)
        }
        Err(e) => {
            let _ = writeln!(out, "  {label}");
            render_error(out, &e);
            None
        }
    }
}

fn render_pair(
    out: &mut String,
    title: &str,
    (model_src, model_proc): (&str, &str),
    (guide_src, guide_proc): (&str, &str),
) {
    let _ = writeln!(out, "pair {title}");
    let menv = render_program(out, "model", model_src);
    let genv = render_program(out, "guide", guide_src);
    let (Some(menv), Some(genv)) = (menv, genv) else {
        return;
    };
    match check_model_guide(&menv, &model_proc.into(), &genv, &guide_proc.into()) {
        Ok(c) => {
            let _ = writeln!(out, "  model_latent {}", c.model_latent);
            let _ = writeln!(out, "  guide_latent {}", c.guide_latent);
            let obs = c.model_obs.map(|t| t.to_string());
            let _ = writeln!(out, "  model_obs {obs:?}");
            let _ = writeln!(out, "  compatible {}", c.compatible);
            let _ = writeln!(out, "  model_branch_free {}", c.model_branch_free);
        }
        Err(e) => render_error(out, &e),
    }
}

fn report() -> String {
    let mut out = String::new();
    let mut expressible = 0;
    for b in ppl_models::all_benchmarks() {
        if !b.expressible {
            continue;
        }
        expressible += 1;
        render_pair(
            &mut out,
            b.name,
            (b.model_src, b.model_proc),
            (b.guide_src, b.guide_proc),
        );
    }
    assert_eq!(expressible, 20, "the registry's expressible pairs");
    for &(title, model, model_proc, guide, guide_proc) in INCOMPATIBLE_PAIRS {
        render_pair(&mut out, title, (model, model_proc), (guide, guide_proc));
    }
    for &(title, src) in PROGRAMS {
        let _ = writeln!(out, "program {title}");
        render_program(&mut out, "program", src);
    }
    out
}

#[test]
fn inferred_protocols_and_errors_match_the_goldens() {
    let actual = report();
    if std::env::var_os("PPL_UPDATE_GOLDENS").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write the golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH).expect("read the golden file");
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "inference output drifted from {GOLDEN_PATH} at line {}:\n  actual:   {:?}\n  expected: {:?}",
            first + 1,
            actual.lines().nth(first),
            expected.lines().nth(first),
        );
    }
}

#[test]
fn goldens_cover_every_verdict() {
    // The fixtures must keep exercising each outcome the goldens pin.
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("read the golden file");
    for needle in [
        "compatible true",
        "compatible false",
        "error type.branch.protocol",
        "error type.branch.value_join",
        "error type.channel.undeclared",
        "error type.channel.foreign",
        "error type.channel.same",
        "error type.sample.not_dist",
        "error type.unbound_var",
        "error type.unknown_proc",
        "error type.arity",
        "error type.dup_proc",
        "error type.result_mismatch",
    ] {
        assert!(golden.contains(needle), "no golden entry shows {needle:?}");
    }
}
