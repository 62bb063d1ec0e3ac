//! Baseline: a trace-type checker in the spirit of Lew et al. (POPL 2020),
//! *Trace Types and Denotational Semantics for Sound Programmable Inference*.
//!
//! The paper compares its guide-type system against trace types in Table 1:
//! trace types record the exact set (sequence) of sample sites a program
//! draws, which works for straight-line programs, bounded loops, and
//! branches that do not change the set of samples, but cannot express
//! (i) general conditionals that determine which random variables exist and
//! (ii) general recursion.
//!
//! This crate implements that baseline faithfully enough to reproduce the
//! `TP?` column of Table 1: a model is accepted iff a finite trace type can
//! be computed for it under those restrictions.

use ppl_syntax::ast::{BaseType, Cmd, Ident, Proc, Program};
use ppl_types::{base_type_of_cmd_in, CheckCtx, ProcSignature, Sigma, TypeError, TypingCtx};
use std::fmt;

/// One entry of a trace type: a sample site with the carrier type of the
/// value drawn there.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteEntry {
    /// The channel the site communicates on.
    pub channel: String,
    /// The carrier type of the sampled value.
    pub carrier: BaseType,
}

/// A trace type: the exact sequence of sample sites of a program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceType {
    /// The sites in program order.
    pub sites: Vec<SiteEntry>,
}

impl TraceType {
    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if there are no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

impl fmt::Display for TraceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.sites.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{}:{}", s.channel, s.carrier)?;
        }
        write!(f, "}}")
    }
}

/// Why a program is not expressible with trace types.
#[derive(Debug, Clone, PartialEq)]
pub enum Unsupported {
    /// A conditional whose branches draw different sets of samples.
    BranchDependentSupport {
        /// A rendering of the two branch trace types.
        detail: String,
    },
    /// (Mutual) recursion between procedures.
    Recursion {
        /// The procedure at which the cycle was detected.
        proc: String,
    },
    /// The program is ill-typed at the base-type level.
    IllTyped(String),
    /// The feature is outside both systems (e.g. stochastic memoization).
    OutOfScope(String),
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unsupported::BranchDependentSupport { detail } => {
                write!(f, "a conditional determines the set of samples: {detail}")
            }
            Unsupported::Recursion { proc } => {
                write!(
                    f,
                    "general recursion (via '{proc}') is not supported by trace types"
                )
            }
            Unsupported::IllTyped(m) => write!(f, "ill-typed program: {m}"),
            Unsupported::OutOfScope(m) => write!(f, "out of scope: {m}"),
        }
    }
}

/// The verdict of the baseline checker.
pub type TraceTypeResult = Result<TraceType, Unsupported>;

/// Attempts to compute a trace type for a procedure of a program.
pub fn check_proc(program: &Program, entry: &Ident) -> TraceTypeResult {
    let mut sigma = Sigma::new();
    for p in &program.procs {
        sigma.insert(p.name, ProcSignature::for_proc(p));
    }
    let proc = program
        .proc(entry)
        .ok_or_else(|| Unsupported::IllTyped(format!("unknown procedure '{entry}'")))?;
    let mut stack = vec![*entry];
    let mut trace_type = TraceType::default();
    trace_type_of_proc(program, &sigma, proc, &mut stack, &mut trace_type.sites)?;
    Ok(trace_type)
}

/// Appends the sites of a run of `proc` to `sites`.
fn trace_type_of_proc(
    program: &Program,
    sigma: &Sigma,
    proc: &Proc,
    call_stack: &mut Vec<Ident>,
    sites: &mut Vec<SiteEntry>,
) -> Result<(), Unsupported> {
    let ctx = CheckCtx {
        sigma,
        consumes: proc.consumes,
        provides: proc.provides,
    };
    let mut gamma = TypingCtx::from_params(&proc.params);
    trace_type_of_cmd(program, &ctx, &mut gamma, &proc.body, call_stack, sites)
}

/// Appends the sites of `cmd` to `sites` in program order.  Binders enter
/// and leave `gamma` in place, as in guide-type checking, so the walk never
/// copies the typing context or an already computed sequence of sites.
fn trace_type_of_cmd(
    program: &Program,
    ctx: &CheckCtx<'_>,
    gamma: &mut TypingCtx,
    cmd: &Cmd,
    call_stack: &mut Vec<Ident>,
    sites: &mut Vec<SiteEntry>,
) -> Result<(), Unsupported> {
    match cmd {
        Cmd::Ret(_) => Ok(()),
        Cmd::Bind { var, first, rest } => {
            trace_type_of_cmd(program, ctx, gamma, first, call_stack, sites)?;
            let binder_ty = base_type_of_cmd_in(ctx, gamma, first).map_err(ill_typed)?;
            let shadowed = gamma.bind(*var, binder_ty);
            let result = trace_type_of_cmd(program, ctx, gamma, rest, call_stack, sites);
            gamma.unbind(*var, shadowed);
            result
        }
        Cmd::Sample { chan, dist, .. } => {
            let carrier = match ppl_types::infer_expr(gamma, dist).map_err(ill_typed)? {
                BaseType::Dist(c) => *c,
                other => {
                    return Err(Unsupported::IllTyped(format!(
                        "sample at a non-distribution type {other}"
                    )))
                }
            };
            sites.push(SiteEntry {
                channel: chan.to_string(),
                carrier,
            });
            Ok(())
        }
        Cmd::Branch {
            then_cmd, else_cmd, ..
        } => {
            let mut t = TraceType::default();
            trace_type_of_cmd(program, ctx, gamma, then_cmd, call_stack, &mut t.sites)?;
            let mut e = TraceType::default();
            trace_type_of_cmd(program, ctx, gamma, else_cmd, call_stack, &mut e.sites)?;
            if t == e {
                sites.append(&mut t.sites);
                Ok(())
            } else {
                Err(Unsupported::BranchDependentSupport {
                    detail: format!("then-branch {t}, else-branch {e}"),
                })
            }
        }
        Cmd::Call { proc: callee, args } => {
            if call_stack.contains(callee) {
                return Err(Unsupported::Recursion {
                    proc: callee.to_string(),
                });
            }
            let callee_proc = program
                .proc(callee)
                .ok_or_else(|| Unsupported::IllTyped(format!("unknown procedure '{callee}'")))?;
            if callee_proc.params.len() != args.len() {
                return Err(Unsupported::IllTyped(format!(
                    "arity mismatch calling '{callee}'"
                )));
            }
            call_stack.push(*callee);
            let result = trace_type_of_proc(program, ctx.sigma, callee_proc, call_stack, sites);
            call_stack.pop();
            result
        }
    }
}

fn ill_typed(e: TypeError) -> Unsupported {
    Unsupported::IllTyped(e.message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_syntax::parse_program;

    #[test]
    fn straight_line_model_is_accepted() {
        // A Bayesian linear-regression-style straight-line model.
        let prog = parse_program(
            r#"
            proc Lr() consume latent provide obs {
              let slope <- sample recv latent (Normal(0.0, 10.0));
              let intercept <- sample recv latent (Normal(0.0, 10.0));
              let _ <- sample send obs (Normal(slope * 1.0 + intercept, 1.0));
              let _ <- sample send obs (Normal(slope * 2.0 + intercept, 1.0));
              return ()
            }
        "#,
        )
        .unwrap();
        let tt = check_proc(&prog, &"Lr".into()).unwrap();
        assert_eq!(tt.len(), 4);
        assert_eq!(tt.sites[0].channel, "latent");
        assert_eq!(tt.sites[2].channel, "obs");
        assert!(tt.to_string().contains("latent:real"));
    }

    #[test]
    fn support_preserving_branch_is_accepted() {
        let prog = parse_program(
            r#"
            proc P() consume latent provide obs {
              let b <- sample recv latent (Ber(0.5));
              let x <- sample recv latent (Normal(if b then 1.0 else -1.0, 1.0));
              let _ <- sample send obs (Normal(x, 1.0));
              return ()
            }
        "#,
        )
        .unwrap();
        assert!(check_proc(&prog, &"P".into()).is_ok());
    }

    #[test]
    fn support_affecting_branch_is_rejected() {
        // The Fig. 1 model: the else branch draws an extra Beta sample.
        let prog = parse_program(
            r#"
            proc Model() : real consume latent provide obs {
              let v <- sample recv latent (Gamma(2.0, 1.0));
              if send latent (v < 2.0) {
                let _ <- sample send obs (Normal(-1.0, 1.0));
                return v
              } else {
                let m <- sample recv latent (Beta(3.0, 1.0));
                let _ <- sample send obs (Normal(m, 1.0));
                return v
              }
            }
        "#,
        )
        .unwrap();
        match check_proc(&prog, &"Model".into()) {
            Err(Unsupported::BranchDependentSupport { detail }) => {
                assert!(detail.contains("then-branch"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recursion_is_rejected() {
        let prog = parse_program(
            r#"
            proc PcfgGen(k : ureal) : real consume latent {
              let u <- sample recv latent (Unif);
              if send latent (u < k) {
                let v <- sample recv latent (Normal(0.0, 1.0));
                return v
              } else {
                let lhs <- call PcfgGen(k);
                let rhs <- call PcfgGen(k);
                return lhs + rhs
              }
            }
        "#,
        )
        .unwrap();
        match check_proc(&prog, &"PcfgGen".into()) {
            Err(Unsupported::Recursion { proc }) => assert_eq!(proc, "PcfgGen"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_recursive_calls_are_inlined() {
        let prog = parse_program(
            r#"
            proc Main() consume latent provide obs {
              let _ <- call Sub();
              let _ <- call Sub();
              return ()
            }
            proc Sub() consume latent provide obs {
              let x <- sample recv latent (Unif);
              let _ <- sample send obs (Normal(x, 1.0));
              return ()
            }
        "#,
        )
        .unwrap();
        let tt = check_proc(&prog, &"Main".into()).unwrap();
        assert_eq!(tt.len(), 4);
    }

    #[test]
    fn mutual_recursion_is_detected() {
        let prog = parse_program(
            r#"
            proc A() consume latent {
              let _ <- call B();
              return ()
            }
            proc B() consume latent {
              let _ <- call A();
              return ()
            }
        "#,
        )
        .unwrap();
        assert!(matches!(
            check_proc(&prog, &"A".into()),
            Err(Unsupported::Recursion { .. })
        ));
    }

    #[test]
    fn errors_and_display() {
        let prog = parse_program("proc P() { return () }").unwrap();
        assert!(check_proc(&prog, &"Nope".into()).is_err());
        let u = Unsupported::OutOfScope("stochastic memoization".into());
        assert!(u.to_string().contains("out of scope"));
        let r = Unsupported::Recursion { proc: "F".into() };
        assert!(r.to_string().contains("recursion"));
        let b = Unsupported::BranchDependentSupport { detail: "x".into() };
        assert!(b.to_string().contains("conditional"));
        assert!(Unsupported::IllTyped("m".into())
            .to_string()
            .contains("ill-typed"));
        assert!(TraceType::default().is_empty());
    }
}
