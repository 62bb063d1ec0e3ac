//! Guide-type checking for commands (the `TM:*` rules of Fig. 9 / Fig. 12).
//!
//! The rules form a backward, syntax-directed system: starting from the
//! continuation protocols of the consumed and provided channels, checking a
//! command *prepends* the messages it exchanges, yielding the protocols that
//! must hold before the command runs.  Interpreted as a function from
//! continuation types to prefix types, the same rules are the type-inference
//! algorithm of §4.
//!
//! # Cost model
//!
//! Inference is linear in program size.  Each rule does O(1) work beyond
//! checking its embedded expressions and visiting its subcommands:
//!
//! * it prepends its messages onto the continuation protocols, which it
//!   shares rather than copies (see the cost model in [`crate::guide`]);
//!   the channel a command does not touch passes through unchanged;
//! * a `let` enters its binder into the one typing context of the
//!   traversal and restores the shadowed binding afterwards
//!   ([`TypingCtx::bind`], [`TypingCtx::unbind`]) instead of copying the
//!   context.  The public entry points copy the caller's context once.
//!
//! The branch rules compare the two arms' protocols for the channel the
//! branch does not select on; when neither arm touches that channel the
//! two protocols are the same shared tail and compare by pointer.
//!
//! A bound command is walked twice, forward for its value type and then
//! backward for its protocols, so a command inside `k` nested bound
//! commands (`let x <- { let y <- … }`) is visited `k + 1` times.  In
//! straight-line code the bound commands are single `sample`s and `call`s,
//! so the total stays linear; only blocks bound inside bound blocks pay
//! more.

use crate::base::{check_expr, infer_expr, is_subtype, join, TypingCtx};
use crate::error::TypeError;
use crate::guide::GuideType;
use ppl_syntax::ast::{BaseType, Cmd, Dir, Expr, Ident, Proc};
use std::collections::HashMap;

/// The signature of a procedure:
/// `τ̄₁ ⇝ τ₂ | (a : T_a); (b : T_b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcSignature {
    /// Parameter types in order.
    pub params: Vec<BaseType>,
    /// Result type.
    pub ret: BaseType,
    /// The consumed channel and its type operator, if any.
    pub consumes: Option<(Ident, String)>,
    /// The provided channel and its type operator, if any.
    pub provides: Option<(Ident, String)>,
}

impl ProcSignature {
    /// Builds the signature skeleton for a procedure declaration, naming the
    /// fresh type operators after the procedure and channel (e.g.
    /// `T_PcfgGen_latent`).
    pub fn for_proc(p: &Proc) -> Self {
        ProcSignature {
            params: p.params.iter().map(|(_, t)| t.clone()).collect(),
            ret: p.ret_ty.clone(),
            consumes: p.consumes.map(|c| (c, format!("T_{}_{}", p.name, c))),
            provides: p.provides.map(|c| (c, format!("T_{}_{}", p.name, c))),
        }
    }
}

/// The procedure-signature table `Σ`.
pub type Sigma = HashMap<Ident, ProcSignature>;

/// The pair of channel protocols threaded through command checking:
/// the consumed channel `a` and the provided channel `b`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelTypes {
    /// Protocol of the consumed channel (meaningful only if the procedure
    /// declares one).
    pub consumed: GuideType,
    /// Protocol of the provided channel (meaningful only if the procedure
    /// declares one).
    pub provided: GuideType,
}

impl ChannelTypes {
    /// Both channels ended.
    pub fn ended() -> Self {
        ChannelTypes {
            consumed: GuideType::End,
            provided: GuideType::End,
        }
    }
}

/// Checking context for a single procedure body.
#[derive(Debug, Clone)]
pub struct CheckCtx<'a> {
    /// The global signature table.
    pub sigma: &'a Sigma,
    /// The channel consumed by the current procedure, if any.
    pub consumes: Option<Ident>,
    /// The channel provided by the current procedure, if any.
    pub provides: Option<Ident>,
}

/// Which side of the procedure a channel name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Consumed,
    Provided,
}

impl CheckCtx<'_> {
    fn side_of(&self, chan: &Ident) -> Result<Side, TypeError> {
        if self.consumes.as_ref() == Some(chan) {
            Ok(Side::Consumed)
        } else if self.provides.as_ref() == Some(chan) {
            Ok(Side::Provided)
        } else {
            Err(TypeError::new(format!(
                "channel '{chan}' is not declared by this procedure (consumes {:?}, provides {:?})",
                self.consumes.as_ref().map(|c| c.as_str()),
                self.provides.as_ref().map(|c| c.as_str()),
            ))
            .with_code(crate::error::code::CHANNEL_UNDECLARED))
        }
    }
}

/// Computes the base (value) type of a command in a forward pass.
///
/// Base types do not depend on guide types, so this pass supplies the
/// binder types needed by the backward guide-type pass.
///
/// # Errors
///
/// Returns a [`TypeError`] for ill-typed embedded expressions, unknown
/// procedures, or branches whose value types have no join.
pub fn base_type_of_cmd(
    ctx: &CheckCtx<'_>,
    gamma: &TypingCtx,
    cmd: &Cmd,
) -> Result<BaseType, TypeError> {
    base_type_of_cmd_in(ctx, &mut gamma.clone(), cmd)
}

/// [`base_type_of_cmd`] in a caller-owned context: each binder is entered
/// with [`TypingCtx::bind`] and left with [`TypingCtx::unbind`], so no copy
/// of the context is made.  `gamma` is as the caller left it on return,
/// on success and on error alike.
///
/// # Errors
///
/// As [`base_type_of_cmd`].
pub fn base_type_of_cmd_in(
    ctx: &CheckCtx<'_>,
    gamma: &mut TypingCtx,
    cmd: &Cmd,
) -> Result<BaseType, TypeError> {
    match cmd {
        Cmd::Ret(e) => infer_expr(gamma, e),
        Cmd::Bind { var, first, rest } => {
            let t1 = base_type_of_cmd_in(ctx, gamma, first)?;
            let shadowed = gamma.bind(*var, t1);
            let result = base_type_of_cmd_in(ctx, gamma, rest);
            gamma.unbind(*var, shadowed);
            result
        }
        Cmd::Call { proc, args } => {
            let sig = ctx.sigma.get(proc).ok_or_else(|| {
                TypeError::new(format!("unknown procedure '{proc}'"))
                    .with_code(crate::error::code::UNKNOWN_PROC)
            })?;
            if sig.params.len() != args.len() {
                return Err(TypeError::new(format!(
                    "procedure '{proc}' expects {} argument(s), got {}",
                    sig.params.len(),
                    args.len()
                ))
                .with_code(crate::error::code::ARITY));
            }
            for (arg, expected) in args.iter().zip(&sig.params) {
                check_expr(gamma, arg, expected)
                    .map_err(|e| e.context(format!("argument of '{proc}'")))?;
            }
            Ok(sig.ret.clone())
        }
        Cmd::Sample { dist, .. } => match infer_expr(gamma, dist)? {
            BaseType::Dist(carrier) => Ok(*carrier),
            other => Err(TypeError::new(format!(
                "sample requires a distribution expression, found {other}"
            ))
            .with_code(crate::error::code::SAMPLE_NOT_DIST)),
        },
        Cmd::Branch {
            pred,
            then_cmd,
            else_cmd,
            dir,
            ..
        } => {
            if let Some(p) = pred {
                check_expr(gamma, p, &BaseType::Bool)?;
            } else if *dir == Dir::Send {
                return Err(TypeError::new(
                    "a branch in the send direction requires a predicate",
                ));
            }
            let t1 = base_type_of_cmd_in(ctx, gamma, then_cmd)?;
            let t2 = base_type_of_cmd_in(ctx, gamma, else_cmd)?;
            join(&t1, &t2).ok_or_else(|| {
                TypeError::new(format!(
                    "branches return incompatible value types {t1} and {t2}"
                ))
                .with_code(crate::error::code::BRANCH_VALUE_JOIN)
            })
        }
    }
}

/// The result of checking a command: its value type and the channel
/// protocols *before* the command executes.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdTyping {
    /// The command's value type `τ`.
    pub value_ty: BaseType,
    /// Channel protocols before the command.
    pub before: ChannelTypes,
}

/// Backward guide-type checking of a command
/// (`Γ | (a : A); (b : B) ⊢_Σ m ∼ τ | (a : A'); (b : B')` read as a function
/// from `A'`, `B'` to `A`, `B`).
///
/// # Errors
///
/// Returns a [`TypeError`] when the command communicates on an undeclared
/// channel, when the two arms of a branch disagree on the protocol of the
/// non-branching channel, or when embedded expressions are ill-typed.
pub fn check_cmd(
    ctx: &CheckCtx<'_>,
    gamma: &TypingCtx,
    cmd: &Cmd,
    after: &ChannelTypes,
) -> Result<CmdTyping, TypeError> {
    check_cmd_in(ctx, &mut gamma.clone(), cmd, after)
}

/// [`check_cmd`] in a context that binders enter and leave in place; like
/// [`base_type_of_cmd_in`], it returns `gamma` as it found it.
fn check_cmd_in(
    ctx: &CheckCtx<'_>,
    gamma: &mut TypingCtx,
    cmd: &Cmd,
    after: &ChannelTypes,
) -> Result<CmdTyping, TypeError> {
    match cmd {
        Cmd::Ret(e) => {
            let value_ty = infer_expr(gamma, e)?;
            Ok(CmdTyping {
                value_ty,
                before: after.clone(),
            })
        }
        Cmd::Bind { var, first, rest } => {
            // Forward pass for the binder's base type, then backward through
            // `rest` and finally `first`.
            let t1 = base_type_of_cmd_in(ctx, gamma, first)?;
            let shadowed = gamma.bind(*var, t1.clone());
            let rest_typing = check_cmd_in(ctx, gamma, rest, after);
            gamma.unbind(*var, shadowed);
            let rest_typing = rest_typing?;
            let first_typing = check_cmd_in(ctx, gamma, first, &rest_typing.before)?;
            if !is_subtype(&first_typing.value_ty, &t1) && first_typing.value_ty != t1 {
                return Err(TypeError::new(format!(
                    "internal: binder type mismatch {t1} vs {}",
                    first_typing.value_ty
                )));
            }
            Ok(CmdTyping {
                value_ty: rest_typing.value_ty,
                before: first_typing.before,
            })
        }
        Cmd::Call { proc, args } => {
            let sig = ctx.sigma.get(proc).ok_or_else(|| {
                TypeError::new(format!("unknown procedure '{proc}'"))
                    .with_code(crate::error::code::UNKNOWN_PROC)
            })?;
            if sig.params.len() != args.len() {
                return Err(TypeError::new(format!(
                    "procedure '{proc}' expects {} argument(s), got {}",
                    sig.params.len(),
                    args.len()
                ))
                .with_code(crate::error::code::ARITY));
            }
            for (arg, expected) in args.iter().zip(&sig.params) {
                check_expr(gamma, arg, expected)
                    .map_err(|e| e.context(format!("argument of '{proc}'")))?;
            }
            // Channel discipline: a callee may only use the caller's channels
            // in the same roles.
            let mut consumed = after.consumed.clone();
            let mut provided = after.provided.clone();
            if let Some((chan, op)) = &sig.consumes {
                if ctx.consumes.as_ref() != Some(chan) {
                    return Err(TypeError::new(format!(
                        "callee '{proc}' consumes channel '{chan}' which the caller does not consume"
                    ))
                    .with_code(crate::error::code::CHANNEL_FOREIGN));
                }
                consumed = GuideType::app(op.clone(), consumed);
            }
            if let Some((chan, op)) = &sig.provides {
                if ctx.provides.as_ref() != Some(chan) {
                    return Err(TypeError::new(format!(
                        "callee '{proc}' provides channel '{chan}' which the caller does not provide"
                    ))
                    .with_code(crate::error::code::CHANNEL_FOREIGN));
                }
                provided = GuideType::app(op.clone(), provided);
            }
            Ok(CmdTyping {
                value_ty: sig.ret.clone(),
                before: ChannelTypes { consumed, provided },
            })
        }
        Cmd::Sample { dir, chan, dist } => {
            let carrier = match infer_expr(gamma, dist)? {
                BaseType::Dist(c) => *c,
                other => {
                    return Err(TypeError::new(format!(
                        "sample requires a distribution expression, found {other}"
                    ))
                    .with_code(crate::error::code::SAMPLE_NOT_DIST))
                }
            };
            let side = ctx.side_of(chan)?;
            let before = match (side, dir) {
                // (TM:Sample:Recv:L) — consumed channel, provider sends to us.
                (Side::Consumed, Dir::Recv) => ChannelTypes {
                    consumed: GuideType::send_val(carrier.clone(), after.consumed.clone()),
                    provided: after.provided.clone(),
                },
                // (TM:Sample:Send:L) — consumed channel, we (the consumer) send.
                (Side::Consumed, Dir::Send) => ChannelTypes {
                    consumed: GuideType::recv_val(carrier.clone(), after.consumed.clone()),
                    provided: after.provided.clone(),
                },
                // (TM:Sample:Send:R) — provided channel, we (the provider) send.
                (Side::Provided, Dir::Send) => ChannelTypes {
                    consumed: after.consumed.clone(),
                    provided: GuideType::send_val(carrier.clone(), after.provided.clone()),
                },
                // (TM:Sample:Recv:R) — provided channel, the consumer sends.
                (Side::Provided, Dir::Recv) => ChannelTypes {
                    consumed: after.consumed.clone(),
                    provided: GuideType::recv_val(carrier.clone(), after.provided.clone()),
                },
            };
            Ok(CmdTyping {
                value_ty: carrier,
                before,
            })
        }
        Cmd::Branch {
            dir,
            chan,
            pred,
            then_cmd,
            else_cmd,
        } => {
            if let Some(p) = pred {
                check_expr(gamma, p, &BaseType::Bool)?;
            } else if *dir == Dir::Send {
                return Err(TypeError::new(
                    "a branch in the send direction requires a predicate",
                ));
            }
            let then_typing = check_cmd_in(ctx, gamma, then_cmd, after)?;
            let else_typing = check_cmd_in(ctx, gamma, else_cmd, after)?;
            let value_ty = join(&then_typing.value_ty, &else_typing.value_ty).ok_or_else(|| {
                TypeError::new(format!(
                    "branches return incompatible value types {} and {}",
                    then_typing.value_ty, else_typing.value_ty
                ))
                .with_code(crate::error::code::BRANCH_VALUE_JOIN)
            })?;
            let side = ctx.side_of(chan)?;
            let before = match side {
                Side::Consumed => {
                    // The protocol of the *provided* channel must not depend
                    // on this branch.
                    if then_typing.before.provided != else_typing.before.provided {
                        return Err(TypeError::new(format!(
                            "the two branches of the conditional on channel '{chan}' disagree on the protocol of the provided channel: {} vs {}",
                            then_typing.before.provided, else_typing.before.provided
                        ))
                        .with_code(crate::error::code::BRANCH_PROTOCOL));
                    }
                    let consumed = match dir {
                        // (TM:Cond:Recv:L): A₁ ⊕ A₂.
                        Dir::Recv => GuideType::offer(
                            then_typing.before.consumed.clone(),
                            else_typing.before.consumed.clone(),
                        ),
                        // (TM:Cond:Send:L): A₁ & A₂.
                        Dir::Send => GuideType::accept(
                            then_typing.before.consumed.clone(),
                            else_typing.before.consumed.clone(),
                        ),
                    };
                    ChannelTypes {
                        consumed,
                        provided: then_typing.before.provided.clone(),
                    }
                }
                Side::Provided => {
                    if then_typing.before.consumed != else_typing.before.consumed {
                        return Err(TypeError::new(format!(
                            "the two branches of the conditional on channel '{chan}' disagree on the protocol of the consumed channel: {} vs {}",
                            then_typing.before.consumed, else_typing.before.consumed
                        ))
                        .with_code(crate::error::code::BRANCH_PROTOCOL));
                    }
                    let provided = match dir {
                        // (TM:Cond:Send:R): B₁ ⊕ B₂.
                        Dir::Send => GuideType::offer(
                            then_typing.before.provided.clone(),
                            else_typing.before.provided.clone(),
                        ),
                        // (TM:Cond:Recv:R): B₁ & B₂.
                        Dir::Recv => GuideType::accept(
                            then_typing.before.provided.clone(),
                            else_typing.before.provided.clone(),
                        ),
                    };
                    ChannelTypes {
                        consumed: then_typing.before.consumed.clone(),
                        provided,
                    }
                }
            };
            Ok(CmdTyping { value_ty, before })
        }
    }
}

/// Re-exported helper: checks an expression against `Bool` (used by the
/// runtime to validate predicates before joint execution).
pub fn expr_is_boolean(gamma: &TypingCtx, e: &Expr) -> bool {
    check_expr(gamma, e, &BaseType::Bool).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_syntax::parse_program;

    fn fig5_model_src() -> &'static str {
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
        "#
    }

    fn check_single_proc(src: &str) -> Result<CmdTyping, TypeError> {
        let prog = parse_program(src).unwrap();
        let p = &prog.procs[0];
        let mut sigma = Sigma::new();
        for q in &prog.procs {
            sigma.insert(q.name, ProcSignature::for_proc(q));
        }
        let ctx = CheckCtx {
            sigma: &sigma,
            consumes: p.consumes,
            provides: p.provides,
        };
        let gamma = TypingCtx::from_params(&p.params);
        check_cmd(&ctx, &gamma, &p.body, &ChannelTypes::ended())
    }

    #[test]
    fn fig5_model_protocols() {
        let typing = check_single_proc(fig5_model_src()).unwrap();
        // The inferred value type is the most precise one (ℝ+, the Gamma
        // carrier), a subtype of the declared ℝ.
        assert_eq!(typing.value_ty, BaseType::PosReal);
        // latent : ℝ+ ∧ (1 & (ℝ(0,1) ∧ 1))
        let expected_latent = GuideType::send_val(
            BaseType::PosReal,
            GuideType::accept(
                GuideType::End,
                GuideType::send_val(BaseType::UnitInterval, GuideType::End),
            ),
        );
        assert_eq!(typing.before.consumed, expected_latent);
        // obs : ℝ ∧ 1
        assert_eq!(
            typing.before.provided,
            GuideType::send_val(BaseType::Real, GuideType::End)
        );
    }

    #[test]
    fn fig5_guide_protocol_matches_model() {
        let guide = r#"
        proc Guide1() provide latent {
          let v <- sample send latent (Gamma(1.0, 1.0));
          if recv latent {
            return ()
          } else {
            let _ <- sample send latent (Unif);
            return ()
          }
        }
        "#;
        let typing = check_single_proc(guide).unwrap();
        let expected_latent = GuideType::send_val(
            BaseType::PosReal,
            GuideType::accept(
                GuideType::End,
                GuideType::send_val(BaseType::UnitInterval, GuideType::End),
            ),
        );
        assert_eq!(typing.before.provided, expected_latent);
        assert_eq!(typing.before.consumed, GuideType::End);
    }

    #[test]
    fn unsound_guide1_prime_has_different_protocol() {
        // Guide1' from Fig. 3 samples @x from a Poisson (support ℕ).
        let guide = r#"
        proc GuideBad() provide latent {
          let v <- sample send latent (Pois(4.0));
          if recv latent {
            return ()
          } else {
            let _ <- sample send latent (Unif);
            return ()
          }
        }
        "#;
        let typing = check_single_proc(guide).unwrap();
        match &typing.before.provided {
            GuideType::SendVal(t, _) => assert_eq!(*t, BaseType::Nat),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn branch_on_consumed_channel_requires_equal_obs_protocol() {
        // The else-branch observes twice, so the two branches disagree on
        // the provided channel's protocol and checking must fail.
        let src = r#"
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
        "#;
        let err = check_single_proc(src).unwrap_err();
        assert!(err.message.contains("disagree"), "{}", err.message);
    }

    #[test]
    fn sample_on_undeclared_channel_is_rejected() {
        let src = r#"
        proc Model() consume latent {
          let _ <- sample recv other (Unif);
          return ()
        }
        "#;
        let err = check_single_proc(src).unwrap_err();
        assert!(err.message.contains("not declared"), "{}", err.message);
    }

    #[test]
    fn call_threads_type_operator() {
        let src = r#"
        proc Helper() consume latent {
          let _ <- sample recv latent (Unif);
          return ()
        }
        proc Main() consume latent {
          let _ <- call Helper();
          let _ <- sample recv latent (Normal(0.0, 1.0));
          return ()
        }
        "#;
        let prog = parse_program(src).unwrap();
        let mut sigma = Sigma::new();
        for q in &prog.procs {
            sigma.insert(q.name, ProcSignature::for_proc(q));
        }
        let main = prog.proc_named("Main").unwrap();
        let ctx = CheckCtx {
            sigma: &sigma,
            consumes: main.consumes,
            provides: main.provides,
        };
        let typing =
            check_cmd(&ctx, &TypingCtx::new(), &main.body, &ChannelTypes::ended()).unwrap();
        // Expected: T_Helper_latent[ℝ ∧ 1]
        assert_eq!(
            typing.before.consumed,
            GuideType::app(
                "T_Helper_latent",
                GuideType::send_val(BaseType::Real, GuideType::End)
            )
        );
    }

    #[test]
    fn call_argument_arity_and_type_errors() {
        let src = r#"
        proc Helper(p : ureal) consume latent {
          let _ <- sample recv latent (Ber(p));
          return ()
        }
        proc Main() consume latent {
          let _ <- call Helper(2.0);
          return ()
        }
        "#;
        let prog = parse_program(src).unwrap();
        let mut sigma = Sigma::new();
        for q in &prog.procs {
            sigma.insert(q.name, ProcSignature::for_proc(q));
        }
        let main = prog.proc_named("Main").unwrap();
        let ctx = CheckCtx {
            sigma: &sigma,
            consumes: main.consumes,
            provides: main.provides,
        };
        let err =
            check_cmd(&ctx, &TypingCtx::new(), &main.body, &ChannelTypes::ended()).unwrap_err();
        assert!(err.message.contains("argument"), "{}", err.message);
    }

    #[test]
    fn callee_with_foreign_channel_is_rejected() {
        let src = r#"
        proc Helper() consume other {
          let _ <- sample recv other (Unif);
          return ()
        }
        proc Main() consume latent {
          let _ <- call Helper();
          return ()
        }
        "#;
        let prog = parse_program(src).unwrap();
        let mut sigma = Sigma::new();
        for q in &prog.procs {
            sigma.insert(q.name, ProcSignature::for_proc(q));
        }
        let main = prog.proc_named("Main").unwrap();
        let ctx = CheckCtx {
            sigma: &sigma,
            consumes: main.consumes,
            provides: main.provides,
        };
        let err =
            check_cmd(&ctx, &TypingCtx::new(), &main.body, &ChannelTypes::ended()).unwrap_err();
        assert!(err.message.contains("consumes channel"), "{}", err.message);
    }

    #[test]
    fn unknown_procedure_is_reported() {
        let src = r#"
        proc Main() consume latent {
          let _ <- call Nope();
          return ()
        }
        "#;
        let err = check_single_proc(src).unwrap_err();
        assert!(err.message.contains("unknown procedure"), "{}", err.message);
    }

    #[test]
    fn base_type_of_cmd_branches_join() {
        let src = r#"
        proc P() consume latent {
          let u <- sample recv latent (Unif);
          if send latent (u < 0.5) {
            return 0.5
          } else {
            return 2.0
          }
        }
        "#;
        let prog = parse_program(src).unwrap();
        let p = &prog.procs[0];
        let mut sigma = Sigma::new();
        sigma.insert(p.name, ProcSignature::for_proc(p));
        let ctx = CheckCtx {
            sigma: &sigma,
            consumes: p.consumes,
            provides: p.provides,
        };
        let t = base_type_of_cmd(&ctx, &TypingCtx::new(), &p.body).unwrap();
        assert_eq!(t, BaseType::PosReal);
    }

    #[test]
    fn expr_is_boolean_helper() {
        let gamma = TypingCtx::new();
        assert!(expr_is_boolean(
            &gamma,
            &ppl_syntax::parse_expr("1.0 < 2.0").unwrap()
        ));
        assert!(!expr_is_boolean(
            &gamma,
            &ppl_syntax::parse_expr("1.0 + 2.0").unwrap()
        ));
    }
}
