//! Well-typed guidance traces: the judgment `σ : A` (Fig. 13, `TT:*` rules)
//! and a generator of random well-typed traces used by the property tests
//! for the type-safety theorems (Thms. 4.4–4.6).

use crate::trace::{Message, Trace};
use ppl_dist::rng::Pcg32;
use ppl_dist::Sample;
use ppl_syntax::ast::BaseType;
use ppl_types::guide::{GuideType, TypeDefs};

/// Well-typedness of a sample payload at a scalar base type.
pub fn sample_has_type(s: &Sample, ty: &BaseType) -> bool {
    match (s, ty) {
        (Sample::Bool(_), BaseType::Bool) => true,
        (Sample::Real(r), BaseType::UnitInterval) => *r > 0.0 && *r < 1.0,
        (Sample::Real(r), BaseType::PosReal) => *r > 0.0 && r.is_finite(),
        (Sample::Real(r), BaseType::Real) => r.is_finite(),
        (Sample::Nat(n), BaseType::FinNat(m)) => (*n as usize) < *m,
        (Sample::Nat(_), BaseType::Nat) => true,
        _ => false,
    }
}

/// Checks the judgment `σ : A` against the given type definitions.
///
/// Closed guide types only (free type variables make the judgment false).
pub fn trace_has_type(defs: &TypeDefs, trace: &Trace, ty: &GuideType) -> bool {
    matches(defs, trace.messages(), ty)
        .map(|rest| rest.is_empty())
        .unwrap_or(false)
}

/// Attempts to consume a prefix of `msgs` according to `ty`, returning the
/// remaining suffix on success.
fn matches<'m>(defs: &TypeDefs, msgs: &'m [Message], ty: &GuideType) -> Option<&'m [Message]> {
    match ty {
        GuideType::End => Some(msgs),
        GuideType::Var(_) => None,
        GuideType::SendVal(t, rest) => match msgs.split_first() {
            Some((Message::ValP(v), tail)) if sample_has_type(v, t) => matches(defs, tail, rest),
            _ => None,
        },
        GuideType::RecvVal(t, rest) => match msgs.split_first() {
            Some((Message::ValC(v), tail)) if sample_has_type(v, t) => matches(defs, tail, rest),
            _ => None,
        },
        GuideType::Offer(a, b) => match msgs.split_first() {
            Some((Message::DirP(sel), tail)) => matches(defs, tail, if *sel { a } else { b }),
            _ => None,
        },
        GuideType::Accept(a, b) => match msgs.split_first() {
            Some((Message::DirC(sel), tail)) => matches(defs, tail, if *sel { a } else { b }),
            _ => None,
        },
        GuideType::App(op, arg) => match msgs.split_first() {
            Some((Message::Fold, tail)) => {
                let body = defs.unfold(op, arg)?;
                matches(defs, tail, &body)
            }
            _ => None,
        },
    }
}

/// Configuration for the random-trace generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Probability of taking the *then* branch at each choice point; keeping
    /// this below one half biases recursive protocols towards termination
    /// when their recursive case sits in the else branch, and vice versa.
    pub then_probability: f64,
    /// Hard cap on the number of generated messages, to keep property tests
    /// finite even for adversarial recursive protocols.
    pub max_messages: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            then_probability: 0.6,
            max_messages: 10_000,
        }
    }
}

/// Generates a random trace `σ` with `σ : A`.
///
/// Returns `None` if the budget of [`GeneratorConfig::max_messages`] is
/// exhausted before the protocol ends (possible for recursive protocols
/// with unlucky branch choices) or if the type has free variables /
/// undefined operators.
pub fn generate_trace(
    defs: &TypeDefs,
    ty: &GuideType,
    rng: &mut Pcg32,
    config: &GeneratorConfig,
) -> Option<Trace> {
    let mut messages = Vec::new();
    let mut stack = vec![ty.clone()];
    while let Some(current) = stack.pop() {
        if messages.len() > config.max_messages {
            return None;
        }
        match current {
            GuideType::End => {}
            GuideType::Var(_) => return None,
            GuideType::SendVal(t, rest) => {
                messages.push(Message::ValP(random_sample(&t, rng)?));
                stack.push(GuideType::clone(&rest));
            }
            GuideType::RecvVal(t, rest) => {
                messages.push(Message::ValC(random_sample(&t, rng)?));
                stack.push(GuideType::clone(&rest));
            }
            GuideType::Offer(a, b) => {
                let sel = rng.next_f64() < config.then_probability;
                messages.push(Message::DirP(sel));
                stack.push(GuideType::clone(if sel { &a } else { &b }));
            }
            GuideType::Accept(a, b) => {
                let sel = rng.next_f64() < config.then_probability;
                messages.push(Message::DirC(sel));
                stack.push(GuideType::clone(if sel { &a } else { &b }));
            }
            GuideType::App(op, arg) => {
                messages.push(Message::Fold);
                stack.push(defs.unfold(&op, &arg)?);
            }
        }
    }
    Some(Trace::from_messages(messages))
}

fn random_sample(ty: &BaseType, rng: &mut Pcg32) -> Option<Sample> {
    let s = match ty {
        BaseType::Bool => Sample::Bool(rng.next_f64() < 0.5),
        BaseType::UnitInterval => Sample::Real(rng.next_open01()),
        BaseType::PosReal => Sample::Real(-rng.next_open01().ln() + 1e-12),
        BaseType::Real => {
            // A crude standard normal via the central limit theorem is fine
            // for generation purposes.
            let sum: f64 = (0..12).map(|_| rng.next_f64()).sum();
            Sample::Real(sum - 6.0)
        }
        BaseType::FinNat(n) => Sample::Nat(rng.next_below(*n as u64)),
        BaseType::Nat => Sample::Nat(rng.next_below(20)),
        _ => return None,
    };
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_types::guide::TypeDef;

    fn fig5_latent() -> GuideType {
        GuideType::send_val(
            BaseType::PosReal,
            GuideType::accept(
                GuideType::End,
                GuideType::send_val(BaseType::UnitInterval, GuideType::End),
            ),
        )
    }

    #[test]
    fn trace_typing_accepts_both_branches() {
        let defs = TypeDefs::new();
        let then_trace =
            Trace::from_messages(vec![Message::ValP(Sample::Real(1.0)), Message::DirC(true)]);
        let else_trace = Trace::from_messages(vec![
            Message::ValP(Sample::Real(3.0)),
            Message::DirC(false),
            Message::ValP(Sample::Real(0.9)),
        ]);
        assert!(trace_has_type(&defs, &then_trace, &fig5_latent()));
        assert!(trace_has_type(&defs, &else_trace, &fig5_latent()));
    }

    #[test]
    fn trace_typing_rejects_bad_traces() {
        let defs = TypeDefs::new();
        let ty = fig5_latent();
        // Value outside ℝ+.
        let bad_value =
            Trace::from_messages(vec![Message::ValP(Sample::Real(-1.0)), Message::DirC(true)]);
        // Missing the ℝ(0,1) sample in the else branch.
        let missing =
            Trace::from_messages(vec![Message::ValP(Sample::Real(3.0)), Message::DirC(false)]);
        // Extra trailing message.
        let extra = Trace::from_messages(vec![
            Message::ValP(Sample::Real(1.0)),
            Message::DirC(true),
            Message::Fold,
        ]);
        // Wrong message kind (provider direction instead of consumer).
        let wrong_dir =
            Trace::from_messages(vec![Message::ValP(Sample::Real(1.0)), Message::DirP(true)]);
        for t in [bad_value, missing, extra, wrong_dir] {
            assert!(!trace_has_type(&defs, &t, &ty), "{t}");
        }
    }

    #[test]
    fn trace_typing_handles_recursion_through_fold() {
        let mut defs = TypeDefs::new();
        defs.insert(TypeDef {
            name: "R".into(),
            param: "X".into(),
            body: GuideType::send_val(
                BaseType::UnitInterval,
                GuideType::accept(
                    GuideType::Var("X".into()),
                    GuideType::app("R", GuideType::Var("X".into())),
                ),
            ),
        });
        let ty = GuideType::app("R", GuideType::End);
        let t = Trace::from_messages(vec![
            Message::Fold,
            Message::ValP(Sample::Real(0.9)),
            Message::DirC(false),
            Message::Fold,
            Message::ValP(Sample::Real(0.1)),
            Message::DirC(true),
        ]);
        assert!(trace_has_type(&defs, &t, &ty));
        let missing_fold =
            Trace::from_messages(vec![Message::ValP(Sample::Real(0.9)), Message::DirC(true)]);
        assert!(!trace_has_type(&defs, &missing_fold, &ty));
    }

    #[test]
    fn generated_traces_are_well_typed() {
        let mut defs = TypeDefs::new();
        defs.insert(TypeDef {
            name: "R".into(),
            param: "X".into(),
            body: GuideType::send_val(
                BaseType::UnitInterval,
                GuideType::accept(
                    GuideType::send_val(BaseType::Real, GuideType::Var("X".into())),
                    GuideType::app("R", GuideType::app("R", GuideType::Var("X".into()))),
                ),
            ),
        });
        let tys = vec![
            fig5_latent(),
            GuideType::send_val(BaseType::Real, GuideType::End),
            GuideType::app("R", GuideType::End),
            GuideType::offer(
                GuideType::send_val(BaseType::Nat, GuideType::End),
                GuideType::send_val(BaseType::FinNat(3), GuideType::End),
            ),
            GuideType::recv_val(BaseType::Bool, GuideType::End),
        ];
        let mut rng = Pcg32::seed_from_u64(99);
        let config = GeneratorConfig::default();
        for ty in tys {
            for _ in 0..50 {
                if let Some(t) = generate_trace(&defs, &ty, &mut rng, &config) {
                    assert!(trace_has_type(&defs, &t, &ty), "{t} : {ty}");
                }
            }
        }
    }

    #[test]
    fn generator_fails_gracefully_on_open_types() {
        let defs = TypeDefs::new();
        let mut rng = Pcg32::seed_from_u64(1);
        assert!(generate_trace(
            &defs,
            &GuideType::Var("X".into()),
            &mut rng,
            &GeneratorConfig::default()
        )
        .is_none());
        assert!(generate_trace(
            &defs,
            &GuideType::app("Undefined", GuideType::End),
            &mut rng,
            &GeneratorConfig::default()
        )
        .is_none());
    }

    #[test]
    fn sample_typing() {
        assert!(sample_has_type(&Sample::Real(0.5), &BaseType::UnitInterval));
        assert!(!sample_has_type(
            &Sample::Real(1.5),
            &BaseType::UnitInterval
        ));
        assert!(sample_has_type(&Sample::Nat(2), &BaseType::FinNat(3)));
        assert!(!sample_has_type(&Sample::Bool(true), &BaseType::Real));
        assert!(!sample_has_type(&Sample::Real(1.0), &BaseType::Unit));
    }
}
