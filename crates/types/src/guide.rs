//! Guide types (§4 of the paper): protocol types for the guidance channels
//! between the model and guide coroutines.
//!
//! Grammar (paper notation on the left):
//!
//! ```text
//! A, B ::= X            type variable                 GuideType::Var
//!        | 1            ended channel                 GuideType::End
//!        | T[A]         type-operator instantiation   GuideType::App
//!        | τ ∧ A        provider sends a τ sample     GuideType::SendVal
//!        | τ ⊃ A        consumer sends a τ sample     GuideType::RecvVal
//!        | A ⊕ B        provider sends a selection    GuideType::Offer
//!        | A & B        consumer sends a selection    GuideType::Accept
//! ```
//!
//! A type definition `typedef(T. X. A)` declares a unary type operator; a
//! collection of definitions [`TypeDefs`] accompanies every program.
//!
//! # Cost model
//!
//! A guide type's children are reference-counted ([`Arc`]), so a protocol
//! shares its tail with every protocol built on top of it.  Prepending a
//! message (`τ ∧ A`, `A ⊕ B`, `T[A]`, …) allocates one node per child and
//! copies no part of `A` or `B`; cloning a type copies only its root node.
//! The backward checker builds every protocol by prepending onto its
//! continuation, so inference allocates linearly in program size.
//! Equality compares shared children by pointer first, so two protocols
//! that share a tail compare in time proportional to the prefixes in front
//! of it.  The children are [`Arc`] rather than `Rc` because inferred
//! environments are shared across server threads.

use ppl_syntax::ast::BaseType;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A guide type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GuideType {
    /// `1` — the ended channel.
    End,
    /// A type variable (continuation parameter of a type operator).
    Var(String),
    /// `T[A]` — instantiation of the type operator `T` at `A`.
    App(String, Arc<GuideType>),
    /// `τ ∧ A` — the channel's *provider* sends a sample of type `τ` and the
    /// protocol continues as `A`.
    SendVal(BaseType, Arc<GuideType>),
    /// `τ ⊃ A` — the channel's *consumer* sends a sample of type `τ` (dual of
    /// `∧`; included for completeness, cf. Remark 4.1).
    RecvVal(BaseType, Arc<GuideType>),
    /// `A ⊕ B` — the provider sends a branch selection.
    Offer(Arc<GuideType>, Arc<GuideType>),
    /// `A & B` — the consumer sends a branch selection.
    Accept(Arc<GuideType>, Arc<GuideType>),
}

impl GuideType {
    /// `τ ∧ A` constructor.
    pub fn send_val(ty: BaseType, rest: GuideType) -> Self {
        GuideType::SendVal(ty, Arc::new(rest))
    }

    /// `τ ⊃ A` constructor.
    pub fn recv_val(ty: BaseType, rest: GuideType) -> Self {
        GuideType::RecvVal(ty, Arc::new(rest))
    }

    /// `A ⊕ B` constructor.
    pub fn offer(a: GuideType, b: GuideType) -> Self {
        GuideType::Offer(Arc::new(a), Arc::new(b))
    }

    /// `A & B` constructor.
    pub fn accept(a: GuideType, b: GuideType) -> Self {
        GuideType::Accept(Arc::new(a), Arc::new(b))
    }

    /// `T[A]` constructor.
    pub fn app(op: impl Into<String>, arg: GuideType) -> Self {
        GuideType::App(op.into(), Arc::new(arg))
    }

    /// Capture-avoiding substitution of a type variable by a guide type
    /// (`[B/X]A`); type operators bind their own parameter inside
    /// [`TypeDefs`], so no capture can occur at this level.
    pub fn subst(&self, var: &str, replacement: &GuideType) -> GuideType {
        match self {
            GuideType::End => GuideType::End,
            GuideType::Var(x) => {
                if x == var {
                    replacement.clone()
                } else {
                    GuideType::Var(x.clone())
                }
            }
            GuideType::App(op, a) => {
                GuideType::App(op.clone(), Arc::new(a.subst(var, replacement)))
            }
            GuideType::SendVal(t, a) => {
                GuideType::SendVal(t.clone(), Arc::new(a.subst(var, replacement)))
            }
            GuideType::RecvVal(t, a) => {
                GuideType::RecvVal(t.clone(), Arc::new(a.subst(var, replacement)))
            }
            GuideType::Offer(a, b) => GuideType::Offer(
                Arc::new(a.subst(var, replacement)),
                Arc::new(b.subst(var, replacement)),
            ),
            GuideType::Accept(a, b) => GuideType::Accept(
                Arc::new(a.subst(var, replacement)),
                Arc::new(b.subst(var, replacement)),
            ),
        }
    }

    /// True if the type contains an application of the operator `op` — a
    /// *structural* occurs-check, used to detect recursive operator
    /// definitions.  Unlike a textual search over the rendering, it cannot
    /// be fooled by an operator whose name is a suffix of another's (`T`
    /// vs `GT`).
    pub fn mentions_op(&self, op: &str) -> bool {
        match self {
            GuideType::End | GuideType::Var(_) => false,
            GuideType::App(name, a) => name == op || a.mentions_op(op),
            GuideType::SendVal(_, a) | GuideType::RecvVal(_, a) => a.mentions_op(op),
            GuideType::Offer(a, b) | GuideType::Accept(a, b) => {
                a.mentions_op(op) || b.mentions_op(op)
            }
        }
    }

    /// True if the type mentions the given type variable.
    pub fn mentions_var(&self, var: &str) -> bool {
        match self {
            GuideType::End => false,
            GuideType::Var(x) => x == var,
            GuideType::App(_, a) | GuideType::SendVal(_, a) | GuideType::RecvVal(_, a) => {
                a.mentions_var(var)
            }
            GuideType::Offer(a, b) | GuideType::Accept(a, b) => {
                a.mentions_var(var) || b.mentions_var(var)
            }
        }
    }

    /// The number of constructors in the type (used in reports and as a
    /// sanity bound in tests).
    pub fn size(&self) -> usize {
        match self {
            GuideType::End | GuideType::Var(_) => 1,
            GuideType::App(_, a) | GuideType::SendVal(_, a) | GuideType::RecvVal(_, a) => {
                1 + a.size()
            }
            GuideType::Offer(a, b) | GuideType::Accept(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl fmt::Display for GuideType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuideType::End => write!(f, "1"),
            GuideType::Var(x) => write!(f, "{x}"),
            GuideType::App(op, a) => write!(f, "{op}[{a}]"),
            GuideType::SendVal(t, a) => write!(f, "{t} /\\ {a}"),
            GuideType::RecvVal(t, a) => write!(f, "{t} => {a}"),
            GuideType::Offer(a, b) => write!(f, "({a} (+) {b})"),
            GuideType::Accept(a, b) => write!(f, "({a} & {b})"),
        }
    }
}

/// A single type definition `typedef(T. X. A)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDef {
    /// The operator name `T`.
    pub name: String,
    /// The bound type variable `X`.
    pub param: String,
    /// The operator body `A` (may mention `X` and other operators).
    pub body: GuideType,
}

/// A collection of (mutually recursive) type definitions `T`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeDefs {
    defs: HashMap<String, TypeDef>,
}

impl TypeDefs {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a definition, replacing any previous definition of the same
    /// operator.
    pub fn insert(&mut self, def: TypeDef) {
        self.defs.insert(def.name.clone(), def);
    }

    /// Looks up an operator by name.
    pub fn get(&self, name: &str) -> Option<&TypeDef> {
        self.defs.get(name)
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if there are no definitions.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Iterates over the definitions in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &TypeDef> {
        self.defs.values()
    }

    /// Unfolds a type-operator application one step: `T[A] ↦ [A/X]body`.
    ///
    /// Returns `None` if the operator is not defined.
    pub fn unfold(&self, op: &str, arg: &GuideType) -> Option<GuideType> {
        let def = self.get(op)?;
        Some(def.body.subst(&def.param, arg))
    }

    /// Structural equality of guide types *up to consistent renaming of type
    /// operators and their parameters*.
    ///
    /// This is the equality used to decide whether a model and a guide agree
    /// on the protocol for the channel they share: the two programs are
    /// inferred separately and therefore mention distinct operator names,
    /// but compatible programs produce operators with matching bodies.
    ///
    /// The check is a bisimulation over operator pairs, so it terminates on
    /// recursive definitions.
    pub fn equal(&self, a: &GuideType, b: &GuideType, other_defs: &TypeDefs) -> bool {
        let mut assumed: Vec<(String, String)> = Vec::new();
        self.equal_inner(a, b, other_defs, &mut assumed, &mut Vec::new())
    }

    fn equal_inner(
        &self,
        a: &GuideType,
        b: &GuideType,
        other: &TypeDefs,
        assumed_ops: &mut Vec<(String, String)>,
        assumed_vars: &mut Vec<(String, String)>,
    ) -> bool {
        match (a, b) {
            (GuideType::End, GuideType::End) => true,
            (GuideType::Var(x), GuideType::Var(y)) => {
                x == y || assumed_vars.iter().any(|(p, q)| p == x && q == y)
            }
            (GuideType::SendVal(t1, a1), GuideType::SendVal(t2, a2))
            | (GuideType::RecvVal(t1, a1), GuideType::RecvVal(t2, a2)) => {
                t1 == t2 && self.equal_inner(a1, a2, other, assumed_ops, assumed_vars)
            }
            (GuideType::Offer(a1, b1), GuideType::Offer(a2, b2))
            | (GuideType::Accept(a1, b1), GuideType::Accept(a2, b2)) => {
                self.equal_inner(a1, a2, other, assumed_ops, assumed_vars)
                    && self.equal_inner(b1, b2, other, assumed_ops, assumed_vars)
            }
            (GuideType::App(op1, a1), GuideType::App(op2, a2)) => {
                if !self.equal_inner(a1, a2, other, assumed_ops, assumed_vars) {
                    return false;
                }
                if assumed_ops.iter().any(|(p, q)| p == op1 && q == op2) {
                    return true;
                }
                let (Some(d1), Some(d2)) = (self.get(op1), other.get(op2)) else {
                    return false;
                };
                assumed_ops.push((op1.clone(), op2.clone()));
                assumed_vars.push((d1.param.clone(), d2.param.clone()));
                let ok = self.equal_inner(&d1.body, &d2.body, other, assumed_ops, assumed_vars);
                assumed_vars.pop();
                ok
            }
            _ => false,
        }
    }

    /// True if the type is `⊕`-free (never requires the *provider* to send a
    /// branch selection), unfolding operators as needed.
    pub fn is_offer_free(&self, ty: &GuideType) -> bool {
        self.constructor_free(ty, &mut Vec::new(), true)
    }

    /// True if the type is `&`-free (never requires the *consumer* to send a
    /// branch selection), unfolding operators as needed.
    pub fn is_accept_free(&self, ty: &GuideType) -> bool {
        self.constructor_free(ty, &mut Vec::new(), false)
    }

    fn constructor_free(&self, ty: &GuideType, visited: &mut Vec<String>, offer: bool) -> bool {
        match ty {
            GuideType::End | GuideType::Var(_) => true,
            GuideType::SendVal(_, a) | GuideType::RecvVal(_, a) => {
                self.constructor_free(a, visited, offer)
            }
            GuideType::Offer(a, b) => {
                !offer
                    && self.constructor_free(a, visited, offer)
                    && self.constructor_free(b, visited, offer)
            }
            GuideType::Accept(a, b) => {
                offer
                    && self.constructor_free(a, visited, offer)
                    && self.constructor_free(b, visited, offer)
            }
            GuideType::App(op, a) => {
                if !self.constructor_free(a, visited, offer) {
                    return false;
                }
                if visited.contains(op) {
                    return true;
                }
                visited.push(op.clone());
                match self.get(op) {
                    Some(def) => self.constructor_free(&def.body, visited, offer),
                    None => false,
                }
            }
        }
    }
}

impl fmt::Display for TypeDefs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&String> = self.defs.keys().collect();
        names.sort();
        for name in names {
            let def = &self.defs[name];
            writeln!(f, "typedef {}[{}] = {}", def.name, def.param, def.body)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ureal() -> BaseType {
        BaseType::UnitInterval
    }
    fn preal() -> BaseType {
        BaseType::PosReal
    }
    fn real() -> BaseType {
        BaseType::Real
    }

    /// The Fig. 5 protocol: `ℝ+ ∧ (1 & (ℝ(0,1) ∧ 1))`.
    fn fig5_latent() -> GuideType {
        GuideType::send_val(
            preal(),
            GuideType::accept(GuideType::End, GuideType::send_val(ureal(), GuideType::End)),
        )
    }

    #[test]
    fn display_round_trips_shape() {
        let t = fig5_latent();
        assert_eq!(t.to_string(), "preal /\\ (1 & ureal /\\ 1)");
        assert_eq!(t.size(), 5);
        let o = GuideType::offer(GuideType::End, GuideType::Var("X".into()));
        assert_eq!(o.to_string(), "(1 (+) X)");
    }

    #[test]
    fn substitution_and_mentions() {
        let t = GuideType::send_val(real(), GuideType::Var("X".into()));
        assert!(t.mentions_var("X"));
        assert!(!t.mentions_var("Y"));
        let s = t.subst("X", &GuideType::End);
        assert_eq!(s, GuideType::send_val(real(), GuideType::End));
        assert!(!s.mentions_var("X"));
        // Substitution under operator application.
        let u = GuideType::app("R", GuideType::Var("X".into())).subst("X", &GuideType::End);
        assert_eq!(u, GuideType::app("R", GuideType::End));
    }

    #[test]
    fn unfold_recursive_operator() {
        // typedef R[X] = ureal ∧ ((ℝ ∧ X) & R[R[X]])  (the PCFG operator, Ex. 4.2)
        let mut defs = TypeDefs::new();
        defs.insert(TypeDef {
            name: "R".into(),
            param: "X".into(),
            body: GuideType::send_val(
                ureal(),
                GuideType::accept(
                    GuideType::send_val(real(), GuideType::Var("X".into())),
                    GuideType::app("R", GuideType::app("R", GuideType::Var("X".into()))),
                ),
            ),
        });
        let unfolded = defs.unfold("R", &GuideType::End).unwrap();
        match unfolded {
            GuideType::SendVal(t, rest) => {
                assert_eq!(t, ureal());
                match &*rest {
                    GuideType::Accept(left, right) => {
                        assert_eq!(**left, GuideType::send_val(real(), GuideType::End));
                        assert_eq!(
                            **right,
                            GuideType::app("R", GuideType::app("R", GuideType::End))
                        );
                    }
                    other => panic!("unexpected {other}"),
                }
            }
            other => panic!("unexpected {other}"),
        }
        assert!(defs.unfold("Nope", &GuideType::End).is_none());
    }

    #[test]
    fn equality_modulo_operator_names() {
        let mk = |opname: &str| {
            let mut defs = TypeDefs::new();
            defs.insert(TypeDef {
                name: opname.into(),
                param: format!("X_{opname}"),
                body: GuideType::send_val(
                    ureal(),
                    GuideType::accept(
                        GuideType::send_val(real(), GuideType::Var(format!("X_{opname}"))),
                        GuideType::app(
                            opname,
                            GuideType::app(opname, GuideType::Var(format!("X_{opname}"))),
                        ),
                    ),
                ),
            });
            defs
        };
        let model_defs = mk("T_model");
        let guide_defs = mk("T_guide");
        let a = GuideType::app("T_model", GuideType::End);
        let b = GuideType::app("T_guide", GuideType::End);
        assert!(model_defs.equal(&a, &b, &guide_defs));
        // A different body (no recursion in the else branch) is not equal.
        let mut other = TypeDefs::new();
        other.insert(TypeDef {
            name: "T_guide".into(),
            param: "X".into(),
            body: GuideType::send_val(
                ureal(),
                GuideType::accept(
                    GuideType::send_val(real(), GuideType::Var("X".into())),
                    GuideType::Var("X".into()),
                ),
            ),
        });
        assert!(!model_defs.equal(&a, &GuideType::app("T_guide", GuideType::End), &other));
    }

    #[test]
    fn equality_of_plain_types() {
        let defs = TypeDefs::new();
        assert!(defs.equal(&fig5_latent(), &fig5_latent(), &defs));
        let wrong = GuideType::send_val(
            real(), // ℝ rather than ℝ+: the unsound Guide2' of Fig. 4
            GuideType::accept(GuideType::End, GuideType::send_val(ureal(), GuideType::End)),
        );
        assert!(!defs.equal(&fig5_latent(), &wrong, &defs));
        assert!(!defs.equal(&GuideType::End, &fig5_latent(), &defs));
        // ⊕ and & are not interchangeable.
        assert!(!defs.equal(
            &GuideType::offer(GuideType::End, GuideType::End),
            &GuideType::accept(GuideType::End, GuideType::End),
            &defs
        ));
    }

    #[test]
    fn offer_and_accept_freeness() {
        let defs = TypeDefs::new();
        let t = fig5_latent();
        // The model's consumed channel type is ⊕-free but not &-free.
        assert!(defs.is_offer_free(&t));
        assert!(!defs.is_accept_free(&t));
        let obs = GuideType::send_val(real(), GuideType::End);
        assert!(defs.is_offer_free(&obs));
        assert!(defs.is_accept_free(&obs));
        let o = GuideType::offer(GuideType::End, GuideType::End);
        assert!(!defs.is_offer_free(&o));
        assert!(defs.is_accept_free(&o));
    }

    #[test]
    fn freeness_unfolds_recursive_operators() {
        let mut defs = TypeDefs::new();
        defs.insert(TypeDef {
            name: "R".into(),
            param: "X".into(),
            body: GuideType::send_val(
                ureal(),
                GuideType::accept(
                    GuideType::Var("X".into()),
                    GuideType::app("R", GuideType::Var("X".into())),
                ),
            ),
        });
        let t = GuideType::app("R", GuideType::End);
        assert!(defs.is_offer_free(&t));
        assert!(!defs.is_accept_free(&t));
        // Unknown operators are conservatively rejected.
        let unknown = GuideType::app("Missing", GuideType::End);
        assert!(!defs.is_offer_free(&unknown));
    }

    #[test]
    fn mentions_op_is_structural() {
        // R's body mentions R (recursive) but not G; and an operator named
        // "T" is not confused with one named "GT" the way a textual
        // `contains("T[")` search would be.
        let body = GuideType::send_val(
            ureal(),
            GuideType::accept(
                GuideType::Var("X".into()),
                GuideType::app("R", GuideType::app("GT", GuideType::Var("X".into()))),
            ),
        );
        assert!(body.mentions_op("R"));
        assert!(body.mentions_op("GT"));
        assert!(!body.mentions_op("T"));
        assert!(!body.mentions_op("G"));
        assert!(!GuideType::End.mentions_op("R"));
        assert!(!GuideType::Var("R".into()).mentions_op("R"));
    }

    #[test]
    fn type_defs_collection_behaviour() {
        let mut defs = TypeDefs::new();
        assert!(defs.is_empty());
        defs.insert(TypeDef {
            name: "T".into(),
            param: "X".into(),
            body: GuideType::Var("X".into()),
        });
        assert_eq!(defs.len(), 1);
        assert!(defs.get("T").is_some());
        assert!(defs.get("U").is_none());
        assert_eq!(defs.iter().count(), 1);
        let shown = defs.to_string();
        assert!(shown.contains("typedef T[X] = X"));
    }
}
