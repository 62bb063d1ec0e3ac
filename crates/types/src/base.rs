//! Base-type checking for the deterministic fragment (a simply-typed
//! lambda calculus over refined scalar types, Fig. 12's `TE:*` rules).
//!
//! Scalar refinements form a small subtype lattice
//! (`ℝ(0,1) <: ℝ+ <: ℝ` and `ℕ_n <: ℕ`), which lets numeric literals and
//! distribution parameters be checked without annotations.

use crate::error::TypeError;
use ppl_syntax::ast::{BaseType, BinOp, DistExpr, Expr, Ident, UnOp};
use std::collections::HashMap;

/// A typing context `Γ` mapping program variables to base types.
#[derive(Debug, Clone, Default)]
pub struct TypingCtx {
    vars: HashMap<Ident, BaseType>,
}

impl TypingCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a context extended with a binding.
    pub fn extended(&self, x: Ident, ty: BaseType) -> Self {
        let mut next = self.clone();
        next.vars.insert(x, ty);
        next
    }

    /// Adds a binding in place.
    pub fn insert(&mut self, x: Ident, ty: BaseType) {
        self.vars.insert(x, ty);
    }

    /// Enters the scope of a binder in place, returning the binding of `x`
    /// it shadows; hand that to [`TypingCtx::unbind`] to leave the scope.
    pub fn bind(&mut self, x: Ident, ty: BaseType) -> Option<BaseType> {
        self.vars.insert(x, ty)
    }

    /// Leaves the scope of a [`TypingCtx::bind`]: restores the binding of
    /// `x` it shadowed, or removes `x` if it shadowed none.
    pub fn unbind(&mut self, x: Ident, shadowed: Option<BaseType>) {
        match shadowed {
            Some(ty) => {
                self.vars.insert(x, ty);
            }
            None => {
                self.vars.remove(&x);
            }
        }
    }

    /// Looks up a variable.
    pub fn lookup(&self, x: &Ident) -> Option<&BaseType> {
        self.vars.get(x)
    }

    /// Builds a context from typed parameters.
    pub fn from_params(params: &[(Ident, BaseType)]) -> Self {
        let mut ctx = Self::new();
        for (x, t) in params {
            ctx.insert(*x, t.clone());
        }
        ctx
    }
}

/// Subtype relation on base types (reflexive; scalar refinements only).
pub fn is_subtype(sub: &BaseType, sup: &BaseType) -> bool {
    if sub == sup {
        return true;
    }
    match (sub, sup) {
        (BaseType::UnitInterval, BaseType::PosReal | BaseType::Real) => true,
        (BaseType::PosReal, BaseType::Real) => true,
        (BaseType::FinNat(_), BaseType::Nat) => true,
        (BaseType::FinNat(n), BaseType::FinNat(m)) => n <= m,
        _ => false,
    }
}

/// Least upper bound of two base types in the scalar subtype lattice, if it
/// exists.
pub fn join(a: &BaseType, b: &BaseType) -> Option<BaseType> {
    if is_subtype(a, b) {
        return Some(b.clone());
    }
    if is_subtype(b, a) {
        return Some(a.clone());
    }
    match (a, b) {
        (x, y) if x.is_real_like() && y.is_real_like() => {
            // The chain ureal <: preal <: real makes one of the two cases
            // above fire unless the types are equal, so reaching here means
            // incomparable real refinements cannot happen; kept for clarity.
            Some(BaseType::Real)
        }
        (x, y) if x.is_nat_like() && y.is_nat_like() => Some(BaseType::Nat),
        _ => None,
    }
}

/// Infers the base type of an expression (`Γ ⊢ e : τ`).
///
/// # Errors
///
/// Returns a [`TypeError`] if the expression is ill-typed (unbound variable,
/// operator applied at the wrong types, distribution parameter outside its
/// domain type, …).
pub fn infer_expr(ctx: &TypingCtx, e: &Expr) -> Result<BaseType, TypeError> {
    match e {
        Expr::Var(x) => ctx.lookup(x).cloned().ok_or_else(|| {
            TypeError::new(format!("unbound variable '{x}'"))
                .with_code(crate::error::code::UNBOUND_VAR)
        }),
        Expr::Triv => Ok(BaseType::Unit),
        Expr::Bool(_) => Ok(BaseType::Bool),
        Expr::Real(r) => Ok(literal_real_type(*r)),
        Expr::Nat(_) => Ok(BaseType::Nat),
        Expr::If(c, a, b) => {
            check_expr(ctx, c, &BaseType::Bool)?;
            let ta = infer_expr(ctx, a)?;
            let tb = infer_expr(ctx, b)?;
            join(&ta, &tb).ok_or_else(|| {
                TypeError::new(format!(
                    "branches of a conditional expression have incompatible types {ta} and {tb}"
                ))
            })
        }
        Expr::BinOp(op, a, b) => infer_binop(ctx, *op, a, b),
        Expr::UnOp(op, a) => infer_unop(ctx, *op, a),
        Expr::Lam(x, ty, body) => {
            let inner = ctx.extended(*x, ty.clone());
            let body_ty = infer_expr(&inner, body)?;
            Ok(BaseType::arrow(ty.clone(), body_ty))
        }
        Expr::App(f, a) => {
            let tf = infer_expr(ctx, f)?;
            match tf {
                BaseType::Arrow(from, to) => {
                    check_expr(ctx, a, &from)?;
                    Ok(*to)
                }
                other => Err(TypeError::new(format!(
                    "application of a non-function value of type {other}"
                ))),
            }
        }
        Expr::Let(x, e1, e2) => {
            let t1 = infer_expr(ctx, e1)?;
            let inner = ctx.extended(*x, t1);
            infer_expr(&inner, e2)
        }
        Expr::Dist(d) => infer_dist(ctx, d),
    }
}

/// Checks an expression against an expected type (subsumption).
///
/// # Errors
///
/// Returns a [`TypeError`] if the inferred type is not a subtype of the
/// expected type.
pub fn check_expr(ctx: &TypingCtx, e: &Expr, expected: &BaseType) -> Result<(), TypeError> {
    let actual = infer_expr(ctx, e)?;
    if is_subtype(&actual, expected) {
        Ok(())
    } else {
        Err(TypeError::new(format!(
            "expected type {expected}, found {actual}"
        )))
    }
}

/// The most precise literal type of a real constant (rule TE:UReal/PReal/Real).
pub fn literal_real_type(r: f64) -> BaseType {
    if r > 0.0 && r < 1.0 {
        BaseType::UnitInterval
    } else if r > 0.0 {
        BaseType::PosReal
    } else {
        BaseType::Real
    }
}

fn infer_binop(ctx: &TypingCtx, op: BinOp, a: &Expr, b: &Expr) -> Result<BaseType, TypeError> {
    let ta = infer_expr(ctx, a)?;
    let tb = infer_expr(ctx, b)?;
    if op.is_logical() {
        if ta == BaseType::Bool && tb == BaseType::Bool {
            return Ok(BaseType::Bool);
        }
        return Err(TypeError::new(format!(
            "logical operator '{}' applied to {ta} and {tb}",
            op.symbol()
        )));
    }
    if op.is_comparison() {
        let ok = (ta.is_real_like() && tb.is_real_like())
            || (ta.is_nat_like() && tb.is_nat_like())
            || (op == BinOp::Eq && ta == BaseType::Bool && tb == BaseType::Bool);
        if ok {
            return Ok(BaseType::Bool);
        }
        return Err(TypeError::new(format!(
            "comparison '{}' applied to incomparable types {ta} and {tb}",
            op.symbol()
        )));
    }
    // Arithmetic.
    if ta.is_real_like() && tb.is_real_like() {
        let ty = match op {
            BinOp::Add => {
                if is_subtype(&ta, &BaseType::PosReal) && is_subtype(&tb, &BaseType::PosReal) {
                    BaseType::PosReal
                } else {
                    BaseType::Real
                }
            }
            BinOp::Mul => {
                if ta == BaseType::UnitInterval && tb == BaseType::UnitInterval {
                    BaseType::UnitInterval
                } else if is_subtype(&ta, &BaseType::PosReal) && is_subtype(&tb, &BaseType::PosReal)
                {
                    BaseType::PosReal
                } else {
                    BaseType::Real
                }
            }
            BinOp::Div => {
                if is_subtype(&ta, &BaseType::PosReal) && is_subtype(&tb, &BaseType::PosReal) {
                    BaseType::PosReal
                } else {
                    BaseType::Real
                }
            }
            BinOp::Sub => BaseType::Real,
            _ => unreachable!("arithmetic op"),
        };
        return Ok(ty);
    }
    if ta.is_nat_like() && tb.is_nat_like() {
        return match op {
            BinOp::Add | BinOp::Mul => Ok(BaseType::Nat),
            BinOp::Sub | BinOp::Div => Err(TypeError::new(
                "subtraction/division on natural numbers is not supported; coerce with real(..)",
            )),
            _ => unreachable!("arithmetic op"),
        };
    }
    Err(TypeError::new(format!(
        "arithmetic operator '{}' applied to {ta} and {tb}",
        op.symbol()
    )))
}

fn infer_unop(ctx: &TypingCtx, op: UnOp, a: &Expr) -> Result<BaseType, TypeError> {
    let ta = infer_expr(ctx, a)?;
    match op {
        UnOp::Neg => {
            if ta.is_real_like() {
                Ok(BaseType::Real)
            } else {
                Err(TypeError::new(format!("negation applied to {ta}")))
            }
        }
        UnOp::Not => {
            if ta == BaseType::Bool {
                Ok(BaseType::Bool)
            } else {
                Err(TypeError::new(format!("'!' applied to {ta}")))
            }
        }
        UnOp::Exp => {
            if ta.is_real_like() {
                Ok(BaseType::PosReal)
            } else {
                Err(TypeError::new(format!("exp applied to {ta}")))
            }
        }
        UnOp::Ln => {
            if ta.is_real_like() {
                Ok(BaseType::Real)
            } else {
                Err(TypeError::new(format!(
                    "ln requires a real argument, found {ta}"
                )))
            }
        }
        UnOp::Sqrt => {
            if ta == BaseType::UnitInterval {
                Ok(BaseType::UnitInterval)
            } else if is_subtype(&ta, &BaseType::PosReal) {
                Ok(BaseType::PosReal)
            } else if ta.is_real_like() {
                Ok(BaseType::Real)
            } else {
                Err(TypeError::new(format!(
                    "sqrt requires a real argument, found {ta}"
                )))
            }
        }
        UnOp::ToReal => {
            if ta.is_nat_like() || ta.is_real_like() {
                Ok(BaseType::Real)
            } else {
                Err(TypeError::new(format!("real(..) applied to {ta}")))
            }
        }
    }
}

fn infer_dist(ctx: &TypingCtx, d: &DistExpr) -> Result<BaseType, TypeError> {
    let carrier = match d {
        DistExpr::Bernoulli(p) => {
            check_expr(ctx, p, &BaseType::UnitInterval).map_err(|e| e.context("Ber parameter"))?;
            BaseType::Bool
        }
        DistExpr::Uniform => BaseType::UnitInterval,
        DistExpr::Beta(a, b) => {
            check_expr(ctx, a, &BaseType::PosReal).map_err(|e| e.context("Beta parameter"))?;
            check_expr(ctx, b, &BaseType::PosReal).map_err(|e| e.context("Beta parameter"))?;
            BaseType::UnitInterval
        }
        DistExpr::Gamma(a, b) => {
            check_expr(ctx, a, &BaseType::PosReal).map_err(|e| e.context("Gamma parameter"))?;
            check_expr(ctx, b, &BaseType::PosReal).map_err(|e| e.context("Gamma parameter"))?;
            BaseType::PosReal
        }
        DistExpr::Normal(mu, sigma) => {
            check_expr(ctx, mu, &BaseType::Real).map_err(|e| e.context("Normal mean"))?;
            check_expr(ctx, sigma, &BaseType::PosReal).map_err(|e| e.context("Normal scale"))?;
            BaseType::Real
        }
        DistExpr::Categorical(ws) => {
            if ws.is_empty() {
                return Err(TypeError::new("Cat requires at least one weight"));
            }
            for w in ws {
                check_expr(ctx, w, &BaseType::PosReal).map_err(|e| e.context("Cat weight"))?;
            }
            BaseType::FinNat(ws.len())
        }
        DistExpr::Geometric(p) => {
            check_expr(ctx, p, &BaseType::UnitInterval).map_err(|e| e.context("Geo parameter"))?;
            BaseType::Nat
        }
        DistExpr::Poisson(l) => {
            check_expr(ctx, l, &BaseType::PosReal).map_err(|e| e.context("Pois parameter"))?;
            BaseType::Nat
        }
    };
    Ok(BaseType::dist(carrier))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_syntax::parse_expr;

    fn infer(src: &str) -> Result<BaseType, TypeError> {
        infer_expr(&TypingCtx::new(), &parse_expr(src).unwrap())
    }

    fn infer_with(src: &str, bindings: &[(&str, BaseType)]) -> Result<BaseType, TypeError> {
        let mut ctx = TypingCtx::new();
        for (x, t) in bindings {
            ctx.insert((*x).into(), t.clone());
        }
        infer_expr(&ctx, &parse_expr(src).unwrap())
    }

    #[test]
    fn subtyping_lattice() {
        assert!(is_subtype(&BaseType::UnitInterval, &BaseType::Real));
        assert!(is_subtype(&BaseType::UnitInterval, &BaseType::PosReal));
        assert!(is_subtype(&BaseType::PosReal, &BaseType::Real));
        assert!(!is_subtype(&BaseType::Real, &BaseType::PosReal));
        assert!(is_subtype(&BaseType::FinNat(3), &BaseType::Nat));
        assert!(is_subtype(&BaseType::FinNat(3), &BaseType::FinNat(5)));
        assert!(!is_subtype(&BaseType::FinNat(5), &BaseType::FinNat(3)));
        assert!(!is_subtype(&BaseType::Nat, &BaseType::Real));
        assert!(is_subtype(&BaseType::Bool, &BaseType::Bool));
    }

    #[test]
    fn join_behaviour() {
        assert_eq!(
            join(&BaseType::UnitInterval, &BaseType::PosReal),
            Some(BaseType::PosReal)
        );
        assert_eq!(
            join(&BaseType::Real, &BaseType::UnitInterval),
            Some(BaseType::Real)
        );
        assert_eq!(
            join(&BaseType::FinNat(2), &BaseType::FinNat(4)),
            Some(BaseType::FinNat(4))
        );
        assert_eq!(join(&BaseType::Bool, &BaseType::Real), None);
    }

    #[test]
    fn literal_types() {
        assert_eq!(infer("0.5").unwrap(), BaseType::UnitInterval);
        assert_eq!(infer("2.5").unwrap(), BaseType::PosReal);
        assert_eq!(infer("-1.0").unwrap(), BaseType::Real);
        assert_eq!(infer("0.0").unwrap(), BaseType::Real);
        assert_eq!(infer("7").unwrap(), BaseType::Nat);
        assert_eq!(infer("true").unwrap(), BaseType::Bool);
        assert_eq!(infer("()").unwrap(), BaseType::Unit);
    }

    #[test]
    fn arithmetic_refinements() {
        assert_eq!(infer("0.5 * 0.5").unwrap(), BaseType::UnitInterval);
        assert_eq!(infer("0.5 + 0.5").unwrap(), BaseType::PosReal);
        assert_eq!(infer("2.0 * 3.0").unwrap(), BaseType::PosReal);
        assert_eq!(infer("2.0 - 3.0").unwrap(), BaseType::Real);
        assert_eq!(infer("2.0 / 4.0").unwrap(), BaseType::PosReal);
        assert_eq!(infer("1 + 2").unwrap(), BaseType::Nat);
        assert!(infer("1 - 2").is_err());
        assert!(infer("1 + 2.0").is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(infer("1.0 < 2.0").unwrap(), BaseType::Bool);
        assert_eq!(infer("1 <= 2").unwrap(), BaseType::Bool);
        assert_eq!(infer("true && (1.0 < 2.0)").unwrap(), BaseType::Bool);
        assert!(infer("1.0 < true").is_err());
        assert!(infer("1 < 2.0").is_err());
        assert!(infer("1.0 && true").is_err());
    }

    #[test]
    fn unary_operators() {
        assert_eq!(infer("exp(-3.0)").unwrap(), BaseType::PosReal);
        assert_eq!(infer("ln(2.0)").unwrap(), BaseType::Real);
        assert_eq!(infer("sqrt(0.25)").unwrap(), BaseType::UnitInterval);
        assert_eq!(infer("sqrt(4.0)").unwrap(), BaseType::PosReal);
        assert_eq!(infer("real(3)").unwrap(), BaseType::Real);
        assert_eq!(infer("!true").unwrap(), BaseType::Bool);
        // ln/sqrt accept any real-valued argument (the result is an
        // unrefined real, so a negative argument is a runtime NaN, not a
        // support violation).
        assert_eq!(infer("ln(-1.0)").unwrap(), BaseType::Real);
        assert_eq!(infer("sqrt(-1.0)").unwrap(), BaseType::Real);
        assert!(infer("ln(true)").is_err());
        assert!(infer("!1.0").is_err());
    }

    #[test]
    fn conditional_expressions_join() {
        assert_eq!(
            infer("if true then 0.5 else 3.0").unwrap(),
            BaseType::PosReal
        );
        assert_eq!(infer("if true then 0.5 else -1.0").unwrap(), BaseType::Real);
        assert!(infer("if 1.0 then 0.5 else 0.2").is_err());
        assert!(infer("if true then 0.5 else false").is_err());
    }

    #[test]
    fn lambda_and_application() {
        assert_eq!(
            infer("fn (x : real) => x + 1.0").unwrap(),
            BaseType::arrow(BaseType::Real, BaseType::Real)
        );
        assert_eq!(
            infer("let f = fn (x : real) => x + 1.0 in f(0.5)").unwrap(),
            BaseType::Real
        );
        assert!(infer("let f = fn (x : bool) => x in f(1.0)").is_err());
        assert!(infer("let f = 1.0 in f(2.0)").is_err());
    }

    #[test]
    fn let_bindings_and_variables() {
        assert_eq!(
            infer("let x = 0.5 in x * x").unwrap(),
            BaseType::UnitInterval
        );
        assert!(infer("y + 1.0").is_err());
        assert_eq!(
            infer_with(
                "p * u",
                &[("p", BaseType::UnitInterval), ("u", BaseType::UnitInterval)]
            )
            .unwrap(),
            BaseType::UnitInterval
        );
    }

    #[test]
    fn distribution_types() {
        assert_eq!(
            infer("Unif").unwrap(),
            BaseType::dist(BaseType::UnitInterval)
        );
        assert_eq!(
            infer("Gamma(2.0, 1.0)").unwrap(),
            BaseType::dist(BaseType::PosReal)
        );
        assert_eq!(
            infer("Normal(-1.0, 1.0)").unwrap(),
            BaseType::dist(BaseType::Real)
        );
        assert_eq!(infer("Ber(0.3)").unwrap(), BaseType::dist(BaseType::Bool));
        assert_eq!(
            infer("Cat(1.0, 2.0, 3.0)").unwrap(),
            BaseType::dist(BaseType::FinNat(3))
        );
        assert_eq!(infer("Geo(0.5)").unwrap(), BaseType::dist(BaseType::Nat));
        assert_eq!(infer("Pois(4.0)").unwrap(), BaseType::dist(BaseType::Nat));
    }

    #[test]
    fn distribution_parameter_errors() {
        // Bernoulli requires a unit-interval parameter.
        assert!(infer("Ber(2.0)").is_err());
        // Normal scale must be positive-real; a general real is rejected.
        assert!(infer_with("Normal(0.0, s)", &[("s", BaseType::Real)]).is_err());
        assert!(infer_with("Normal(0.0, s)", &[("s", BaseType::PosReal)]).is_ok());
        // Gamma parameters must be positive.
        assert!(infer("Gamma(-2.0, 1.0)").is_err());
        // Poisson rate must be positive-real.
        assert!(infer_with("Pois(x)", &[("x", BaseType::Real)]).is_err());
    }

    #[test]
    fn paper_guide2_parameterised_distributions() {
        // Guide2(θ1..θ4) from Fig. 4 type-checks with preal parameters.
        let bindings = [
            ("t1", BaseType::PosReal),
            ("t2", BaseType::PosReal),
            ("t3", BaseType::PosReal),
            ("t4", BaseType::PosReal),
        ];
        assert_eq!(
            infer_with("Gamma(t1, t2)", &bindings).unwrap(),
            BaseType::dist(BaseType::PosReal)
        );
        assert_eq!(
            infer_with("Beta(t3, t4)", &bindings).unwrap(),
            BaseType::dist(BaseType::UnitInterval)
        );
        // Guide2'(θ1, θ2) with a Normal proposal for @x has carrier ℝ,
        // which will not match the model's ℝ+ protocol (checked at the
        // guide-type level, not here).
        assert_eq!(
            infer_with("Normal(t1, t2)", &bindings).unwrap(),
            BaseType::dist(BaseType::Real)
        );
    }

    #[test]
    fn bind_and_unbind_restore_the_outer_scope() {
        let x: Ident = "x".into();
        let y: Ident = "y".into();
        let mut ctx = TypingCtx::new();
        ctx.insert(x, BaseType::Real);
        // Shadowing returns the outer binding; unbinding restores it.
        let shadowed = ctx.bind(x, BaseType::Bool);
        assert_eq!(shadowed, Some(BaseType::Real));
        assert_eq!(ctx.lookup(&x), Some(&BaseType::Bool));
        ctx.unbind(x, shadowed);
        assert_eq!(ctx.lookup(&x), Some(&BaseType::Real));
        // A fresh binder leaves no trace once unbound.
        let shadowed = ctx.bind(y, BaseType::Nat);
        assert_eq!(shadowed, None);
        ctx.unbind(y, shadowed);
        assert_eq!(ctx.lookup(&y), None);
    }
}
