//! Base-type checking and **guide types** for the coroutine-based PPL of
//! *Sound Probabilistic Inference via Guide Types* (PLDI 2021).
//!
//! The crate implements:
//!
//! * the simply-typed checker for the deterministic fragment
//!   ([`base`], rules `TE:*` of the paper's Fig. 12);
//! * guide types and type-operator definitions ([`guide`], §4);
//! * backward guide-type checking of commands ([`check`], rules `TM:*`);
//! * the whole-program type-inference algorithm and the model–guide
//!   compatibility check that certifies absolute continuity
//!   ([`infer`], §4 and Theorem 5.2).
//!
//! # Example
//!
//! ```
//! use ppl_syntax::parse_program;
//! use ppl_types::{infer_program, check_model_guide};
//!
//! let model = parse_program(r#"
//!     proc Model() : real consume latent provide obs {
//!       let v <- sample recv latent (Gamma(2.0, 1.0));
//!       if send latent (v < 2.0) {
//!         let _ <- sample send obs (Normal(-1.0, 1.0));
//!         return v
//!       } else {
//!         let m <- sample recv latent (Beta(3.0, 1.0));
//!         let _ <- sample send obs (Normal(m, 1.0));
//!         return v
//!       }
//!     }
//! "#).unwrap();
//! let guide = parse_program(r#"
//!     proc Guide() provide latent {
//!       let v <- sample send latent (Gamma(1.0, 1.0));
//!       if recv latent { return () } else {
//!         let _ <- sample send latent (Unif);
//!         return ()
//!       }
//!     }
//! "#).unwrap();
//! let menv = infer_program(&model)?;
//! let genv = infer_program(&guide)?;
//! let compat = check_model_guide(&menv, &"Model".into(), &genv, &"Guide".into())?;
//! assert!(compat.compatible);
//! # Ok::<(), ppl_types::TypeError>(())
//! ```

pub mod base;
pub mod check;
pub mod error;
pub mod guide;
pub mod infer;
pub mod obs;

pub use base::{check_expr, infer_expr, is_subtype, join, TypingCtx};
pub use check::{
    base_type_of_cmd, base_type_of_cmd_in, check_cmd, ChannelTypes, CheckCtx, CmdTyping,
    ProcSignature, Sigma,
};
pub use error::{code as types_error_code, TypeError};
pub use guide::{GuideType, TypeDef, TypeDefs};
pub use infer::{check_model_guide, infer_program, Compatibility, TypeEnv};
pub use obs::{carrier_admits, validate_observations, ObsValue, ObsViolation};
