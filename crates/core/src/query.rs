//! The validated query layer: the front door for running inference.
//!
//! A [`Query`] packages everything one posterior computation needs — the
//! session's compiled programs, an observation vector, an RNG seed, and a
//! thread count — and is only obtainable through [`Session::query`], whose
//! [`QueryBuilder::build`] step validates the observations against the
//! model's *inferred observation protocol* (count, carrier types, branch
//! feasibility) **before any particle runs**.  This extends the paper's
//! static-certification discipline from the guide to the data: a malformed
//! request is rejected with a [`QueryError`] naming the offending position
//! and the expected protocol, instead of surfacing as a runtime
//! `ObservationMismatch` halfway through a particle sweep.
//!
//! The algorithm is chosen by a typed [`Method`] value, and every engine's
//! result comes back as a [`PosteriorResult`] implementing the common
//! [`Posterior`] trait, so importance sampling, Metropolis–Hastings, and
//! variational inference are interchangeable behind one interface.
//!
//! Queries are self-contained and cheap (three `Arc` clones plus the
//! observation vector), `Send + Sync`, and deterministic: a query's result
//! is a pure function of `(query, method)` — randomness comes only from
//! the query's own seed.  [`Session::run_batch`] exploits this to serve
//! many observation sets through one compiled model, in parallel, with
//! results bit-identical to running each query alone at any thread count.
//!
//! ```
//! use guide_ppl::{Method, Posterior, Session};
//! use ppl_dist::Sample;
//!
//! let session = Session::from_benchmark("normal-normal")?;
//! let posterior = session
//!     .query()
//!     .observe(vec![Sample::Real(1.0)])
//!     .seed(7)
//!     .run(&Method::Importance { particles: 2_000 })?;
//! let mean = posterior.mean_of_sample(0).unwrap();
//! assert!((mean - 0.5).abs() < 0.2);
//! # Ok::<(), guide_ppl::SessionError>(())
//! ```

use crate::{render_protocol, Session, SessionError};
use ppl_dist::rng::Pcg32;
use ppl_dist::Sample;
use ppl_inference::{
    Draw, Engine, ImportanceResult, ImportanceSampler, IndependenceMh, McmcResult, ParamSpec,
    Posterior, VariationalInference, ViConfig, ViPosterior, ViResult, DEFAULT_BLOCK,
};
use ppl_runtime::{CancelToken, JointExecutor, JointSpec};
use ppl_semantics::value::Value;
use ppl_store::{Artifact, ObsLit};
use ppl_types::obs::{validate_observations, ObsValue, ObsViolation};
use std::fmt;

/// Particles drawn from the fitted guide after a [`Method::Vi`] run, so the
/// VI result exposes posterior draws (and an evidence estimate at the
/// optimum) like the other engines.
pub const VI_POSTERIOR_PARTICLES: usize = 2_000;

/// A request rejected by query validation — raised *before* any joint
/// execution runs.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The observation vector cannot be produced by the model's inferred
    /// observation protocol.
    Observations {
        /// The precise violation, naming the offending position.
        violation: ObsViolation,
        /// Number of observations supplied.
        supplied: usize,
        /// The expected observation protocol, rendered.
        protocol: String,
    },
    /// Observations were supplied, but the model provides no observation
    /// channel.
    NoObservationChannel {
        /// Number of observations supplied.
        supplied: usize,
    },
    /// The model's consumed channel and the guide's provided channel have
    /// different names, so no joint rendezvous is possible.
    ChannelMismatch {
        /// The channel the model consumes.
        model_consumes: String,
        /// The channel the guide provides.
        guide_provides: String,
    },
    /// Wrong number of model arguments.
    ModelArity {
        /// Parameters the model procedure declares.
        expected: usize,
        /// Arguments supplied.
        supplied: usize,
    },
    /// Wrong number of guide arguments for the chosen method (for
    /// [`Method::Vi`], the number of [`ParamSpec`]s).
    GuideArity {
        /// Parameters the guide procedure declares.
        expected: usize,
        /// Arguments (or variational parameters) supplied.
        supplied: usize,
    },
    /// A structurally invalid method configuration (zero particles,
    /// burn-in at least as long as the chain, …).
    InvalidMethod {
        /// Human-readable description.
        reason: String,
    },
}

impl QueryError {
    /// The error's stable machine-readable code.
    ///
    /// Codes are part of the serving wire format (HTTP error bodies carry
    /// them verbatim), so existing codes never change meaning.  For
    /// [`QueryError::Observations`] the code is the underlying
    /// [`ObsViolation::code`] (e.g. `obs.carrier`), so clients see the
    /// most specific diagnostic.
    pub fn code(&self) -> &'static str {
        match self {
            QueryError::Observations { violation, .. } => violation.code(),
            QueryError::NoObservationChannel { .. } => "obs.no_channel",
            QueryError::ChannelMismatch { .. } => "channel.rendezvous",
            QueryError::ModelArity { .. } => "model.arity",
            QueryError::GuideArity { .. } => "guide.arity",
            QueryError::InvalidMethod { .. } => "method.invalid",
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The embedded violation of `Observations` renders its own (more
        // specific) code, so only the other variants prefix theirs here.
        if !matches!(self, QueryError::Observations { .. }) {
            write!(f, "{}: ", self.code())?;
        }
        match self {
            QueryError::Observations {
                violation,
                supplied,
                protocol,
            } => write!(
                f,
                "invalid observations ({supplied} supplied): {violation}; the model's observation protocol is {protocol}"
            ),
            QueryError::NoObservationChannel { supplied } => write!(
                f,
                "{supplied} observation(s) supplied, but the model provides no observation channel"
            ),
            QueryError::ChannelMismatch {
                model_consumes,
                guide_provides,
            } => write!(
                f,
                "the model consumes channel '{model_consumes}' but the guide provides channel '{guide_provides}'"
            ),
            QueryError::ModelArity { expected, supplied } => write!(
                f,
                "the model procedure takes {expected} argument(s), but {supplied} were supplied"
            ),
            QueryError::GuideArity { expected, supplied } => write!(
                f,
                "the guide procedure takes {expected} argument(s), but {supplied} were supplied"
            ),
            QueryError::InvalidMethod { reason } => write!(f, "invalid method: {reason}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// The inference algorithm to run on a [`Query`].
#[derive(Debug, Clone)]
pub enum Method {
    /// Importance sampling with `particles` particles.
    Importance {
        /// Number of particles to draw.
        particles: usize,
    },
    /// Independence Metropolis–Hastings.
    Mh {
        /// Total iterations (including burn-in).
        iterations: usize,
        /// Initial states to discard.
        burn_in: usize,
    },
    /// Variational inference, followed by posterior draws from the fitted
    /// guide (an importance-sampling pass using the fitted guide as the
    /// proposal).
    Vi {
        /// The variational parameters to optimise.
        params: Vec<ParamSpec>,
        /// Engine configuration.
        config: ViConfig,
        /// Number of particles the fitted-guide draw pass runs; `None`
        /// uses [`VI_POSTERIOR_PARTICLES`].  Exposed so callers (e.g. the
        /// serving wire protocol) can trade draw fidelity for latency.
        draw_particles: Option<usize>,
    },
}

impl Method {
    /// Variational inference with the default
    /// [`VI_POSTERIOR_PARTICLES`]-particle fitted-guide draw pass — the
    /// pre-`draw_particles` behaviour.
    pub fn vi(params: Vec<ParamSpec>, config: ViConfig) -> Method {
        Method::Vi {
            params,
            config,
            draw_particles: None,
        }
    }

    /// The algorithm's abbreviation (`"IS"`, `"MCMC"`, `"VI"`).
    pub fn name(&self) -> &'static str {
        match self {
            Method::Importance { .. } => "IS",
            Method::Mh { .. } => "MCMC",
            Method::Vi { .. } => "VI",
        }
    }
}

/// The posterior produced by running a [`Query`] — one of the three
/// engines' results behind the common [`Posterior`] interface.
#[derive(Debug, Clone)]
pub enum PosteriorResult {
    /// An importance-sampling posterior.
    Importance(ImportanceResult),
    /// A Metropolis–Hastings posterior.
    Mcmc(McmcResult),
    /// A variational-inference posterior (fit + fitted-guide draws).
    Vi(ViPosterior),
}

impl PosteriorResult {
    /// The importance-sampling result, if that engine produced this.
    pub fn as_importance(&self) -> Option<&ImportanceResult> {
        match self {
            PosteriorResult::Importance(r) => Some(r),
            _ => None,
        }
    }

    /// The MCMC result, if that engine produced this.
    pub fn as_mcmc(&self) -> Option<&McmcResult> {
        match self {
            PosteriorResult::Mcmc(r) => Some(r),
            _ => None,
        }
    }

    /// The VI posterior, if that engine produced this.
    pub fn as_vi(&self) -> Option<&ViPosterior> {
        match self {
            PosteriorResult::Vi(r) => Some(r),
            _ => None,
        }
    }

    fn inner(&self) -> &dyn Posterior {
        match self {
            PosteriorResult::Importance(r) => r,
            PosteriorResult::Mcmc(r) => r,
            PosteriorResult::Vi(r) => r,
        }
    }
}

impl Posterior for PosteriorResult {
    fn method(&self) -> &'static str {
        self.inner().method()
    }

    fn num_draws(&self) -> usize {
        self.inner().num_draws()
    }

    fn for_each_draw(&self, f: &mut dyn FnMut(Draw<'_>)) {
        self.inner().for_each_draw(f);
    }

    fn ess(&self) -> f64 {
        self.inner().ess()
    }

    fn log_evidence(&self) -> Option<f64> {
        self.inner().log_evidence()
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        self.inner().diagnostics()
    }
}

/// Builder for a validated [`Query`]; obtained from [`Session::query`].
#[derive(Debug, Clone)]
pub struct QueryBuilder<'s> {
    session: &'s Session,
    observations: Vec<Sample>,
    seed: u64,
    threads: usize,
    block: usize,
    model_args: Vec<Value>,
    guide_args: Vec<Value>,
    cancel: CancelToken,
}

impl<'s> QueryBuilder<'s> {
    pub(crate) fn new(session: &'s Session) -> Self {
        QueryBuilder {
            session,
            observations: Vec::new(),
            seed: 0,
            threads: 1,
            block: DEFAULT_BLOCK,
            model_args: Vec::new(),
            guide_args: Vec::new(),
            cancel: CancelToken::none(),
        }
    }

    /// Sets the observation vector to condition on (replacing any previous
    /// one).
    pub fn observe(mut self, observations: impl IntoIterator<Item = Sample>) -> Self {
        self.observations = observations.into_iter().collect();
        self
    }

    /// Sets the RNG seed (default 0).  Two queries with equal
    /// configuration and equal seeds produce bit-identical posteriors.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the engine's worker-thread count (default 1).  Per-particle
    /// RNG substreams make results bit-identical for every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the vectorised-execution block size for the particle-sweep
    /// engines (default [`DEFAULT_BLOCK`]).  Like the thread count, this is
    /// purely a performance knob: per-lane RNG substreams make results
    /// bit-identical at every block size.
    pub fn block(mut self, block: usize) -> Self {
        self.block = block.max(1);
        self
    }

    /// Sets the model procedure's arguments (default: none).
    pub fn model_args(mut self, args: Vec<Value>) -> Self {
        self.model_args = args;
        self
    }

    /// Sets the guide procedure's arguments (default: none).  Ignored by
    /// [`Method::Vi`], which supplies the variational parameters itself.
    pub fn guide_args(mut self, args: Vec<Value>) -> Self {
        self.guide_args = args;
        self
    }

    /// Installs a cancellation/deadline token (default: a
    /// never-cancelling [`CancelToken::none`]).  The engines poll it at
    /// every particle block, MH proposal, and VI optimisation step; an
    /// expired or raised token aborts the run with
    /// [`SessionError::Runtime`] carrying
    /// [`RuntimeError::DeadlineExceeded`](ppl_runtime::RuntimeError::DeadlineExceeded)
    /// or [`RuntimeError::Cancelled`](ppl_runtime::RuntimeError::Cancelled).
    ///
    /// Like the thread count and block size, the token never changes a
    /// *successful* result: a run that completes before its deadline is
    /// bit-identical to the same run without one.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Validates the request and produces a reusable [`Query`].
    ///
    /// # Errors
    ///
    /// Returns a [`QueryError`] when the observations do not match the
    /// model's inferred observation protocol (count, carrier type, branch
    /// feasibility), when observations are supplied to a model without an
    /// observation channel, when the model/guide channel names cannot
    /// rendezvous, or when the model argument count is wrong.  Nothing is
    /// executed in any of these cases.
    pub fn build(self) -> Result<Query, QueryError> {
        let session = self.session;
        let model_meta = session
            .model_compiled
            .proc_named(&session.model_proc)
            .expect("session construction verified the model procedure");
        let guide_meta = session
            .guide_compiled
            .proc_named(&session.guide_proc)
            .expect("session construction verified the guide procedure");

        // Channel rendezvous: the joint executor pairs operations by
        // channel name, so the model's consumed channel must be the one
        // the guide provides.
        let latent_chan = model_meta
            .consumes
            .expect("session construction verified the model consumes a channel");
        let guide_chan = guide_meta
            .provides
            .expect("session construction verified the guide provides a channel");
        if latent_chan != guide_chan {
            return Err(QueryError::ChannelMismatch {
                model_consumes: latent_chan.as_str().to_string(),
                guide_provides: guide_chan.as_str().to_string(),
            });
        }

        // Observation validation against the inferred obs protocol.
        match &session.compatibility.model_obs {
            None => {
                if !self.observations.is_empty() {
                    return Err(QueryError::NoObservationChannel {
                        supplied: self.observations.len(),
                    });
                }
            }
            Some(protocol) => {
                let values: Vec<ObsValue> = self.observations.iter().map(sample_to_obs).collect();
                validate_observations(&session.model_env.defs, protocol, &values).map_err(
                    |violation| QueryError::Observations {
                        violation,
                        supplied: self.observations.len(),
                        protocol: render_protocol(protocol, &session.model_env),
                    },
                )?;
            }
        }

        if self.model_args.len() != model_meta.params.len() {
            return Err(QueryError::ModelArity {
                expected: model_meta.params.len(),
                supplied: self.model_args.len(),
            });
        }

        let obs_chan = model_meta.provides.unwrap_or_else(|| "obs".into());
        let spec = JointSpec {
            model_proc: session.model_proc,
            model_args: self.model_args,
            guide_proc: session.guide_proc,
            guide_args: self.guide_args,
            latent_chan,
            obs_chan,
        };
        let mut executor = session.executor(self.observations);
        executor.set_cancel_token(self.cancel);
        Ok(Query {
            executor,
            spec,
            seed: self.seed,
            threads: self.threads,
            block: self.block,
            guide_arity: guide_meta.params.len(),
        })
    }

    /// Builds the query and runs it in one step.
    ///
    /// # Errors
    ///
    /// Validation failures surface as [`SessionError::Query`]; engine
    /// failures as [`SessionError::Runtime`].
    pub fn run(self, method: &Method) -> Result<PosteriorResult, SessionError> {
        self.build()?.run(method)
    }

    /// Builds a query configured from a fitted-guide [`Artifact`]: the
    /// artifact's seed, observations, and model arguments replace whatever
    /// the builder held, so [`Query::run_vi_warm`] replays the recorded fit
    /// bit-exactly.  Thread count and block size stay caller-chosen — they
    /// are perf knobs and never change results.
    ///
    /// # Errors
    ///
    /// Everything [`QueryBuilder::build`] rejects, plus
    /// [`QueryError::GuideArity`] when the artifact's parameter schema does
    /// not match the guide's arity (an artifact from a different guide).
    pub fn vi_from_artifact(mut self, artifact: &Artifact) -> Result<Query, QueryError> {
        self.seed = artifact.seed;
        self.observations = artifact
            .observations
            .iter()
            .map(artifact_obs_to_sample)
            .collect();
        self.model_args = artifact
            .model_args
            .iter()
            .map(|&x| Value::Real(x))
            .collect();
        let query = self.build()?;
        if artifact.schema.len() != query.guide_arity {
            return Err(QueryError::GuideArity {
                expected: query.guide_arity,
                supplied: artifact.schema.len(),
            });
        }
        Ok(query)
    }
}

/// Converts a runtime observation [`Sample`] to the artifact store's
/// dependency-free literal form.
pub fn sample_to_artifact_obs(sample: &Sample) -> ObsLit {
    match sample {
        Sample::Bool(b) => ObsLit::Bool(*b),
        Sample::Real(x) => ObsLit::Real(*x),
        Sample::Nat(n) => ObsLit::Nat(*n),
    }
}

fn artifact_obs_to_sample(obs: &ObsLit) -> Sample {
    match obs {
        ObsLit::Bool(b) => Sample::Bool(*b),
        ObsLit::Real(x) => Sample::Real(*x),
        ObsLit::Nat(n) => Sample::Nat(*n),
    }
}

/// The outcome of an engine-level VI fit run through [`Query::fit_vi`]:
/// the optimisation result plus the raw RNG words captured *immediately
/// after* the fit.
///
/// The fresh VI path threads one generator through the fit and then the
/// fitted-guide draw pass, so resuming a generator from these words (see
/// [`Pcg32::from_state_parts`]) and drawing reproduces the fresh path's
/// draw bytes exactly — the invariant the artifact store's warm queries
/// are built on.
#[derive(Debug, Clone)]
pub struct ViFit {
    /// The optimisation result (fitted parameters, ELBO trajectory).
    pub result: ViResult,
    /// Raw PCG state word after the fit.
    pub rng_state: u64,
    /// Raw PCG increment word after the fit.
    pub rng_inc: u64,
}

/// A validated, reusable inference request.
///
/// A query is self-contained (it shares the session's compiled programs
/// behind `Arc`s), `Send + Sync`, cheap to clone, and deterministic: its
/// result is a pure function of the query and the [`Method`], with all
/// randomness derived from [`QueryBuilder::seed`].
#[derive(Debug, Clone)]
pub struct Query {
    executor: JointExecutor,
    spec: JointSpec,
    seed: u64,
    threads: usize,
    block: usize,
    guide_arity: usize,
}

impl Query {
    /// Runs the chosen inference method.
    ///
    /// # Errors
    ///
    /// Method-level validation failures (guide arity, degenerate
    /// configurations) surface as [`SessionError::Query`] before anything
    /// executes; engine failures as [`SessionError::Runtime`].
    pub fn run(&self, method: &Method) -> Result<PosteriorResult, SessionError> {
        self.check_method(method)?;
        let mut rng = Pcg32::seed_from_u64(self.seed);
        run_with_rng_block(
            &self.executor,
            &self.spec,
            method,
            self.threads,
            self.block,
            &mut rng,
        )
    }

    /// The underlying joint executor (advanced use: custom proposals such
    /// as [`GuidedMh`](ppl_inference::GuidedMh) with the validation this
    /// query already performed).
    pub fn executor(&self) -> &JointExecutor {
        &self.executor
    }

    /// The joint spec the query runs with (channel names resolved from the
    /// procedure headers).
    pub fn spec(&self) -> &JointSpec {
        &self.spec
    }

    /// The conditioning observations.
    pub fn observations(&self) -> &[Sample] {
        self.executor.observations()
    }

    /// The query's RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The query's engine thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The query's vectorised-execution block size.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Runs **only** the VI fit — the expensive half of [`Method::Vi`] —
    /// and captures the post-fit RNG position, so the fit can be
    /// checkpointed as an [`Artifact`] and its draw pass replayed later by
    /// [`Query::run_vi_warm`] without refitting.
    ///
    /// The fit is identical to the one [`Method::Vi`] runs: same
    /// validation, same seeding, same `num_threads` promotion — so
    /// `fit_vi` followed by `run_vi_warm` at the same seed is bit-identical
    /// to one fresh `Method::Vi` run.
    ///
    /// # Errors
    ///
    /// Validation failures (guide arity, degenerate configurations)
    /// surface as [`SessionError::Query`]; engine failures as
    /// [`SessionError::Runtime`].
    pub fn fit_vi(&self, params: &[ParamSpec], config: &ViConfig) -> Result<ViFit, SessionError> {
        self.check_method(&Method::Vi {
            params: params.to_vec(),
            config: config.clone(),
            draw_particles: None,
        })?;
        let mut config = config.clone();
        config.num_threads = config.num_threads.max(self.threads);
        let mut rng = Pcg32::seed_from_u64(self.seed);
        let result =
            VariationalInference::new(config).run(&self.executor, &self.spec, params, &mut rng)?;
        let (rng_state, rng_inc) = rng.state_parts();
        Ok(ViFit {
            result,
            rng_state,
            rng_inc,
        })
    }

    /// Draws a VI posterior from an already-fitted guide — the warm half
    /// of the amortization story: **zero fit iterations run**.
    ///
    /// The query should come from [`QueryBuilder::vi_from_artifact`] so
    /// its seed and observations match the artifact's.  The RNG resumes
    /// from the artifact's post-fit words and the guide runs at the
    /// recorded parameters, so the returned posterior is bit-identical to
    /// the fresh `Method::Vi` run that minted the artifact (given the same
    /// `draw_particles`).  The fit half of the result is reconstructed
    /// from the artifact's provenance: real fitted parameters, and an
    /// ELBO trace whose trailing window is the recorded tail (earlier
    /// entries, which no diagnostic reads, are NaN placeholders).
    ///
    /// # Errors
    ///
    /// [`SessionError::Query`] when the artifact's schema does not match
    /// the guide or `draw_particles` is zero; engine failures as
    /// [`SessionError::Runtime`].
    pub fn run_vi_warm(
        &self,
        artifact: &Artifact,
        draw_particles: Option<usize>,
    ) -> Result<PosteriorResult, SessionError> {
        if artifact.schema.len() != self.guide_arity {
            return Err(QueryError::GuideArity {
                expected: self.guide_arity,
                supplied: artifact.schema.len(),
            }
            .into());
        }
        if draw_particles == Some(0) {
            return Err(QueryError::InvalidMethod {
                reason: "the VI fitted-guide draw pass needs at least one particle".into(),
            }
            .into());
        }
        let mut rng = Pcg32::from_state_parts(artifact.rng_state, artifact.rng_inc);
        let fitted_spec = JointSpec {
            guide_args: artifact.params.iter().map(|&p| Value::Real(p)).collect(),
            ..self.spec.clone()
        };
        let draws = ImportanceSampler::new(draw_particles.unwrap_or(VI_POSTERIOR_PARTICLES))
            .with_threads(self.threads)
            .with_block(self.block)
            .run(&self.executor, &fitted_spec, &mut rng)?;
        let total = artifact.fit_iterations as usize;
        let mut elbo_trace = vec![f64::NAN; total.saturating_sub(artifact.elbo_tail.len())];
        elbo_trace.extend(artifact.elbo_tail.iter().copied());
        let fit = ViResult {
            params: artifact.params.clone(),
            names: artifact.schema.iter().map(|p| p.name.clone()).collect(),
            elbo_trace,
        };
        Ok(PosteriorResult::Vi(ViPosterior { fit, draws }))
    }

    fn check_method(&self, method: &Method) -> Result<(), QueryError> {
        let check_guide_args = |supplied: usize| {
            if supplied != self.guide_arity {
                Err(QueryError::GuideArity {
                    expected: self.guide_arity,
                    supplied,
                })
            } else {
                Ok(())
            }
        };
        match method {
            Method::Importance { particles } => {
                if *particles == 0 {
                    return Err(QueryError::InvalidMethod {
                        reason: "importance sampling needs at least one particle".into(),
                    });
                }
                check_guide_args(self.spec.guide_args.len())
            }
            Method::Mh {
                iterations,
                burn_in,
            } => {
                if *iterations == 0 {
                    return Err(QueryError::InvalidMethod {
                        reason: "MH needs at least one iteration".into(),
                    });
                }
                if burn_in >= iterations {
                    return Err(QueryError::InvalidMethod {
                        reason: format!(
                            "burn-in {burn_in} discards the whole {iterations}-iteration chain"
                        ),
                    });
                }
                check_guide_args(self.spec.guide_args.len())
            }
            Method::Vi {
                params,
                config,
                draw_particles,
            } => {
                if config.iterations == 0 || config.samples_per_iteration == 0 {
                    return Err(QueryError::InvalidMethod {
                        reason: "VI needs at least one iteration and one sample per iteration"
                            .into(),
                    });
                }
                if *draw_particles == Some(0) {
                    return Err(QueryError::InvalidMethod {
                        reason: "the VI fitted-guide draw pass needs at least one particle".into(),
                    });
                }
                check_guide_args(params.len())
            }
        }
    }
}

/// Runs `method` on an executor/spec pair with a caller-positioned RNG —
/// the single code path behind [`Query::run`] — with an explicit
/// vectorised-execution block size for the particle-sweep stages (VI keeps
/// its own [`ViConfig::block`]).
pub(crate) fn run_with_rng_block(
    executor: &JointExecutor,
    spec: &JointSpec,
    method: &Method,
    threads: usize,
    block: usize,
    rng: &mut Pcg32,
) -> Result<PosteriorResult, SessionError> {
    match method {
        Method::Importance { particles } => Ok(PosteriorResult::Importance(
            ImportanceSampler::new(*particles)
                .with_threads(threads)
                .with_block(block)
                .run(executor, spec, rng)?,
        )),
        Method::Mh {
            iterations,
            burn_in,
        } => Ok(PosteriorResult::Mcmc(
            IndependenceMh::new(*iterations, *burn_in).run(executor, spec, rng)?,
        )),
        Method::Vi {
            params,
            config,
            draw_particles,
        } => {
            // The query's thread count drives every stage; an explicit
            // `ViConfig::num_threads` larger than it is respected.  (Either
            // choice is bit-identical — threads never change results.)
            let mut config = config.clone();
            config.num_threads = config.num_threads.max(threads);
            let fit = VariationalInference::new(config).run(executor, spec, params, rng)?;
            // Turn the fit into a posterior: draw weighted particles from
            // the guide at the fitted parameters.
            let fitted_spec = JointSpec {
                guide_args: fit.params.iter().map(|&p| Value::Real(p)).collect(),
                ..spec.clone()
            };
            let draws = ImportanceSampler::new(draw_particles.unwrap_or(VI_POSTERIOR_PARTICLES))
                .with_threads(threads)
                .with_block(block)
                .run(executor, &fitted_spec, rng)?;
            Ok(PosteriorResult::Vi(ViPosterior { fit, draws }))
        }
    }
}

impl Session {
    /// Starts building a validated inference [`Query`].
    ///
    /// See the [`query` module](crate::query) docs for the full picture.
    pub fn query(&self) -> QueryBuilder<'_> {
        QueryBuilder::new(self)
    }

    /// Runs a batch of queries sequentially — the amortized-serving
    /// primitive: one compiled model answers every observation set, and
    /// each query's result is bit-identical to [`Query::run`] alone.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing query.
    pub fn run_batch(
        &self,
        queries: &[Query],
        method: &Method,
    ) -> Result<Vec<PosteriorResult>, SessionError> {
        self.run_batch_threaded(queries, method, 1)
    }

    /// [`Session::run_batch`] over `batch_threads` worker threads.
    ///
    /// Each query's randomness comes from its own seed, so scheduling
    /// cannot influence any result: the batch output — including which
    /// error wins when several queries fail (the lowest-index one) — is
    /// **bit-identical for every `batch_threads`**, and identical to
    /// running the queries one by one.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing query.
    pub fn run_batch_threaded(
        &self,
        queries: &[Query],
        method: &Method,
        batch_threads: usize,
    ) -> Result<Vec<PosteriorResult>, SessionError> {
        let engine = Engine::new(batch_threads);
        // The scheduler hands each job an RNG substream, but queries are
        // seeded by construction — the substream is ignored, which is
        // exactly what makes batching bit-identical to one-by-one runs.
        let mut scheduler_rng = Pcg32::seed_from_u64(0);
        engine.run_particles(queries.len(), &mut scheduler_rng, |i, _| {
            queries[i].run(method)
        })
    }
}

fn sample_to_obs(sample: &Sample) -> ObsValue {
    match sample {
        Sample::Bool(b) => ObsValue::Bool(*b),
        Sample::Real(r) => ObsValue::Real(*r),
        Sample::Nat(n) => ObsValue::Nat(*n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: &str = "proc Model() : real consume latent provide obs {
        let x <- sample recv latent (Normal(0.0, 1.0));
        let _ <- sample send obs (Normal(x, 1.0));
        return x }";
    const GUIDE: &str = "proc Guide() provide latent {
        let x <- sample send latent (Normal(0.0, 1.5));
        return () }";

    fn session() -> Session {
        Session::from_sources(MODEL, "Model", GUIDE, "Guide").unwrap()
    }

    #[test]
    fn query_runs_all_three_methods_behind_one_interface() {
        let s = Session::from_benchmark("weight").unwrap();
        let obs = vec![Sample::Real(9.0), Sample::Real(9.0)];
        let methods = vec![
            Method::Importance { particles: 4_000 },
            Method::Mh {
                iterations: 4_000,
                burn_in: 400,
            },
            Method::vi(
                vec![
                    ParamSpec::unconstrained("mu", 2.0),
                    ParamSpec::positive("sigma", 1.0),
                ],
                ViConfig {
                    iterations: 150,
                    samples_per_iteration: 10,
                    learning_rate: 0.08,
                    ..ViConfig::default()
                },
            ),
        ];
        for method in &methods {
            // IS and MH run the parameterised guide at fixed arguments
            // (near the known posterior, so the proposal is useful); VI
            // ignores them and supplies its own parameters.
            let posterior = s
                .query()
                .observe(obs.clone())
                .guide_args(vec![Value::Real(7.4), Value::Real(0.6)])
                .seed(11)
                .run(method)
                .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
            assert_eq!(posterior.method(), method.name());
            // Conjugate posterior mean ≈ 7.46 for every engine.
            let mean = posterior.mean_of_sample(0).unwrap();
            assert!((mean - 7.46).abs() < 0.9, "{}: mean {mean}", method.name());
            assert!(posterior.num_draws() > 0);
            let summary = posterior.summarize_sample(0).unwrap();
            assert!(summary.std_dev() > 0.0);
            assert!(!posterior.diagnostics().is_empty());
        }
    }

    #[test]
    fn queries_are_deterministic_and_reusable() {
        let s = session();
        let q = s
            .query()
            .observe(vec![Sample::Real(1.0)])
            .seed(42)
            .build()
            .unwrap();
        let method = Method::Importance { particles: 500 };
        let a = q.run(&method).unwrap();
        let b = q.run(&method).unwrap();
        let (a, b) = (a.as_importance().unwrap(), b.as_importance().unwrap());
        assert_eq!(a.log_evidence.to_bits(), b.log_evidence.to_bits());
        // Thread counts never change results.
        let q4 = s
            .query()
            .observe(vec![Sample::Real(1.0)])
            .seed(42)
            .threads(4)
            .build()
            .unwrap();
        let c = q4.run(&method).unwrap();
        assert_eq!(
            a.log_evidence.to_bits(),
            c.as_importance().unwrap().log_evidence.to_bits()
        );
        // A different seed is a different run.
        let q2 = s
            .query()
            .observe(vec![Sample::Real(1.0)])
            .seed(43)
            .build()
            .unwrap();
        let d = q2.run(&method).unwrap();
        assert_ne!(
            a.log_evidence.to_bits(),
            d.as_importance().unwrap().log_evidence.to_bits()
        );
        assert_eq!(q.seed(), 42);
        assert_eq!(q.threads(), 1);
        assert_eq!(q.observations(), &[Sample::Real(1.0)]);
        assert_eq!(q.spec().latent_chan.as_str(), "latent");
    }

    #[test]
    fn block_size_is_a_pure_performance_knob() {
        let s = session();
        let method = Method::Importance { particles: 700 };
        let run = |block: usize| {
            s.query()
                .observe(vec![Sample::Real(1.0)])
                .seed(9)
                .block(block)
                .run(&method)
                .unwrap()
                .as_importance()
                .unwrap()
                .log_evidence
        };
        let reference = run(1);
        for block in [7usize, 64, 256] {
            assert_eq!(reference.to_bits(), run(block).to_bits(), "block {block}");
        }
        // The builder clamps to at least one lane and reports the setting.
        let q = s
            .query()
            .observe(vec![Sample::Real(1.0)])
            .block(0)
            .build()
            .unwrap();
        assert_eq!(q.block(), 1);
        let default_q = s.query().observe(vec![Sample::Real(1.0)]).build().unwrap();
        assert_eq!(default_q.block(), ppl_inference::DEFAULT_BLOCK);
    }

    #[test]
    fn method_level_validation_rejects_degenerate_requests() {
        let s = session();
        let q = s.query().observe(vec![Sample::Real(1.0)]).build().unwrap();
        assert!(matches!(
            q.run(&Method::Importance { particles: 0 }),
            Err(SessionError::Query(QueryError::InvalidMethod { .. }))
        ));
        assert!(matches!(
            q.run(&Method::Mh {
                iterations: 10,
                burn_in: 10
            }),
            Err(SessionError::Query(QueryError::InvalidMethod { .. }))
        ));
        // The guide takes no parameters, so VI with params is an arity
        // error and IS with guide args would be too.
        assert!(matches!(
            q.run(&Method::vi(
                vec![ParamSpec::unconstrained("mu", 0.0)],
                ViConfig::default()
            )),
            Err(SessionError::Query(QueryError::GuideArity {
                expected: 0,
                supplied: 1
            }))
        ));
        let q_args = s
            .query()
            .observe(vec![Sample::Real(1.0)])
            .guide_args(vec![Value::Real(0.0)])
            .build()
            .unwrap();
        assert!(matches!(
            q_args.run(&Method::Importance { particles: 10 }),
            Err(SessionError::Query(QueryError::GuideArity { .. }))
        ));
    }

    #[test]
    fn model_arity_is_validated_at_build_time() {
        let s = session();
        let err = s
            .query()
            .observe(vec![Sample::Real(1.0)])
            .model_args(vec![Value::Real(1.0)])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            QueryError::ModelArity {
                expected: 0,
                supplied: 1
            }
        );
        assert!(err.to_string().contains("0 argument"));
    }

    #[test]
    fn nonconventional_channel_names_are_resolved_from_headers() {
        // The old hard-coded "latent"/"obs" spec could not run this pair.
        let model = "proc M() : real consume lat provide data {
            let x <- sample recv lat (Normal(0.0, 1.0));
            let _ <- sample send data (Normal(x, 1.0));
            return x }";
        let guide = "proc G() provide lat {
            let x <- sample send lat (Normal(0.0, 1.5));
            return () }";
        let s = Session::from_sources(model, "M", guide, "G").unwrap();
        let q = s
            .query()
            .observe(vec![Sample::Real(1.0)])
            .seed(3)
            .build()
            .unwrap();
        assert_eq!(q.spec().latent_chan.as_str(), "lat");
        assert_eq!(q.spec().obs_chan.as_str(), "data");
        let posterior = q.run(&Method::Importance { particles: 2_000 }).unwrap();
        let mean = posterior.mean_of_sample(0).unwrap();
        assert!((mean - 0.5).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn run_batch_matches_individual_runs() {
        let s = session();
        let queries: Vec<Query> = (0..4)
            .map(|i| {
                s.query()
                    .observe(vec![Sample::Real(i as f64 * 0.5)])
                    .seed(100 + i)
                    .build()
                    .unwrap()
            })
            .collect();
        let method = Method::Importance { particles: 300 };
        let one_by_one: Vec<f64> = queries
            .iter()
            .map(|q| {
                q.run(&method)
                    .unwrap()
                    .as_importance()
                    .unwrap()
                    .log_evidence
            })
            .collect();
        for threads in [1usize, 4] {
            let batch = s.run_batch_threaded(&queries, &method, threads).unwrap();
            assert_eq!(batch.len(), 4);
            for (r, expected) in batch.iter().zip(&one_by_one) {
                assert_eq!(
                    r.as_importance().unwrap().log_evidence.to_bits(),
                    expected.to_bits(),
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    fn vi_draw_particles_is_configurable_with_the_old_default() {
        let s = Session::from_benchmark("weight").unwrap();
        let obs = vec![Sample::Real(9.0), Sample::Real(9.0)];
        let params = vec![
            ParamSpec::unconstrained("mu", 2.0),
            ParamSpec::positive("sigma", 1.0),
        ];
        let config = ViConfig {
            iterations: 30,
            samples_per_iteration: 5,
            ..ViConfig::default()
        };
        let run = |method: &Method| {
            s.query()
                .observe(obs.clone())
                .seed(21)
                .run(method)
                .unwrap()
                .as_vi()
                .unwrap()
                .clone()
        };
        // Regression: the default (None) is bit-identical to explicitly
        // requesting the documented 2 000-particle pass.
        let default = run(&Method::vi(params.clone(), config.clone()));
        let explicit = run(&Method::Vi {
            params: params.clone(),
            config: config.clone(),
            draw_particles: Some(VI_POSTERIOR_PARTICLES),
        });
        assert_eq!(default.num_draws(), VI_POSTERIOR_PARTICLES);
        assert_eq!(
            default.draws.log_evidence.to_bits(),
            explicit.draws.log_evidence.to_bits()
        );
        // A custom pass size is honoured exactly.
        let small = run(&Method::Vi {
            params: params.clone(),
            config: config.clone(),
            draw_particles: Some(64),
        });
        assert_eq!(small.draws.particles.len(), 64);
        // And the fit itself is unchanged by the draw pass size.
        assert_eq!(small.fit.params, default.fit.params);
        // Zero draw particles is a structural method error.
        let err = s
            .query()
            .observe(obs.clone())
            .build()
            .unwrap()
            .run(&Method::Vi {
                params,
                config,
                draw_particles: Some(0),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::Query(QueryError::InvalidMethod { .. })
        ));
    }

    #[test]
    fn query_errors_carry_stable_codes() {
        let s = session();
        let err = s
            .query()
            .observe(vec![Sample::Real(1.0)])
            .model_args(vec![Value::Real(1.0)])
            .build()
            .unwrap_err();
        assert_eq!(err.code(), "model.arity");
        assert!(err.to_string().starts_with("model.arity: "), "{err}");
        let err = s
            .query()
            .observe(vec![Sample::Bool(true)])
            .build()
            .unwrap_err();
        assert_eq!(err.code(), "obs.carrier");
        // The observation variant defers to the violation's code, rendered
        // once (inside the embedded violation), not twice.
        let shown = err.to_string();
        assert_eq!(shown.matches("obs.carrier").count(), 1, "{shown}");
    }

    #[test]
    fn queries_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Query>();
        assert_send_sync::<Method>();
        assert_send_sync::<PosteriorResult>();
    }
}
