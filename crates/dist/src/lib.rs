//! # clado-dist
//!
//! Distributed sensitivity sweeps for CLADO: a coordinator/worker
//! subsystem that shards the probe grid of
//! [`clado_core::measure_sensitivities`] across worker *processes* over
//! TCP, built entirely on `std::net`.
//!
//! * **Framing** ([`frame`]): length-prefixed, checksummed binary
//!   frames; every malformed input maps to a typed [`FrameError`].
//! * **Protocol** ([`protocol`]): a versioned handshake carrying the
//!   CLSJ config fingerprint (mismatched workers are rejected), then a
//!   worker-driven lease loop.
//! * **Shard scheduler** ([`WorkerPool`]): the one lease / heartbeat /
//!   eviction state machine — capped per-shard retries with backoff,
//!   fingerprint rejection, a per-shard hook, optional in-process
//!   takeover, and cross-process tracing. It serves both callers below.
//! * **Coordinator** ([`Coordinator`]): a one-shot sweep — a pool that
//!   runs one job and shuts down — that journals completions through
//!   the atomic CLSJ commit path (a killed coordinator resumes
//!   losslessly) and assembles Ω in canonical probe order, bitwise
//!   identical to a single-process run. The `clado serve` daemon is the
//!   other caller, with a long-lived pool of warm workers.
//! * **Worker** ([`run_pool_worker`], [`run_worker`]): reconstructs each
//!   job from its spec, evaluates leased shards with
//!   [`clado_core::ShardContext`], and heartbeats from a side thread
//!   while measuring.
//!
//! ## Example (in-process loopback)
//!
//! ```no_run
//! use clado_core::ShardContext;
//! use clado_dist::{Coordinator, CoordinatorOptions, JobSpec, WorkerOptions};
//!
//! # fn demo(ctx: ShardContext, job: JobSpec) -> Result<(), clado_dist::DistError> {
//! let coordinator = Coordinator::bind("127.0.0.1:0", ctx, job, CoordinatorOptions::default())?;
//! let addr = coordinator.local_addr().to_string();
//! std::thread::spawn(move || {
//!     clado_dist::run_worker(
//!         &addr,
//!         |job| panic!("reconstruct model for {job:?}"),
//!         &WorkerOptions::default(),
//!     )
//! });
//! let outcome = coordinator.run()?;
//! println!("Ω assembled from {} workers", outcome.workers.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod backoff;
mod coordinator;
mod error;
pub mod frame;
mod omega;
mod pool;
pub mod protocol;
pub mod wire;
mod worker;

pub use backoff::connect_with_retry;
pub use coordinator::{Coordinator, CoordinatorOptions, DistOutcome};
pub use error::DistError;
pub use frame::{FrameError, MAX_PAYLOAD, PROTOCOL_VERSION};
pub use omega::{assemble_omega, grid_estimator, job_fingerprint, NodeJob};
pub use pool::{JobFailure, JobOutcome, PoolOptions, WorkerPool, WorkerSummary};
pub use protocol::{scheme_from_u8, scheme_to_u8, JobSpec, Message};
pub use worker::{run_pool_worker, run_worker, WorkerOptions, WorkerReport};
