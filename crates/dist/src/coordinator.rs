//! The one-shot sweep coordinator (`clado measure --workers/--listen`):
//! a [`WorkerPool`] that runs one job and then shuts down.
//!
//! Leasing, heartbeats, eviction, retries and fingerprint rejection all
//! live in the shard scheduler ([`WorkerPool`]). This wrapper keeps
//! only what a one-shot sweep adds on top:
//!
//! * **Crash safety.** The CLSJ journal is loaded (or refused) like the
//!   in-process engine does, shards it already holds are not leased,
//!   and each newly integrated shard is committed through the same
//!   atomic CLSJ path (write-tmp → fsync → rename → fsync-dir) from the
//!   scheduler's shard hook. A SIGKILLed coordinator therefore leaves a
//!   journal a later `--resume` run loads losslessly — whether that run
//!   is distributed again or a plain single-process
//!   `measure_sensitivities`. A failed commit ends the sweep as
//!   [`DistError::Journal`].
//! * **Idle timeout.** With no live worker for
//!   [`CoordinatorOptions::idle_timeout`], the job is canceled and the
//!   sweep fails with [`DistError::NoWorkers`].
//! * **Assembly and accounting.** Ω is assembled in canonical probe
//!   order — bitwise identical to a single-process run — and per-worker
//!   accounting and fleet gauges are reported.

use crate::error::DistError;
use crate::omega::{assemble_omega, grid_estimator, job_fingerprint};
use crate::pool::{JobFailure, PoolOptions, WorkerPool, WorkerSummary};
use crate::protocol::JobSpec;
use clado_core::journal::load_journal;
use clado_core::{
    JournalError, JournalWriter, ProbeId, ProbeRecord, SensitivityMatrix, SensitivityStats,
    ShardContext, ShardSpec,
};
use clado_telemetry::Telemetry;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Options controlling a coordinator run.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// A worker that sends no frame for this long loses its leases.
    pub heartbeat_timeout: Duration,
    /// Directory for the crash-safe CLSJ shard journal; `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from an existing journal in the checkpoint directory.
    pub resume: bool,
    /// Telemetry sink for spans, counters, and per-worker gauges.
    pub telemetry: Telemetry,
    /// Print coarse progress to stderr.
    pub verbose: bool,
    /// Fail with [`DistError::NoWorkers`] when work remains but no
    /// worker has been connected for this long; `None` waits forever.
    pub idle_timeout: Option<Duration>,
}

impl Default for CoordinatorOptions {
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_secs(3),
            checkpoint_dir: None,
            resume: false,
            telemetry: Telemetry::disabled(),
            verbose: false,
            idle_timeout: None,
        }
    }
}

/// The result of a completed distributed sweep.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// The assembled sensitivity matrix — bitwise identical to a
    /// single-process [`clado_core::measure_sensitivities`] run of the
    /// same configuration (or, for an estimation job, to
    /// `clado_estim::estimate_sensitivities` under the same estimator,
    /// budget, and seed).
    pub matrix: SensitivityMatrix,
    /// Per-worker accounting, ordered by worker id.
    pub workers: Vec<WorkerSummary>,
    /// Leases evicted (and their shards requeued) from dead or hung
    /// workers.
    pub evictions: u64,
    /// Workers refused during the handshake (version or fingerprint
    /// mismatch).
    pub rejected: u64,
    /// Probe records restored from the journal instead of re-measured.
    pub resumed: usize,
    /// Busy seconds of the slowest worker (the straggler).
    pub straggler_seconds: f64,
}

/// A sensitivity-sweep coordinator bound to a TCP address.
///
/// Construct with [`Coordinator::bind`], learn the bound address via
/// [`Coordinator::local_addr`] (to hand to workers), then
/// [`Coordinator::run`] to drive the sweep to completion.
pub struct Coordinator {
    pool: WorkerPool,
    ctx: ShardContext,
    job: JobSpec,
    opts: CoordinatorOptions,
}

impl Coordinator {
    /// Binds the coordinator socket. Use address `127.0.0.1:0` to let
    /// the OS pick a free port. Workers are accepted once [`Self::run`]
    /// starts.
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] when the address cannot be bound.
    pub fn bind(
        addr: &str,
        ctx: ShardContext,
        job: JobSpec,
        opts: CoordinatorOptions,
    ) -> Result<Self, DistError> {
        let pool_opts = PoolOptions {
            heartbeat_timeout: opts.heartbeat_timeout,
            telemetry: opts.telemetry.clone(),
            verbose: opts.verbose,
            ..PoolOptions::default()
        };
        let pool = TcpListener::bind(addr)
            .and_then(|listener| WorkerPool::new(listener, pool_opts, "dist"))
            .map_err(DistError::Io)?;
        Ok(Self {
            pool,
            ctx,
            job,
            opts,
        })
    }

    /// The address workers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.pool.worker_addr()
    }

    /// Drives the sweep: leases the shards the journal does not hold to
    /// workers, journals completions, and assembles the final matrix
    /// once every shard is done. Returns when the sweep completes or
    /// fails.
    ///
    /// # Errors
    ///
    /// [`DistError::BadJob`] for an estimator that cannot be sharded,
    /// [`DistError::Journal`] for checkpoint failures (completed shards
    /// stay on disk), [`DistError::Measure`] for assembly failures,
    /// [`DistError::WorkerRetriesExhausted`] when a shard kept killing
    /// the workers that leased it, and [`DistError::NoWorkers`] when the
    /// idle timeout expires with work remaining.
    pub fn run(self) -> Result<DistOutcome, DistError> {
        let start = Instant::now();
        let telemetry = self.opts.telemetry.clone();
        // Adopt the job's trace id so events from this run and the
        // workers' shipped events correlate under one id.
        if self.job.trace_id != 0 {
            telemetry.set_trace_id(self.job.trace_id);
            telemetry.set_trace_enabled(true);
        }
        let _root = telemetry.span("dist.coordinate");
        let estimator = grid_estimator(self.job.estimator).map_err(DistError::BadJob)?;
        let fp = job_fingerprint(
            &self.ctx,
            estimator,
            self.job.probe_budget,
            self.job.estimator_seed,
        );

        // Load (or refuse) the checkpoint journal exactly like the
        // in-process engine: same fingerprint, same not-empty guard.
        let mut records: HashMap<ProbeId, ProbeRecord> = HashMap::new();
        let mut writer = None;
        if let Some(dir) = &self.opts.checkpoint_dir {
            let state = load_journal(dir, fp)?;
            if !self.opts.resume && (state.shards + state.corrupt_shards) > 0 {
                return Err(JournalError::NotEmpty { dir: dir.clone() }.into());
            }
            if self.opts.resume {
                records = state.records;
            }
            writer = Some(JournalWriter::open(dir, fp, state.next_seq)?);
        }
        let resumed = records.len();

        let shards = self.ctx.shards();
        let total_shards = shards.len();
        // In estimation mode a pair shard only carries its selected
        // probes, so resume completeness is "any record present": CLSJ
        // shard commits are atomic (a corrupt shard is dropped wholly)
        // and workers ship each shard's whole selection in one
        // ShardDone. A pair shard whose selection was empty is simply
        // re-leased — workers return it instantly.
        let complete = |shard: &ShardSpec| match (estimator, *shard) {
            (Some(_), ShardSpec::Pair { outer }) => records
                .keys()
                .any(|id| matches!(id, ProbeId::Pair { layer_i, .. } if *layer_i == outer)),
            _ => self
                .ctx
                .shard_probes(*shard)
                .iter()
                .all(|id| records.contains_key(id)),
        };
        let pending: Vec<ShardSpec> = shards.into_iter().filter(|s| !complete(s)).collect();
        if self.opts.verbose {
            eprintln!(
                "dist: {} shards ({} resumed complete), {} journaled probes",
                total_shards,
                total_shards - pending.len(),
                resumed
            );
        }
        telemetry.counter("dist.resumed_probes").add(resumed as u64);

        let pool = &self.pool;
        let spec = JobSpec {
            fingerprint: fp,
            ..self.job.clone()
        };
        // One journal shard per integrated shard; records the journal
        // already held are never appended twice.
        let probes = telemetry.counter("dist.probes");
        let commit = |shard: &[ProbeRecord]| -> Result<(), JournalError> {
            let fresh: Vec<&ProbeRecord> = shard
                .iter()
                .filter(|r| !records.contains_key(&r.id))
                .collect();
            probes.add(fresh.len() as u64);
            match writer.as_mut() {
                Some(w) => {
                    fresh.into_iter().for_each(|r| w.append(*r));
                    w.commit()
                }
                None => Ok(()),
            }
        };
        let cancel = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let result = std::thread::scope(|scope| {
            if let Some(limit) = self.opts.idle_timeout {
                let (cancel, finished) = (&cancel, &finished);
                scope.spawn(move || cancel_when_idle(pool, limit, cancel, finished));
            }
            let result = pool.run_job(spec, pending, &cancel, None, None, commit);
            finished.store(true, Ordering::SeqCst);
            result
        });
        pool.shutdown();
        let outcome = result.map_err(|failure| match failure {
            JobFailure::Hook(e) => DistError::Journal(e),
            JobFailure::WorkerRetriesExhausted(detail) => DistError::WorkerRetriesExhausted(detail),
            JobFailure::Canceled | JobFailure::DeadlineExceeded => DistError::NoWorkers {
                waited: self.opts.idle_timeout.unwrap_or_default(),
            },
        })?;
        records.extend(outcome.records);

        let workers = outcome.workers;
        let straggler_seconds = workers.iter().map(|w| w.seconds).fold(0.0f64, f64::max);
        telemetry.set_gauge("dist.straggler_seconds", straggler_seconds);
        // Split wall time into fleet spin-up (bind → first lease grant,
        // dominated by connects, handshakes, and worker model builds)
        // vs. steady-state shard service, so operators do not read
        // startup cost as a sharding regression.
        let total_seconds = start.elapsed().as_secs_f64();
        let startup_seconds = outcome
            .first_lease_at
            .map(|t| t.duration_since(start).as_secs_f64())
            .unwrap_or(total_seconds);
        telemetry.set_gauge("dist.startup_seconds", startup_seconds);
        telemetry.set_gauge(
            "dist.steady_seconds",
            (total_seconds - startup_seconds).max(0.0),
        );
        for w in &workers {
            telemetry.set_gauge(&format!("dist.worker.{}.probes", w.id), w.probes as f64);
            telemetry.set_gauge(&format!("dist.worker.{}.shards", w.id), w.shards as f64);
            telemetry.set_gauge(&format!("dist.worker.{}.busy_seconds", w.id), w.seconds);
        }
        let stats = SensitivityStats {
            evaluations: (outcome.full_evals + outcome.cache_hits) as usize,
            seconds: total_seconds,
            threads_used: workers.len().max(1),
            prefix_cache_builds: outcome.cache_builds as usize,
            prefix_cache_hits: outcome.cache_hits as usize,
            full_evals: outcome.full_evals as usize,
            resumed,
            retried: outcome.retried as usize,
            ..SensitivityStats::default()
        };
        let matrix = assemble_omega(
            &self.ctx,
            estimator,
            self.job.probe_budget,
            self.job.estimator_seed,
            &records,
            stats,
        )?;
        Ok(DistOutcome {
            matrix,
            workers,
            evictions: outcome.evictions,
            rejected: pool.rejected_workers(),
            resumed,
            straggler_seconds,
        })
    }
}

/// Raises `cancel` once the pool has had no live worker for `limit`;
/// returns when the job finishes first.
fn cancel_when_idle(
    pool: &WorkerPool,
    limit: Duration,
    cancel: &AtomicBool,
    finished: &AtomicBool,
) {
    let mut idle_since = Instant::now();
    while !finished.load(Ordering::SeqCst) {
        if pool.live_workers() > 0 {
            idle_since = Instant::now();
        } else if idle_since.elapsed() > limit {
            cancel.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
