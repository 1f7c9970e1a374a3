//! The sweep worker: connects to a shard scheduler (a one-shot
//! coordinator or the `clado serve` daemon), reconstructs each job
//! locally, and evaluates leased shards until told to shut down.
//!
//! The worker's main thread is synchronous — request a lease, evaluate
//! it, report it — while a side thread sends `Heartbeat` frames every
//! [`WorkerOptions::heartbeat_interval`] so the coordinator can tell a
//! slow shard from a dead worker. Writes from the two threads are
//! serialized through a mutex; the main thread is the only reader.

use crate::backoff::connect_with_retry;
use crate::error::DistError;
use crate::frame::{FrameError, PROTOCOL_VERSION};
use crate::omega::NodeJob;
use crate::protocol::{self, JobSpec, Message};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_telemetry::{faultpoint, Telemetry};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the worker waits for a coordinator reply before giving up
/// (replies are immediate in a healthy exchange; this only bounds a
/// wedged coordinator).
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Options controlling a worker run.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Interval between liveness frames while the main thread measures.
    /// Must be comfortably below the coordinator's heartbeat timeout.
    pub heartbeat_interval: Duration,
    /// Total window for connecting (with retries) to the coordinator —
    /// workers often start before the coordinator finishes binding.
    pub connect_timeout: Duration,
    /// Maximum connection retries after the first failed attempt.
    /// Delays grow 100 ms → 1.6 s (capped, ±25% jitter), so the default
    /// of 5 spans roughly three seconds — fleet startup order doesn't
    /// matter. Whichever of the retry budget and [`Self::connect_timeout`]
    /// runs out first ends the attempt.
    pub connect_retries: u32,
    /// Telemetry sink for spans and counters.
    pub telemetry: Telemetry,
    /// Print coarse progress to stderr.
    pub verbose: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(10),
            connect_retries: 5,
            telemetry: Telemetry::disabled(),
            verbose: false,
        }
    }
}

/// What a worker accomplished before shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerReport {
    /// Shards evaluated and reported.
    pub shards: u64,
    /// Probe records contributed.
    pub probes: u64,
    /// Busy time: summed shard-evaluation wall time.
    pub seconds: f64,
}

/// A connection whose writes are serialized across threads (main loop +
/// heartbeat). Reads stay single-threaded on the main loop.
struct Conn {
    stream: TcpStream,
    write: Mutex<()>,
}

impl Conn {
    fn send(&self, msg: &Message) -> Result<(), FrameError> {
        let _guard = self.write.lock().unwrap_or_else(|p| p.into_inner());
        let mut w: &TcpStream = &self.stream;
        protocol::send(&mut w, msg)?;
        w.flush()?;
        Ok(())
    }

    fn recv(&self) -> Result<Message, FrameError> {
        let mut r: &TcpStream = &self.stream;
        protocol::recv(&mut r)
    }
}

/// Stops and joins the heartbeat thread on every exit path — including
/// a panic unwinding out of the lease loop, where leaving the thread
/// running would hold the socket open and stall the coordinator's
/// eviction until its heartbeat deadline.
struct HeartbeatGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatGuard {
    /// Sends `Heartbeat { lease }` every `interval` until dropped.
    fn start(conn: Arc<Conn>, lease: Arc<AtomicU64>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stopped.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                let msg = Message::Heartbeat {
                    lease: lease.load(Ordering::Relaxed),
                };
                if stopped.load(Ordering::Relaxed) || conn.send(&msg).is_err() {
                    break;
                }
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Runs a one-shot worker against the coordinator at `addr` until the
/// sweep completes (or fails): [`run_pool_worker`] with a provider that
/// is consulted once. `provider` reconstructs the model and sensitivity
/// set from the received [`JobSpec`] — the CLI passes the
/// pretrained-model loader; tests and benches pass synthetic builders.
///
/// # Errors
///
/// As [`run_pool_worker`]; a second, different job is a
/// [`DistError::Provider`] error.
pub fn run_worker<F>(
    addr: &str,
    provider: F,
    opts: &WorkerOptions,
) -> Result<WorkerReport, DistError>
where
    F: FnOnce(&JobSpec) -> Result<(Network, DataSplit), String>,
{
    let mut provider = Some(provider);
    run_pool_worker(
        addr,
        |job| match provider.take() {
            Some(provider) => provider(job),
            None => Err("a one-shot worker serves a single job".into()),
        },
        opts,
    )
}

/// Why the lease loop handed control back to the caller.
enum JobEnd {
    /// `JobDone` (v3): the job is over, the connection is not.
    JobOver,
    /// `Shutdown`: disconnect and exit.
    Shutdown,
}

/// The worker-driven lease/evaluate/report cycle for one job.
#[allow(clippy::too_many_arguments)]
fn lease_loop(
    conn: &Conn,
    node: &NodeJob,
    network: &mut Network,
    set: &DataSplit,
    telemetry: &Telemetry,
    current_lease: &AtomicU64,
    report: &mut WorkerReport,
    verbose: bool,
) -> Result<JobEnd, DistError> {
    let roundtrip = telemetry.histogram("dist.roundtrip");
    loop {
        let rt_start = Instant::now();
        conn.send(&Message::LeaseRequest)?;
        let reply = conn.recv()?;
        roundtrip.record(rt_start.elapsed());
        match reply {
            Message::Lease {
                lease,
                span_id,
                shard,
            } => {
                current_lease.store(lease, Ordering::Relaxed);
                // Debug-build fail point: a worker process armed with
                // `dist.worker.shard=abort` dies here, mid-lease,
                // exactly like a SIGKILL.
                faultpoint!("dist.worker.shard", std::process::abort());
                let (records, stats) = {
                    let _s = telemetry.span_with_args(
                        "dist.work.shard",
                        vec![
                            ("lease".to_string(), (lease as i64).into()),
                            ("span_id".to_string(), (span_id as i64).into()),
                            ("shard".to_string(), shard.to_string().into()),
                        ],
                    );
                    node.run_shard(network, set, shard, telemetry)
                };
                current_lease.store(0, Ordering::Relaxed);
                report.shards += 1;
                report.probes += records.len() as u64;
                report.seconds += stats.seconds;
                telemetry.counter("dist.shards_evaluated").incr();
                if verbose {
                    eprintln!(
                        "dist: evaluated {shard} ({} probes, {:.2}s)",
                        records.len(),
                        stats.seconds
                    );
                }
                // Ship the trace events accumulated while this shard
                // ran (the buffer is empty when tracing is off).
                clado_telemetry::flush_thread_local();
                let events = telemetry.take_trace_events();
                conn.send(&Message::ShardDone {
                    lease,
                    shard,
                    records,
                    stats,
                    events,
                })?;
            }
            Message::Idle { retry_ms } => {
                std::thread::sleep(Duration::from_millis(u64::from(retry_ms)));
            }
            Message::JobDone => return Ok(JobEnd::JobOver),
            Message::Shutdown => return Ok(JobEnd::Shutdown),
            Message::Reject { reason } => return Err(DistError::Rejected(reason)),
            other => {
                return Err(FrameError::Malformed(format!(
                    "unexpected coordinator message kind {}",
                    other.kind()
                ))
                .into())
            }
        }
    }
}

/// Runs a worker against the scheduler at `addr`. The connection
/// outlives a single job: when the scheduler ends one job with
/// `JobDone`, the worker keeps the socket warm and awaits the next
/// `Job`; `Shutdown` — or the scheduler closing the socket while the
/// worker is between jobs — ends the session cleanly. The provider is
/// consulted once per distinct job spec: repeat specs (ignoring the
/// per-request trace id) reuse the previously reconstructed model and
/// sensitivity set, which is what makes a warm pool cheap to hit.
///
/// # Errors
///
/// [`DistError::Rejected`] when the scheduler refuses this worker
/// (version or fingerprint mismatch), [`DistError::Provider`] when a job
/// cannot be reconstructed, and [`DistError::Frame`]/[`DistError::Io`]
/// when the link drops mid-job (a between-jobs disconnect is a clean
/// exit).
pub fn run_pool_worker<F>(
    addr: &str,
    mut provider: F,
    opts: &WorkerOptions,
) -> Result<WorkerReport, DistError>
where
    F: FnMut(&JobSpec) -> Result<(Network, DataSplit), String>,
{
    let telemetry = opts.telemetry.clone();
    let _root = telemetry.span("dist.work.pool");
    let stream = connect_with_retry(addr, opts.connect_retries, Some(opts.connect_timeout))
        .map_err(DistError::Io)?;
    stream.set_nodelay(true).map_err(DistError::Io)?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(DistError::Io)?;
    let conn = Arc::new(Conn {
        stream,
        write: Mutex::new(()),
    });
    conn.send(&Message::Hello {
        protocol: PROTOCOL_VERSION,
        pid: std::process::id(),
    })?;

    // One heartbeat thread for the whole connection (lease 0 between
    // jobs): the daemon's heartbeat machinery is what detects a dead
    // pooled worker, so the liveness signal must not pause between jobs.
    let current_lease = Arc::new(AtomicU64::new(0));
    let _heartbeat = HeartbeatGuard::start(
        Arc::clone(&conn),
        Arc::clone(&current_lease),
        opts.heartbeat_interval,
    );

    let mut cached: Option<(JobSpec, Network, DataSplit)> = None;
    let mut report = WorkerReport::default();
    loop {
        // Await the next job. Read timeouts are routine here — the pool
        // may sit idle between requests — and the heartbeat thread keeps
        // the link alive meanwhile.
        let job = match conn.recv() {
            Ok(Message::Job(job)) => job,
            Ok(Message::Shutdown) => return Ok(report),
            Ok(Message::Reject { reason }) => return Err(DistError::Rejected(reason)),
            Ok(other) => {
                return Err(FrameError::Malformed(format!(
                    "expected Job, got kind {}",
                    other.kind()
                ))
                .into())
            }
            Err(e) if e.is_timeout() => continue,
            Err(e) if e.is_disconnect() => return Ok(report),
            Err(e) => return Err(e.into()),
        };
        if job.trace_id != 0 {
            telemetry.set_trace_id(job.trace_id);
            telemetry.set_trace_enabled(true);
        }

        let key = JobSpec {
            trace_id: 0,
            ..job.clone()
        };
        let fresh = !matches!(&cached, Some((k, _, _)) if *k == key);
        if fresh {
            let _s = telemetry.span("dist.work.load");
            let (network, set) = provider(&job).map_err(DistError::Provider)?;
            cached = Some((key, network, set));
        } else {
            telemetry.counter("dist.pool.model_reuse").incr();
        }
        let Some((_, network, set)) = cached.as_mut() else {
            unreachable!("cache populated above");
        };
        let node = NodeJob::build(&job, network, set, &telemetry)?;
        let fingerprint = node.fingerprint;
        if opts.verbose && fingerprint != job.fingerprint {
            eprintln!(
                "dist: local fingerprint {fingerprint:#018x} differs from job \
                 {:#018x}; expecting rejection",
                job.fingerprint
            );
        }
        conn.send(&Message::Ready {
            fingerprint,
            clock_us: telemetry.now_us(),
        })?;
        match lease_loop(
            &conn,
            &node,
            network,
            set,
            &telemetry,
            &current_lease,
            &mut report,
            opts.verbose,
        )? {
            JobEnd::JobOver => {
                telemetry.counter("dist.pool.jobs_completed").incr();
            }
            JobEnd::Shutdown => return Ok(report),
        }
    }
}
