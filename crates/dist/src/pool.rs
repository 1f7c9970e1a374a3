//! The shard scheduler: the one lease / heartbeat / eviction state
//! machine behind every sharded Ω sweep.
//!
//! CLADO's Ω costs ½·|𝔹|I(|𝔹|I+1) forward evaluations, so the probe
//! grid is sharded across worker processes. Two callers drive this
//! scheduler:
//!
//! * the one-shot [`crate::Coordinator`] (`clado measure --workers`):
//!   one job on a pool of its own, then [`WorkerPool::shutdown`];
//! * the `clado serve` daemon: one long-lived pool whose warm worker
//!   connections outlive any single request while jobs come and go.
//!
//! # Connection lifecycle
//!
//! A worker connects and sends `Hello` (a protocol-version mismatch is
//! answered with `Reject`). It then cycles idle → job → idle until drain
//! or death: the scheduler hands it a job with open work (`Job`), the
//! worker rebuilds the model and answers `Ready` with its config
//! fingerprint, then leases shards (`LeaseRequest` → `Lease` or `Idle`)
//! and reports each one (`ShardDone`). Once the job's last shard lands,
//! workers leasing from it get `JobDone` and return to the idle pool,
//! warm; `Shutdown` is reserved for [`WorkerPool::shutdown`]. Any frame
//! resets the heartbeat deadline. A read timeout, a closed socket or a
//! protocol violation ends the connection, and every exit path requeues
//! whatever the worker held.
//!
//! # Policies
//!
//! * **Retries with backoff.** A shard requeued by an eviction carries
//!   an attempt count and a not-before instant (the jitter-free form of
//!   the reconnect schedule: 100 ms doubling to 1.6 s). Past
//!   [`PoolOptions::shard_retries`] attempts the *job* fails with
//!   [`JobFailure::WorkerRetriesExhausted`] — never the pool.
//! * **Fingerprint rejection.** A worker whose `Ready` fingerprint
//!   differs from the job's is sent `Reject`, counted, and dropped; the
//!   job keeps running on the workers that agree.
//! * **Shard hook.** [`WorkerPool::run_job`] hands each newly integrated
//!   shard's records to the caller's hook, outside the pool lock: the
//!   coordinator commits one journal shard per call, the daemon streams
//!   progress to its client. A job succeeds only after every shard's
//!   hook has returned `Ok`.
//! * **Local takeover.** A caller that passes a local evaluator has its
//!   job evaluated in-process while zero workers are live, so a daemon
//!   with no fleet still serves requests (slowly) instead of hanging.
//! * **Tracing.** For a job whose `trace_id` is nonzero, lease grants,
//!   heartbeats, shard completions and evictions become trace instants,
//!   each lease carries a span id, and the trace events a worker ships
//!   in `ShardDone` are re-based onto this process's clock.

use crate::backoff::nominal_backoff;
use crate::frame::{FrameError, PROTOCOL_VERSION};
use crate::protocol::{self, JobSpec, Message};
use clado_core::{ProbeId, ProbeRecord, ShardRunStats, ShardSpec};
use clado_telemetry::{ManifestValue, Telemetry, TraceEvent};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Milliseconds a worker is told to wait when its job has nothing
/// leasable right now (all shards leased, or requeued under backoff).
const IDLE_RETRY_MS: u32 = 50;

/// Read timeout while a worker idles between jobs: short, so the
/// connection thread notices new jobs and drain promptly.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Options controlling the worker pool.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// A worker that sends no frame for this long loses its leases.
    pub heartbeat_timeout: Duration,
    /// A shard evicted (worker death, hang, or protocol violation) more
    /// than this many times fails its job with
    /// [`JobFailure::WorkerRetriesExhausted`].
    pub shard_retries: u32,
    /// Telemetry sink for pool counters, histograms and trace instants.
    pub telemetry: Telemetry,
    /// Print coarse progress to stderr.
    pub verbose: bool,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_secs(3),
            shard_retries: 5,
            telemetry: Telemetry::disabled(),
            verbose: false,
        }
    }
}

/// Per-worker accounting for one job.
#[derive(Debug, Clone, Copy)]
pub struct WorkerSummary {
    /// Pool-assigned worker id (connection order).
    pub id: u64,
    /// The worker's OS process id from its `Hello`.
    pub pid: u32,
    /// Shards this worker completed.
    pub shards: u64,
    /// Probe records this worker contributed.
    pub probes: u64,
    /// Busy time: summed shard-evaluation wall time.
    pub seconds: f64,
}

/// What one completed job produced.
pub struct JobOutcome {
    /// Every probe record of the job's grid, keyed by probe id.
    pub records: HashMap<ProbeId, ProbeRecord>,
    /// Evaluations that ran the full forward pass.
    pub full_evals: u64,
    /// Evaluations served from prefix-activation caches.
    pub cache_hits: u64,
    /// Prefix caches built.
    pub cache_builds: u64,
    /// Non-finite losses re-evaluated once.
    pub retried: u64,
    /// Summed shard-evaluation wall time across workers.
    pub seconds: f64,
    /// Distinct pooled workers that completed at least one shard.
    pub workers_used: usize,
    /// Every worker that passed the job's `Ready` check, by id.
    pub workers: Vec<WorkerSummary>,
    /// Leases evicted (and their shards requeued) from dead, hung or
    /// misbehaving workers.
    pub evictions: u64,
    /// When the first shard was leased to a worker (`None` when no
    /// worker ever leased one).
    pub first_lease_at: Option<Instant>,
}

/// Why a job (never the pool) failed. `E` is the error type of the
/// caller's shard hook.
#[derive(Debug)]
pub enum JobFailure<E = std::convert::Infallible> {
    /// The caller's deadline expired before the grid completed.
    DeadlineExceeded,
    /// The caller's cancel flag was raised (client disconnect, drain).
    Canceled,
    /// Some shard was evicted past the retry cap.
    WorkerRetriesExhausted(String),
    /// The caller's shard hook failed; the job stopped there.
    Hook(E),
}

#[derive(Default)]
struct AggStats {
    full_evals: u64,
    cache_hits: u64,
    cache_builds: u64,
    retried: u64,
    /// Workers that passed this job's `Ready` check, by id.
    workers: BTreeMap<u64, WorkerSummary>,
    /// Leases of this job evicted from dead, hung or misbehaving workers.
    evictions: u64,
    /// When this job's first shard was leased to a worker.
    first_lease_at: Option<Instant>,
}

struct JobState {
    spec: JobSpec,
    pending: VecDeque<ShardSpec>,
    /// Earliest re-lease instant for shards requeued by an eviction.
    not_before: HashMap<ShardSpec, Instant>,
    /// Evictions suffered per shard.
    attempts: HashMap<ShardSpec, u32>,
    /// lease id → (shard, worker id).
    leases: HashMap<u64, (ShardSpec, u64)>,
    /// Shards integrated so far.
    done: HashSet<ShardSpec>,
    total: usize,
    /// Records of integrated shards the waiter has not yet handed to the
    /// caller's shard hook.
    records: HashMap<ShardSpec, Vec<ProbeRecord>>,
    agg: AggStats,
    workers_used: HashSet<u64>,
    seconds: f64,
    /// Retries-exhausted detail; set once, checked by the waiter.
    failed: Option<String>,
}

struct PoolState {
    jobs: BTreeMap<u64, JobState>,
    next_job: u64,
    next_lease: u64,
    /// worker id → pid of currently connected, handshaken workers.
    live_workers: HashMap<u64, u32>,
}

struct Shared {
    state: Mutex<PoolState>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Live connection threads (accept-side guard for drain).
    conns: AtomicUsize,
    /// Workers refused at the handshake (protocol version or config
    /// fingerprint).
    rejected: AtomicU64,
    telemetry: Telemetry,
    /// Prefix of every pool metric name, chosen by the caller.
    prefix: &'static str,
    heartbeat_timeout: Duration,
    shard_retries: u32,
    verbose: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn count(&self, name: &str, n: u64) {
        self.telemetry
            .counter(&format!("{}.{name}", self.prefix))
            .add(n);
    }

    /// Prints one line of coarse progress when verbose.
    fn log(&self, line: std::fmt::Arguments) {
        if self.verbose {
            eprintln!("{}: {line}", self.prefix);
        }
    }

    /// Records a trace instant for a worker serving a traced job.
    fn instant(&self, peer: &Peer, name: &str, args: &[(&str, ManifestValue)]) {
        if peer.trace.is_some() {
            self.telemetry.instant(name, args);
        }
    }

    /// Refuses a worker with `Reject` and counts it.
    fn reject(&self, s: &mut &TcpStream, id: u64, reason: String) {
        self.log(format_args!("worker {id} rejected: {reason}"));
        let _ = protocol::send(s, &Message::Reject { reason });
        self.rejected.fetch_add(1, Ordering::SeqCst);
        self.count("rejected_workers", 1);
    }
}

/// Backoff before re-leasing a shard after its `attempt`-th eviction
/// (1-based): the reconnect schedule without its jitter — re-leases are
/// serialized through the scheduler lock, so there is no thundering
/// herd to break up.
fn retry_backoff(attempt: u32) -> Duration {
    nominal_backoff(attempt.saturating_sub(1))
}

/// A pool of worker connections serving a stream of measurement jobs.
/// Bind once, run any number of jobs ([`WorkerPool::run_job`]) from any
/// number of threads, then [`WorkerPool::shutdown`].
pub struct WorkerPool {
    shared: Arc<Shared>,
    addr: SocketAddr,
    /// The bound listener, until the accept thread takes it.
    listener: Mutex<Option<TcpListener>>,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Binds the worker-facing socket and starts accepting workers at
    /// once, so a warm pool forms before the first job. Use address
    /// `127.0.0.1:0` to let the OS pick a port. Pool metrics are named
    /// `<metric_prefix>.<name>` (`workers_connected`, `evictions`,
    /// `local_shards`, `shard_service`, …).
    ///
    /// # Errors
    ///
    /// When the address cannot be bound.
    pub fn bind(addr: &str, opts: PoolOptions, metric_prefix: &'static str) -> io::Result<Self> {
        let pool = Self::new(TcpListener::bind(addr)?, opts, metric_prefix)?;
        pool.start_accepting();
        Ok(pool)
    }

    /// Wraps an already bound listener. Accepting starts with the first
    /// job, so a worker that connects early gets its `Job` right after
    /// `Hello`.
    pub(crate) fn new(
        listener: TcpListener,
        opts: PoolOptions,
        metric_prefix: &'static str,
    ) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                jobs: BTreeMap::new(),
                next_job: 1,
                next_lease: 1,
                live_workers: HashMap::new(),
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            telemetry: opts.telemetry,
            prefix: metric_prefix,
            heartbeat_timeout: opts.heartbeat_timeout,
            shard_retries: opts.shard_retries,
            verbose: opts.verbose,
        });
        Ok(Self {
            shared,
            addr,
            listener: Mutex::new(Some(listener)),
            accept: Mutex::new(None),
        })
    }

    fn start_accepting(&self) {
        let Some(listener) = self
            .listener
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
        else {
            return;
        };
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::spawn(move || accept_loop(&listener, &shared));
        *self.accept.lock().unwrap_or_else(|p| p.into_inner()) = Some(handle);
    }

    /// The address workers should connect to.
    pub fn worker_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently connected, handshaken workers.
    pub fn live_workers(&self) -> usize {
        self.shared.lock().live_workers.len()
    }

    /// Workers refused at the handshake so far.
    pub(crate) fn rejected_workers(&self) -> u64 {
        self.shared.rejected.load(Ordering::SeqCst)
    }

    /// Runs one measurement job to completion: registers the shard grid,
    /// lets workers lease from it, and blocks until every shard is done
    /// (or the job fails). `local`, when given, evaluates one shard
    /// in-process and is only consulted while zero workers are live.
    /// `on_shard` is called once per integrated shard with its records,
    /// on this thread and outside the pool lock.
    ///
    /// # Errors
    ///
    /// [`JobFailure::DeadlineExceeded`] / [`JobFailure::Canceled`] when
    /// the caller's deadline or cancel flag fires first,
    /// [`JobFailure::WorkerRetriesExhausted`] when a shard was evicted
    /// past the retry cap, and [`JobFailure::Hook`] when `on_shard`
    /// fails. Failures never tear down the pool.
    pub fn run_job<E>(
        &self,
        spec: JobSpec,
        shards: Vec<ShardSpec>,
        cancel: &AtomicBool,
        deadline: Option<Instant>,
        mut local: Option<&mut dyn FnMut(ShardSpec) -> (Vec<ProbeRecord>, ShardRunStats)>,
        mut on_shard: impl FnMut(&[ProbeRecord]) -> Result<(), E>,
    ) -> Result<JobOutcome, JobFailure<E>> {
        let shared = &self.shared;
        let total = shards.len();
        let job_id = {
            let mut g = shared.lock();
            let id = g.next_job;
            g.next_job += 1;
            g.jobs.insert(
                id,
                JobState {
                    spec,
                    pending: shards.into(),
                    not_before: HashMap::new(),
                    attempts: HashMap::new(),
                    leases: HashMap::new(),
                    done: HashSet::new(),
                    total,
                    records: HashMap::new(),
                    agg: AggStats::default(),
                    workers_used: HashSet::new(),
                    seconds: 0.0,
                    failed: None,
                },
            );
            id
        };
        shared.cv.notify_all();
        shared.count("jobs", 1);
        self.start_accepting();

        let mut records = HashMap::new();
        let mut g = shared.lock();
        loop {
            let Some(job) = g.jobs.get_mut(&job_id) else {
                unreachable!("job {job_id} only removed by this waiter");
            };
            // Hand new shards to the hook outside the lock: it commits
            // files or writes to a client socket, which must never stall
            // the scheduler.
            if !job.records.is_empty() {
                let fresh: Vec<Vec<ProbeRecord>> = job.records.drain().map(|(_, r)| r).collect();
                drop(g);
                for shard_records in fresh {
                    if let Err(e) = on_shard(&shard_records) {
                        shared.lock().jobs.remove(&job_id);
                        shared.cv.notify_all();
                        return Err(JobFailure::Hook(e));
                    }
                    records.extend(shard_records.into_iter().map(|r| (r.id, r)));
                }
                g = shared.lock();
                continue;
            }
            let failure = if let Some(detail) = job.failed.take() {
                Some(JobFailure::WorkerRetriesExhausted(detail))
            } else if job.done.len() == job.total {
                None
            } else if cancel.load(Ordering::Relaxed) {
                Some(JobFailure::Canceled)
            } else if deadline.is_some_and(|d| Instant::now() >= d) {
                Some(JobFailure::DeadlineExceeded)
            } else {
                // Local takeover: with no live workers, the waiter itself
                // evaluates pending shards (backoff ignored — there is no
                // other worker to wait for).
                let shard = match local.as_deref_mut() {
                    Some(eval) if g.live_workers.is_empty() => g
                        .jobs
                        .get_mut(&job_id)
                        .and_then(|job| job.pending.pop_front())
                        .map(|shard| (eval, shard)),
                    _ => None,
                };
                if let Some((eval, shard)) = shard {
                    drop(g);
                    let (shard_records, stats) = eval(shard);
                    shared.count("local_shards", 1);
                    g = shared.lock();
                    if let Some(job) = g.jobs.get_mut(&job_id) {
                        integrate_done(job, None, shard, shard_records, &stats);
                    }
                } else {
                    g = shared
                        .cv
                        .wait_timeout(g, Duration::from_millis(50))
                        .unwrap_or_else(|p| p.into_inner())
                        .0;
                }
                continue;
            };
            let job = g.jobs.remove(&job_id).expect("job present");
            shared.cv.notify_all();
            if let Some(failure) = failure {
                return Err(failure);
            }
            return Ok(JobOutcome {
                records,
                full_evals: job.agg.full_evals,
                cache_hits: job.agg.cache_hits,
                cache_builds: job.agg.cache_builds,
                retried: job.agg.retried,
                seconds: job.seconds,
                workers_used: job.workers_used.len(),
                workers: job.agg.workers.into_values().collect(),
                evictions: job.agg.evictions,
                first_lease_at: job.agg.first_lease_at,
            });
        }
    }

    /// Drains the pool: stops accepting (workers still in the listen
    /// backlog are accepted once and sent `Shutdown` rather than reset),
    /// tells every idle worker to shut down, and waits (bounded) for
    /// connection threads to finish. Workers mid-lease finish naturally
    /// once their jobs are removed.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(handle) = self.accept.lock().unwrap_or_else(|p| p.into_inner()).take() {
            let _ = handle.join();
        }
        // Connection threads notice the flag within one idle poll and
        // send Shutdown; bound the wait so a wedged socket cannot hold
        // the caller's exit hostage.
        let deadline = Instant::now() + self.shared.heartbeat_timeout + Duration::from_secs(1);
        while self.shared.conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Accepts workers until shutdown, then drains the listen backlog once.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut next_worker = 1u64;
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        match listener.accept() {
            Ok((stream, _peer)) => {
                let id = next_worker;
                next_worker += 1;
                let shared = Arc::clone(shared);
                shared.conns.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    serve_conn(stream, id, &shared);
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && !draining => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Integrates one completed shard. Idempotent: a duplicate completion
/// (a shard finished again by a re-leased worker after an eviction
/// race) is dropped whole. `worker` is `None` for a local shard.
fn integrate_done(
    job: &mut JobState,
    worker: Option<u64>,
    shard: ShardSpec,
    records: Vec<ProbeRecord>,
    stats: &ShardRunStats,
) {
    if !job.done.insert(shard) {
        return;
    }
    job.agg.full_evals += stats.full_evals;
    job.agg.cache_hits += stats.cache_hits;
    job.agg.cache_builds += stats.cache_builds;
    job.agg.retried += stats.retried;
    job.seconds += stats.seconds;
    if let Some(w) = worker {
        job.workers_used.insert(w);
        if let Some(summary) = job.agg.workers.get_mut(&w) {
            summary.shards += 1;
            summary.probes += records.len() as u64;
            summary.seconds += stats.seconds;
        }
    }
    job.records.insert(shard, records);
}

/// Requeues every lease `worker` held, bumping per-shard attempt counts
/// and backoff. A shard past the retry cap fails its job. Returns how
/// many leases were evicted.
fn evict_worker(g: &mut PoolState, worker: u64, shard_retries: u32) -> u64 {
    let now = Instant::now();
    let mut evicted = 0u64;
    for job in g.jobs.values_mut() {
        let held: Vec<u64> = job
            .leases
            .iter()
            .filter(|(_, (_, w))| *w == worker)
            .map(|(&l, _)| l)
            .collect();
        for lease in held {
            let Some((shard, _)) = job.leases.remove(&lease) else {
                continue;
            };
            evicted += 1;
            job.agg.evictions += 1;
            if job.done.contains(&shard) {
                continue;
            }
            let attempts = job.attempts.entry(shard).or_insert(0);
            *attempts += 1;
            if *attempts > shard_retries {
                job.failed.get_or_insert_with(|| {
                    format!(
                        "shard {shard} evicted {attempts} times across workers \
                         (retry cap {shard_retries})"
                    )
                });
                continue;
            }
            let attempts = *attempts;
            job.not_before.insert(shard, now + retry_backoff(attempts));
            job.pending.push_front(shard);
        }
    }
    g.live_workers.remove(&worker);
    evicted
}

/// Pops the first shard whose backoff (if any) has expired.
fn pop_leasable(job: &mut JobState, now: Instant) -> Option<ShardSpec> {
    let idx = job
        .pending
        .iter()
        .position(|s| job.not_before.get(s).is_none_or(|&t| t <= now))?;
    job.pending.remove(idx)
}

/// First job a newly idle worker should serve: prefer one with a shard
/// leasable right now, else one with any outstanding work (so the worker
/// is on station when a backoff expires or a re-lease is needed).
fn pick_job(g: &mut PoolState) -> Option<(u64, JobSpec)> {
    let now = Instant::now();
    let leasable = g.jobs.iter().find_map(|(&id, job)| {
        let open = job.failed.is_none() && job.done.len() < job.total;
        (open
            && job
                .pending
                .iter()
                .any(|s| job.not_before.get(s).is_none_or(|&t| t <= now)))
        .then(|| (id, job.spec.clone()))
    });
    leasable.or_else(|| {
        g.jobs.iter().find_map(|(&id, job)| {
            let open = job.failed.is_none() && job.done.len() < job.total;
            (open && (!job.pending.is_empty() || !job.leases.is_empty()))
                .then(|| (id, job.spec.clone()))
        })
    })
}

/// One handshaken worker connection.
struct Peer {
    id: u64,
    pid: u32,
    /// While the worker serves a traced job: the offset (µs) that
    /// re-bases its trace clock onto ours. The worker reports its clock
    /// at `Ready`; network latency errs the offset late by at most one
    /// frame round-trip.
    trace: Option<i64>,
}

/// Serves one worker connection: handshake once, then the idle ↔ job
/// cycle until drain, death or rejection. Never panics on worker input;
/// every exit path evicts whatever the worker still held.
fn serve_conn(stream: TcpStream, id: u64, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // Both directions are bounded during the handshake so a peer that
    // connects but never sends (or never drains) a frame cannot pin this
    // thread; the expired wait surfaces as the typed `HandshakeTimeout`
    // rather than a silent disconnect.
    let _ = stream.set_read_timeout(Some(shared.heartbeat_timeout));
    let _ = stream.set_write_timeout(Some(shared.heartbeat_timeout));
    let mut s = &stream;
    let pid = match protocol::recv(&mut s) {
        Ok(Message::Hello { protocol, pid }) if protocol == PROTOCOL_VERSION => pid,
        Ok(Message::Hello { protocol, .. }) => {
            shared.reject(
                &mut s,
                id,
                format!("protocol version {protocol} unsupported (want {PROTOCOL_VERSION})"),
            );
            return;
        }
        Ok(_) => {
            shared.count("protocol_errors", 1);
            return;
        }
        Err(e) => {
            match e.or_handshake_timeout() {
                FrameError::HandshakeTimeout => shared.count("handshake_timeouts", 1),
                e if !e.is_disconnect() => shared.count("protocol_errors", 1),
                _ => {}
            }
            return;
        }
    };
    // Post-handshake writes (jobs, leases, shutdowns) go back to
    // blocking: slow-reading workers are policed by the heartbeat
    // deadline.
    let _ = stream.set_write_timeout(None);
    shared.lock().live_workers.insert(id, pid);
    shared.cv.notify_all();
    shared.count("workers_connected", 1);
    shared.log(format_args!("worker {id} (pid {pid}) connected"));

    let mut peer = Peer {
        id,
        pid,
        trace: None,
    };
    drive_worker(&stream, &mut peer, shared);
    let evicted = evict_worker(&mut shared.lock(), id, shared.shard_retries);
    shared.cv.notify_all();
    if evicted > 0 {
        shared.count("evictions", evicted);
        let args = [("worker", id.into()), ("requeued", evicted.into())];
        shared.instant(&peer, "dist.eviction", &args);
        shared.log(format_args!(
            "worker {id} lost; requeued {evicted} leased shard(s)"
        ));
    } else {
        shared.log(format_args!("worker {id} left"));
    }
}

/// The idle ↔ job cycle of one handshaken worker.
fn drive_worker(stream: &TcpStream, peer: &mut Peer, shared: &Shared) {
    let mut s = stream;
    let hb = shared.heartbeat_timeout;
    loop {
        // Idle phase: short poll so drain and new jobs are noticed fast.
        // Only tiny heartbeat frames flow here, so the short timeout
        // cannot bisect a large frame mid-read.
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        let mut last_frame = Instant::now();
        let (job_id, spec) = loop {
            if shared.shutdown.load(Ordering::Relaxed) {
                let _ = protocol::send(&mut s, &Message::Shutdown);
                return;
            }
            // Look for work before *every* blocking read: a fresh worker
            // gets its Job right after Hello, and a worker heartbeating
            // faster than the idle poll cannot starve job pickup.
            if let Some(picked) = pick_job(&mut shared.lock()) {
                break picked;
            }
            match protocol::recv(&mut s) {
                Ok(Message::Heartbeat { .. }) => last_frame = Instant::now(),
                Ok(_) => return shared.count("protocol_errors", 1),
                Err(e) if e.is_timeout() && last_frame.elapsed() <= hb => {}
                Err(_) => return,
            }
        };
        let expect = spec.fingerprint;
        let traced = spec.trace_id != 0;
        if protocol::send(&mut s, &Message::Job(spec)).is_err() {
            return;
        }

        // Await Ready (heartbeats flow while the worker builds a model
        // it hasn't cached). Ready frames are small, so the short
        // timeout stays safe here too.
        let (fingerprint, clock_us) = loop {
            match protocol::recv(&mut s) {
                Ok(Message::Heartbeat { .. }) => last_frame = Instant::now(),
                Ok(Message::Ready {
                    fingerprint,
                    clock_us,
                }) => break (fingerprint, clock_us),
                Ok(_) => return shared.count("protocol_errors", 1),
                Err(e) if e.is_timeout() && last_frame.elapsed() <= hb => {}
                Err(_) => return,
            }
        };
        if fingerprint != expect {
            // A worker that reconstructs a different configuration would
            // poison the grid: refuse it, and keep the job running on the
            // workers that agree.
            return shared.reject(
                &mut s,
                peer.id,
                format!(
                    "config fingerprint mismatch (worker {fingerprint:#018x}, \
                     coordinator {expect:#018x})"
                ),
            );
        }
        peer.trace = traced.then(|| shared.telemetry.now_us() as i64 - clock_us as i64);
        if traced {
            shared
                .telemetry
                .set_process_label(peer.pid, &format!("worker-{}", peer.id));
        }
        if let Some(job) = shared.lock().jobs.get_mut(&job_id) {
            job.agg.workers.entry(peer.id).or_insert(WorkerSummary {
                id: peer.id,
                pid: peer.pid,
                shards: 0,
                probes: 0,
                seconds: 0.0,
            });
        }

        // Lease loop: the long heartbeat timeout is the read timeout
        // here — ShardDone frames can be large and must not be bisected
        // by a short poll.
        let _ = stream.set_read_timeout(Some(hb));
        if !lease_loop(stream, job_id, peer, shared) {
            return;
        }
    }
}

/// Serves one job's leases to `peer`. Returns `true` once the job is
/// over (`JobDone` sent: back to the idle phase), `false` when the
/// connection ends.
fn lease_loop(stream: &TcpStream, job_id: u64, peer: &Peer, shared: &Shared) -> bool {
    let mut s = stream;
    let worker = ("worker", ManifestValue::from(peer.id));
    loop {
        match protocol::recv(&mut s) {
            Ok(Message::LeaseRequest) => {
                let reply = lease_reply(&mut shared.lock(), job_id, peer);
                if let Message::Lease {
                    lease,
                    span_id,
                    shard,
                } = &reply
                {
                    let args = [
                        worker.clone(),
                        ("lease", (*lease).into()),
                        ("span_id", (*span_id).into()),
                        ("shard", shard.to_string().into()),
                    ];
                    shared.instant(peer, "dist.lease_grant", &args);
                }
                let job_over = matches!(reply, Message::JobDone);
                if protocol::send(&mut s, &reply).is_err() {
                    return false;
                }
                if job_over {
                    return true;
                }
            }
            Ok(Message::Heartbeat { lease }) => {
                shared.instant(
                    peer,
                    "dist.heartbeat",
                    &[worker.clone(), ("lease", lease.into())],
                );
            }
            Ok(Message::ShardDone {
                lease,
                shard,
                records,
                stats,
                events,
            }) => {
                if let Some(offset) = peer.trace {
                    ingest_worker_events(&shared.telemetry, events, peer.pid, offset);
                }
                let args = [
                    worker.clone(),
                    ("lease", lease.into()),
                    ("shard", shard.to_string().into()),
                    ("probes", records.len().into()),
                ];
                shared.instant(peer, "dist.shard_done", &args);
                if let Some(job) = shared.lock().jobs.get_mut(&job_id) {
                    job.leases.remove(&lease);
                    integrate_done(job, Some(peer.id), shard, records, &stats);
                    let (done, total) = (job.done.len(), job.total);
                    shared.log(format_args!(
                        "worker {} finished {shard} ({done}/{total} shards)",
                        peer.id
                    ));
                }
                shared.cv.notify_all();
                shared.count("shards_completed", 1);
                shared
                    .telemetry
                    .histogram(&format!("{}.shard_service", shared.prefix))
                    .record_us((stats.seconds * 1e6) as u64);
            }
            Ok(other) => {
                shared.count("protocol_errors", 1);
                let kind = other.kind();
                shared.log(format_args!(
                    "worker {} sent unexpected kind {kind}",
                    peer.id
                ));
                return false;
            }
            Err(e) => {
                if !e.is_disconnect() {
                    shared.count("protocol_errors", 1);
                }
                return false;
            }
        }
    }
}

/// Answers one `LeaseRequest` from `peer` for job `job_id`.
fn lease_reply(g: &mut PoolState, job_id: u64, peer: &Peer) -> Message {
    let lease = g.next_lease;
    let now = Instant::now();
    // Job gone (completed, failed, canceled) or complete: back to the
    // idle pool, warm.
    let Some(job) = g
        .jobs
        .get_mut(&job_id)
        .filter(|job| job.failed.is_none() && job.done.len() < job.total)
    else {
        return Message::JobDone;
    };
    let Some(shard) = pop_leasable(job, now) else {
        return Message::Idle {
            retry_ms: IDLE_RETRY_MS,
        };
    };
    job.leases.insert(lease, (shard, peer.id));
    job.agg.first_lease_at.get_or_insert(now);
    g.next_lease += 1;
    Message::Lease {
        lease,
        // Lease ids are unique per pool, so a traced job's shard spans
        // reuse them as span ids.
        span_id: if peer.trace.is_some() { lease } else { 0 },
        shard,
    }
}

/// Re-bases worker trace events onto this process's clock, stamps the
/// originating pid, and merges them into the local trace buffer.
fn ingest_worker_events(
    telemetry: &Telemetry,
    mut events: Vec<TraceEvent>,
    pid: u32,
    clock_offset_us: i64,
) {
    if events.is_empty() {
        return;
    }
    for e in &mut events {
        e.pid = pid;
        e.ts_us = e.ts_us.saturating_add_signed(clock_offset_us);
    }
    telemetry.ingest_trace_events(events);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_doubles_to_a_cap() {
        assert_eq!(retry_backoff(1), Duration::from_millis(100));
        assert_eq!(retry_backoff(2), Duration::from_millis(200));
        assert_eq!(retry_backoff(5), Duration::from_millis(1_600));
        assert_eq!(retry_backoff(40), Duration::from_millis(1_600));
    }

    #[test]
    fn eviction_requeues_with_backoff_and_fails_past_the_cap() {
        let spec = JobSpec {
            model: "m".into(),
            set_size: 1,
            set_seed: 0,
            batch_size: 1,
            bits: vec![8],
            scheme: 0,
            use_prefix_cache: false,
            fingerprint: 1,
            trace_id: 0,
            estimator: 0,
            probe_budget: 0,
            estimator_seed: 0,
        };
        let mut g = PoolState {
            jobs: BTreeMap::new(),
            next_job: 2,
            next_lease: 2,
            live_workers: HashMap::from([(7, 100)]),
        };
        let shard = ShardSpec::Base;
        g.jobs.insert(
            1,
            JobState {
                spec,
                pending: VecDeque::new(),
                not_before: HashMap::new(),
                attempts: HashMap::new(),
                leases: HashMap::from([(1, (shard, 7))]),
                done: HashSet::new(),
                total: 1,
                records: HashMap::new(),
                agg: AggStats::default(),
                workers_used: HashSet::new(),
                seconds: 0.0,
                failed: None,
            },
        );
        assert_eq!(evict_worker(&mut g, 7, 1), 1);
        let job = g.jobs.get_mut(&1).expect("job");
        assert!(!g.live_workers.contains_key(&7));
        assert_eq!(job.pending.len(), 1);
        assert_eq!(job.attempts[&shard], 1);
        assert!(job.failed.is_none());
        // The backoff keeps the shard unleasable right now…
        assert!(pop_leasable(job, Instant::now()).is_none());
        // …but not after the backoff expires.
        let later = Instant::now() + Duration::from_secs(2);
        assert_eq!(pop_leasable(job, later), Some(shard));

        // A second eviction crosses the cap (retries = 1) → job fails.
        job.leases.insert(5, (shard, 9));
        g.live_workers.insert(9, 101);
        assert_eq!(evict_worker(&mut g, 9, 1), 1);
        let job = &g.jobs[&1];
        assert!(job
            .failed
            .as_deref()
            .is_some_and(|d| d.contains("retry cap")));
    }
}
