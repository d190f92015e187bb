//! The solver service: a TCP accept loop, a bounded job queue with
//! backpressure, a worker pool driving each request through its solver, and
//! the LRU result cache.
//!
//! ## Request lifecycle
//!
//! Either connection model hands each request frame to `dispatch`, the one
//! transport-free copy of the message dispatch. It answers info requests and
//! errors inline and returns a decoded solve request, which the connection
//! **tries** to enqueue. If the queue is at capacity the client immediately
//! receives a `Busy` response with a retry-after hint — the server never
//! blocks a client on a full queue. Otherwise the job waits for a worker,
//! which runs `execute`, the one solve loop: it probes the result cache
//! per instance (key = solver + mode + canonical blob), fans each miss's
//! decode → solve → certify pipeline ([`crate::portfolio`]'s per-instance
//! `solve`) over the job's pool width, encodes and caches the bodies, and
//! replies. Each instance runs on the single-threaded engine, so responses
//! are **bit-identical to direct batch runs** of the same instances — the
//! loopback integration test asserts it.
//!
//! ## Execution modes
//!
//! Synchronous requests run on the lockstep engine. Asynchronous requests
//! (VC-PN only) run each instance on the `anonet-runtime` discrete-event
//! executor under a named scenario; by the synchronizer guarantee the
//! assignment is bit-identical to the synchronous one, and the response
//! carries the `AsyncTrace` summary instead of the engine `Trace`.

use crate::cache::LruCache;
use crate::telemetry::{outcome, RequestRecord, Telemetry};
use crate::wire::{
    self, ExecMode, SolveRequest, SolveResponse, StatsSnapshot, WireError, FLAG_NO_CACHE,
    MSG_DEBUG_DUMP_REQUEST, MSG_METRICS_REQUEST, MSG_SOLVE_REQUEST, MSG_STATS_REQUEST,
};
use anonet_core::canon::ByteReader;
use anonet_obs::clock::{unix_millis, Stopwatch};
use anonet_obs::MetricValue;
use anonet_sim::pool::fan_out;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// How client connections are multiplexed onto the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnModel {
    /// One OS thread per connection (the original model). Simple, and the
    /// differential-testing oracle for the reactor: both models must produce
    /// byte-identical responses to identical request streams.
    Threads,
    /// One nonblocking reactor thread multiplexing every connection over
    /// `anonet-net`'s epoll loop — O(1) threads for C10K+ idle peers, with
    /// pipelined requests answered in order.
    Reactor,
}

impl std::str::FromStr for ConnModel {
    type Err = String;

    fn from_str(s: &str) -> Result<ConnModel, String> {
        match s {
            "threads" => Ok(ConnModel::Threads),
            "reactor" => Ok(ConnModel::Reactor),
            other => Err(format!("unknown connection model '{other}' (threads|reactor)")),
        }
    }
}

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the job queue. `0` is allowed and means
    /// nothing drains — useful for deterministic backpressure tests.
    pub workers: usize,
    /// Maximum queued jobs before requests are rejected with `Busy`.
    pub queue_cap: usize,
    /// Result-cache capacity in entries (`0` disables caching).
    pub cache_cap: usize,
    /// Result-cache byte budget over keys + bodies (keys embed whole
    /// canonical blobs, so entry counts alone do not bound memory).
    pub cache_bytes: usize,
    /// Pool width each worker fans one request's instances over
    /// (`0` = auto: the machine's available parallelism; capped there
    /// either way). The pool threads persist per worker across requests.
    pub threads_per_job: usize,
    /// Backoff hint carried in `Busy` responses, in milliseconds.
    pub retry_after_ms: u32,
    /// Maximum live connections, under either connection model;
    /// connections accepted beyond the cap are closed immediately, shedding
    /// load at the door. Under [`ConnModel::Threads`] each connection holds
    /// one thread, so the cap also bounds the thread count; the reactor
    /// enforces the same cap with no thread per connection.
    pub max_conns: usize,
    /// Idle timeout per connection, in milliseconds (`0` disables it).
    /// Without one, `max_conns` stalled peers that never send a byte would
    /// pin every slot forever and lock all new clients out.
    pub idle_timeout_ms: u64,
    /// Flight-recorder capacity: the last N request records kept for debug
    /// dumps (`0` disables recording; phase histograms still run).
    pub flight_cap: usize,
    /// Connection multiplexing model: classic thread-per-connection or the
    /// `anonet-net` epoll reactor.
    pub conn_model: ConnModel,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_cap: 64,
            cache_cap: 1024,
            cache_bytes: 64 << 20,
            threads_per_job: 1,
            retry_after_ms: 50,
            max_conns: 256,
            idle_timeout_ms: 60_000,
            flight_cap: 256,
            conn_model: ConnModel::Threads,
        }
    }
}

/// Per-instance outcome on the server side: `(from_cache, body)` with `body`
/// from `wire::encode_solved_body`, or an error message.
type InstanceOutcome = Result<(bool, Vec<u8>), String>;

/// Where a finished job's payload and flight record go: back to the
/// blocking connection thread (threads model) or through the reactor's
/// completion queue, the worker committing the record (reactor model).
pub(crate) enum Reply {
    Thread(mpsc::Sender<(Vec<u8>, RequestRecord)>),
    Reactor(crate::reactor::ReactorReply),
}

/// A queued solve request with the flight record its connection started;
/// the worker fills in the worker-side phases.
struct Job {
    req: SolveRequest,
    rec: RequestRecord,
    reply: Reply,
    queued: Stopwatch,
}

#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) served_ok: AtomicU64,
    pub(crate) rejected_busy: AtomicU64,
    pub(crate) malformed: AtomicU64,
    pub(crate) exec_errors: AtomicU64,
    pub(crate) shed_conns: AtomicU64,
}

/// Reactor-owned metrics the stats endpoint folds into its legacy counters
/// (the reactor sheds at its own accept path, not through `Counters`).
pub(crate) struct NetHandles {
    pub(crate) shed: Arc<anonet_obs::Counter>,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServiceConfig,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    cache: Mutex<LruCache>,
    pub(crate) counters: Counters,
    conns: AtomicUsize,
    stop: AtomicBool,
    pub(crate) telemetry: Telemetry,
    /// Set once by the reactor spawn path; `None` under the threads model.
    pub(crate) net: OnceLock<NetHandles>,
}

impl Shared {
    /// Locks the result cache, recovering from poisoning: a job that
    /// panicked mid-mutation may have left the slab inconsistent, so the
    /// contents (counters included) are dropped and serving continues with
    /// a cold cache — one bad job must not wedge every later request on a
    /// poisoned `Mutex`.
    fn lock_cache(&self) -> MutexGuard<'_, LruCache> {
        match self.cache.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                *g = LruCache::with_byte_budget(self.cfg.cache_cap, self.cfg.cache_bytes);
                // Clear the flag, or every later lock would land here and
                // wipe the fresh cache again — caching permanently off.
                self.cache.clear_poison();
                g
            }
        }
    }

    /// Locks the job queue, recovering from poisoning. Unlike the cache,
    /// the queued jobs stay: they are plain data (request + reply sender)
    /// that a panic elsewhere cannot have half-mutated, and dropping them
    /// would strand every queued client waiting on a reply channel whose
    /// sender just vanished.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.queue.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Enqueues a solve request with its flight record so far, or — when
    /// the queue is full or the service is stopping — marks the record busy
    /// and returns the encoded `Busy` payload for the caller to answer with.
    pub(crate) fn submit(
        &self,
        req: SolveRequest,
        rec: &mut RequestRecord,
        reply: Reply,
    ) -> Result<(), Vec<u8>> {
        let mut q = self.lock_queue();
        if self.stop.load(Ordering::Relaxed) || q.len() >= self.cfg.queue_cap {
            self.counters.rejected_busy.fetch_add(1, Ordering::Relaxed);
            rec.outcome = outcome::BUSY;
            return Err(wire::encode_solve_response(&SolveResponse::Busy {
                retry_after_ms: self.cfg.retry_after_ms,
                queue_len: q.len() as u32,
            }));
        }
        q.push_back(Job { req, rec: *rec, reply, queued: Stopwatch::start() });
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let (cache_hits, cache_misses, cache_evictions, cache_len) = {
            let cache = self.lock_cache();
            let (h, m, e) = cache.counters();
            (h, m, e, cache.len() as u64)
        };
        // The reactor sheds at its own accept path; fold its count into the
        // legacy counter so the stats frame reads the same in either model.
        let net_shed = self.net.get().map_or(0, |n| n.shed.get());
        StatsSnapshot {
            served_ok: self.counters.served_ok.load(Ordering::Relaxed),
            rejected_busy: self.counters.rejected_busy.load(Ordering::Relaxed),
            malformed: self.counters.malformed.load(Ordering::Relaxed),
            exec_errors: self.counters.exec_errors.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_len,
            queue_len: self.lock_queue().len() as u64,
            workers: self.cfg.workers as u64,
            shed_conns: self.counters.shed_conns.load(Ordering::Relaxed) + net_shed,
        }
    }

    /// The self-describing metrics view: phase histograms and solve counters
    /// from the telemetry registry, merged with the legacy stats counters
    /// (whose sources — cache, queue — live outside the registry), in one
    /// name-sorted snapshot.
    pub(crate) fn metrics_snapshot(&self) -> anonet_obs::Snapshot {
        let stats = self.snapshot();
        let mut snap = self.telemetry.registry.snapshot();
        let legacy = [
            ("served_ok", MetricValue::Counter(stats.served_ok)),
            ("rejected_busy", MetricValue::Counter(stats.rejected_busy)),
            ("malformed", MetricValue::Counter(stats.malformed)),
            ("exec_errors", MetricValue::Counter(stats.exec_errors)),
            ("cache_hits", MetricValue::Counter(stats.cache_hits)),
            ("cache_misses", MetricValue::Counter(stats.cache_misses)),
            ("cache_evictions", MetricValue::Counter(stats.cache_evictions)),
            ("cache_len", MetricValue::Gauge(stats.cache_len)),
            ("queue_len", MetricValue::Gauge(stats.queue_len)),
            ("workers", MetricValue::Gauge(stats.workers)),
            ("shed_conns", MetricValue::Counter(stats.shed_conns)),
        ];
        for (name, value) in legacy {
            snap.entries.push((name.to_string(), value));
        }
        snap.entries.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

/// What a connection does with a request frame, as `dispatch` decides.
pub(crate) enum Dispatch {
    /// Answer with this payload now.
    Reply(Vec<u8>),
    /// Queue this solve request for a worker.
    Solve(SolveRequest),
}

/// Decodes one request frame: the single, transport-free copy of the
/// message dispatch both connection models call, so their replies are
/// byte-identical by construction. Info requests and errors are answered
/// inline; a decoded solve request is handed back for the caller to queue.
/// Fills `rec`'s arrival time, size, message type, decode phase (lapped off
/// `sw`) and outcome.
pub(crate) fn dispatch(
    shared: &Shared,
    payload: &[u8],
    rec: &mut RequestRecord,
    sw: &mut Stopwatch,
) -> Dispatch {
    rec.t_unix_ms = unix_millis();
    rec.bytes_in = payload.len() as u64;
    rec.outcome = outcome::INFO;
    let mut r = ByteReader::new(payload);
    let msg_type = match wire::read_header(&mut r) {
        Ok(t) => t,
        Err(e) => return malformed(shared, rec, e.to_string()),
    };
    rec.msg_type = msg_type;
    Dispatch::Reply(match msg_type {
        MSG_SOLVE_REQUEST => {
            let decoded = wire::decode_solve_request(&mut r);
            rec.decode_us = sw.lap_us();
            match decoded {
                Ok(req) => {
                    rec.problem = req.solver.name();
                    rec.instances = req.instances.len() as u32;
                    return Dispatch::Solve(req);
                }
                // A well-formed frame naming a solver this build does not
                // register is a capability gap, not a protocol violation:
                // structured `Unsupported`, no malformed strike.
                Err(WireError::UnknownSolver(id)) => {
                    rec.outcome = outcome::UNSUPPORTED;
                    wire::encode_solve_response(&SolveResponse::Unsupported(format!(
                        "unknown solver id {id}"
                    )))
                }
                Err(e) => return malformed(shared, rec, e.to_string()),
            }
        }
        MSG_STATS_REQUEST => wire::encode_stats_response(&shared.snapshot()),
        MSG_METRICS_REQUEST => wire::encode_metrics_response(&shared.metrics_snapshot()),
        MSG_DEBUG_DUMP_REQUEST => {
            wire::encode_debug_dump_response(&shared.telemetry.dump_json("on-demand"))
        }
        t => return malformed(shared, rec, format!("unexpected message type {t}")),
    })
}

fn malformed(shared: &Shared, rec: &mut RequestRecord, why: String) -> Dispatch {
    rec.outcome = outcome::MALFORMED;
    shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
    Dispatch::Reply(wire::encode_solve_response(&SolveResponse::Malformed(why)))
}

/// The one solve loop: executes one solve request end to end, returning the
/// response payload and filling in `rec`'s worker-side phases and outcome.
fn execute(shared: &Shared, req: &SolveRequest, rec: &mut RequestRecord) -> Vec<u8> {
    if cfg!(debug_assertions) && req.flags & wire::FLAG_TEST_PANIC != 0 {
        // lint: allow(panic-path) — deliberate test instrumentation, debug builds only, and the worker_loop catch_unwind is exactly what it exercises
        panic!("FLAG_TEST_PANIC set: deliberate worker panic (test instrumentation)");
    }
    let desc = req.solver.descriptor();
    // Modes a solver does not support (per its registry capability flags)
    // are answered with a structured `Unsupported` before any counting.
    if matches!(req.mode, ExecMode::Async(..)) && !desc.supports_async {
        rec.outcome = outcome::UNSUPPORTED;
        return wire::encode_solve_response(&SolveResponse::Unsupported(format!(
            "async execution supports vc_pn only, not {}",
            desc.name
        )));
    }

    shared.telemetry.kind_counter(req.solver).inc();
    let mut sw = Stopwatch::start();
    let k = req.instances.len();
    let mut outcomes: Vec<Option<InstanceOutcome>> = (0..k).map(|_| None).collect();
    let use_cache = req.flags & FLAG_NO_CACHE == 0 && shared.cfg.cache_cap > 0;
    // Keys copy the canonical blobs, so build them only when the cache is in
    // play — the no-cache path stays allocation-free here.
    let keys: Vec<Vec<u8>> =
        if use_cache { (0..k).map(|i| req.cache_key(i)).collect() } else { Vec::new() };
    if use_cache {
        let mut cache = shared.lock_cache();
        for i in 0..k {
            if let Some(body) = cache.get(&keys[i]) {
                outcomes[i] = Some(Ok((true, body.to_vec())));
            }
        }
    }

    // Every missing instance's decode → solve → certify → encode pipeline is
    // independent and per-seed deterministic, so fan them across the job's
    // width. The pool threads persist per service worker, and each engine
    // run reuses its thread's parked scratch, so repeated requests pay no
    // thread spawns and, once warm, no engine allocations.
    let missing: Vec<usize> = (0..k).filter(|&i| outcomes[i].is_none()).collect();
    let computed = fan_out(shared.cfg.threads_per_job, missing.clone(), |_, i| {
        let (cover, cert, trace) = (desc.solve)(desc, &req.instances[i], req.mode)?;
        shared.telemetry.record_solve_trace(trace.rounds, trace.bits);
        Ok((false, wire::encode_solved_body(&cover, &cert, &trace)))
    });
    if use_cache {
        let mut cache = shared.lock_cache();
        for (&i, outcome) in missing.iter().zip(&computed) {
            if let Ok((_, body)) = outcome {
                cache.insert(keys[i].clone(), body.clone());
            }
        }
    }
    for (i, outcome) in missing.into_iter().zip(computed) {
        outcomes[i] = Some(outcome);
    }

    let results: Vec<InstanceOutcome> =
        // lint: allow(panic-path) — every slot is filled by construction: the cache pass writes hits, the execute pass writes the rest
        outcomes.into_iter().map(|o| o.expect("every instance resolved")).collect();
    let cache_hits = results.iter().filter(|r| matches!(r, Ok((true, _)))).count() as u32;
    rec.cache_hits = cache_hits;
    rec.cache_misses = k as u32 - cache_hits;
    let errors = results.iter().filter(|r| r.is_err()).count() as u64;
    if errors > 0 {
        shared.counters.exec_errors.fetch_add(errors, Ordering::Relaxed);
    }
    shared.counters.served_ok.fetch_add(1, Ordering::Relaxed);
    rec.solve_us = sw.lap_us();
    let payload = wire::encode_solve_response_raw(&results);
    rec.encode_us = sw.lap_us();
    payload
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                // Same recovery policy as `lock_queue`: a poisoned wait
                // means some other holder panicked, not that the queue
                // contents are bad — keep draining it.
                q = match shared.cv.wait(q) {
                    Ok(g) => g,
                    Err(poisoned) => {
                        shared.queue.clear_poison();
                        poisoned.into_inner()
                    }
                };
            }
        };
        let queued = RequestRecord { queue_us: job.queued.total_us(), ..job.rec };
        // A panicking job must not take the worker down with it (a handful
        // of hostile requests would otherwise silently drain the pool until
        // nothing drains the queue): unwind here, answer with per-instance
        // errors, and keep the thread. The unwind path also dumps the
        // flight recorder to stderr — the records preceding the panic are
        // exactly the evidence a post-mortem needs.
        let (payload, rec) = match catch_unwind(AssertUnwindSafe(|| {
            let mut rec = RequestRecord { outcome: outcome::OK, ..queued };
            let payload = execute(&shared, &job.req, &mut rec);
            (payload, rec)
        })) {
            Ok(done) => done,
            Err(_) => {
                shared.telemetry.dump_on_panic();
                let n = job.req.instances.len();
                shared.counters.exec_errors.fetch_add(n as u64, Ordering::Relaxed);
                shared.counters.served_ok.fetch_add(1, Ordering::Relaxed);
                let errs: Vec<InstanceOutcome> =
                    (0..n).map(|_| Err("internal error: execution panicked".to_string())).collect();
                (
                    wire::encode_solve_response_raw(&errs),
                    RequestRecord { outcome: outcome::PANIC, ..queued },
                )
            }
        };
        match job.reply {
            // The client may have gone away; that is its problem, not ours.
            Reply::Thread(tx) => {
                let _ = tx.send((payload, rec));
            }
            // The reactor path owns the flight record: finish it here (the
            // reactor thread only moves bytes) and wake the event loop.
            Reply::Reactor(r) => r.finish(payload, rec, &shared.telemetry),
        }
    }
}

/// Releases a connection slot on drop, so the count stays accurate even if
/// the handler thread unwinds — a leaked slot would shrink `max_conns`
/// permanently.
struct ConnSlot(Arc<Shared>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // A peer that stops sending must eventually release its connection
    // slot; the timeout makes read_frame error out instead of blocking
    // forever. It only covers the gap *between* requests — while a job
    // runs, this thread waits on the reply channel, not the socket.
    if shared.cfg.idle_timeout_ms > 0 {
        let _ = stream
            .set_read_timeout(Some(std::time::Duration::from_millis(shared.cfg.idle_timeout_ms)));
    }
    loop {
        // One stopwatch walks the whole request: laps are the phase splits,
        // `total_us` at the end is read start → write end. The read phase of
        // a keep-alive connection includes the wait for the next frame.
        let mut sw = Stopwatch::start();
        let payload = match wire::read_frame(&mut stream) {
            Ok(Some(p)) => p,
            _ => return, // clean close or broken transport
        };
        let mut rec = RequestRecord { read_us: sw.lap_us(), ..RequestRecord::default() };
        let reply = match dispatch(shared, &payload, &mut rec, &mut sw) {
            Dispatch::Reply(reply) => reply,
            Dispatch::Solve(req) => {
                let (tx, rx) = mpsc::channel();
                match shared.submit(req, &mut rec, Reply::Thread(tx)) {
                    Ok(()) => match rx.recv() {
                        Ok((reply, done)) => {
                            rec = done;
                            reply
                        }
                        Err(_) => return, // service shut down mid-flight
                    },
                    Err(busy) => busy,
                }
            }
        };
        rec.bytes_out = reply.len() as u64;
        let write_ok = wire::write_frame(&mut stream, &reply).is_ok();
        rec.write_us = sw.lap_us();
        rec.total_us = sw.total_us();
        shared.telemetry.commit(rec);
        if !write_ok {
            return;
        }
    }
}

/// A running solver service bound to a TCP address.
///
/// Dropping the server (or calling [`Server::shutdown`]) stops the accept
/// loop, drains the queue, and joins the workers. Use `"127.0.0.1:0"` to
/// bind an ephemeral port and read it back with [`Server::local_addr`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Present under [`ConnModel::Reactor`]: the handles `stop_impl` uses to
    /// stop the event loop (flag + eventfd wake) instead of the throwaway
    /// connection that unblocks a blocking accept loop.
    reactor: Option<crate::reactor::ReactorControl>,
}

impl Server {
    /// Binds `addr` and starts the accept loop and worker pool.
    pub fn start(addr: &str, cfg: ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cache: Mutex::new(LruCache::with_byte_budget(cfg.cache_cap, cfg.cache_bytes)),
            counters: Counters::default(),
            conns: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            telemetry: Telemetry::new(cfg.flight_cap),
            net: OnceLock::new(),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        let (accept, reactor) = match cfg.conn_model {
            ConnModel::Threads => {
                let shared = Arc::clone(&shared);
                let accept = std::thread::spawn(move || {
                    for conn in listener.incoming() {
                        if shared.stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Ok(stream) = conn {
                            // Only this thread increments, so load-then-add is
                            // race-free: handlers can only *lower* the count.
                            if shared.conns.load(Ordering::Relaxed) >= shared.cfg.max_conns {
                                // Over the cap: shed the connection (visibly).
                                shared.counters.shed_conns.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            shared.conns.fetch_add(1, Ordering::Relaxed);
                            let slot = ConnSlot(Arc::clone(&shared));
                            std::thread::spawn(move || handle_conn(stream, &slot.0));
                        }
                    }
                });
                (accept, None)
            }
            ConnModel::Reactor => {
                let (accept, ctl) = crate::reactor::spawn(listener, &shared)?;
                (accept, Some(ctl))
            }
        };
        Ok(Server { shared, local_addr, accept: Some(accept), workers, reactor })
    }

    /// The bound address (resolves `:0` ephemeral binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time statistics snapshot (also served over the wire).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// The self-describing metrics snapshot (also served over the wire as
    /// the metrics frame): phase histograms, per-problem solve counters,
    /// and the legacy stats counters, name-sorted.
    pub fn metrics(&self) -> anonet_obs::Snapshot {
        self.shared.metrics_snapshot()
    }

    /// The flight-recorder JSON document (also served over the wire as the
    /// debug dump response). `reason` is stamped into the document.
    pub fn flight_dump_json(&self, reason: &str) -> String {
        self.shared.telemetry.dump_json(reason)
    }

    /// Blocks until the accept loop exits — "serve forever" for the CLI.
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting, drains queued jobs, joins the workers.
    pub fn shutdown(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.cv.notify_all();
        match &self.reactor {
            // The reactor polls: flip its stop flag and kick the eventfd.
            Some(ctl) => ctl.stop(),
            // Unblock the blocking accept loop with a throwaway connection.
            None => {
                let _ = TcpStream::connect(self.local_addr);
            }
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_lock_recovers_from_poisoning() {
        let shared = Shared {
            cfg: ServiceConfig::default(),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cache: Mutex::new(LruCache::new(4)),
            counters: Counters::default(),
            conns: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            telemetry: Telemetry::new(8),
            net: OnceLock::new(),
        };
        shared.lock_cache().insert(vec![1], vec![2]);
        // Poison the mutex: panic while holding the guard. The accessor is
        // fine here — the mutex is healthy at lock time; it is the panic
        // *while holding* the returned guard that poisons it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = shared.lock_cache();
            panic!("poison");
        }));
        // Recovery drops the possibly-inconsistent contents and keeps
        // serving instead of wedging every later lock on the poison.
        let mut cache = shared.lock_cache();
        assert_eq!(cache.len(), 0);
        cache.insert(vec![1], vec![2]);
        assert_eq!(cache.len(), 1);
        drop(cache);
        // The poison flag was cleared: a later lock must *not* wipe the
        // rebuilt cache again (that would disable caching permanently).
        assert_eq!(shared.lock_cache().len(), 1);
    }
}
