//! The serve harness: worker threads pulling simulated requests from the
//! admission queue against a live collector, plus the recovery oracle.
//!
//! # Anatomy of a run
//!
//! One **producer** (the caller's thread) offers `requests` requests in
//! bursts. Admission control happens at the producer: a full
//! [`BoundedQueue`](crate::BoundedQueue) rejects, and once heap occupancy
//! crosses the shed watermark low-priority requests are refused outright
//! ([`ServeError::Shed`]). **Workers** pop requests, touch the request's
//! Zipf-chosen session object (cross-thread heap sharing through the write
//! barriers), and run a short allocation burst — every allocation through
//! [`Mutator::try_alloc_with_deadline`] so a full heap degrades to a
//! retryable deadline miss instead of an unbounded stall.
//!
//! # Session ownership: the keeper
//!
//! Sessions must outlive the worker that created them — workers die (the
//! `WorkerPanic` chaos site kills them at request boundaries) and respawn.
//! A dedicated **keeper** thread owns every session root: a creating
//! worker allocates the session, hands the rooted reference over, and
//! only drops its own root *after* the keeper has adopted one. The object
//! is reachable from registered roots at every instant of the handoff, so
//! no collector cycle can sweep it mid-transfer; after the handoff a
//! worker's death cannot touch it. At the end of the run the keeper
//! replays every session through an epoch-validated load — the
//! use-after-free oracle — and reports sessions lost or freed.
//!
//! # The recovery oracle
//!
//! With [`ServeConfig::storm`] the chaos plan is suppressed outside the
//! middle third of the request stream. The oracle then requires: no lost
//! sessions, no validation trips, every request accounted for (served,
//! shed, rejected, timed out, or errored — the queue cannot eat one), and
//! the p99 latency of requests completed *after* the storm back under
//! [`ServeConfig::slo`].

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gc_trace::{Counter, EventKind, Gauge, Histogram, Json, Registry};
use otf_gc::{ChaosSite, Collector, Gc, Mutator};

use crate::config::{PacingMode, ServeConfig};
use crate::error::ServeError;
use crate::load::{SplitMix64, Zipf};
use crate::queue::BoundedQueue;

/// Trace-event outcome code: served within deadline.
pub const OUTCOME_OK: u8 = 0;
/// Trace-event outcome code: shed at admission (occupancy watermark).
pub const OUTCOME_SHED: u8 = 1;
/// Trace-event outcome code: rejected at admission (queue full).
pub const OUTCOME_REJECTED: u8 = 2;
/// Trace-event outcome code: deadline exceeded.
pub const OUTCOME_TIMEOUT: u8 = 3;
/// Trace-event outcome code: fatal error (exhaustion or worker death).
pub const OUTCOME_ERROR: u8 = 4;

/// Trace counter id for heap occupancy (shared with the paced collector).
const COUNTER_OCCUPANCY: u8 = 0;
/// Trace counter id for admission queue depth.
const COUNTER_QUEUE_DEPTH: u8 = 2;

/// How long a worker waits on an empty queue before returning to its
/// safepoint: short, so handshakes never wait long on an idle worker.
const POP_TIMEOUT: Duration = Duration::from_millis(2);
/// The keeper's pause between handoff polls (it safepoints every lap).
const KEEPER_NAP: Duration = Duration::from_micros(200);

/// Session slot states for the create/handoff protocol.
const ABSENT: u8 = 0;
const CREATING: u8 = 1;
const ADOPTED: u8 = 2;

/// One simulated request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Sequence number (also the trace-event id).
    pub id: u64,
    /// The session this request belongs to.
    pub session: u32,
    /// Admission priority (hot sessions are high).
    pub priority: Priority,
    /// When the producer admitted it — latency is measured from here.
    pub enqueued: Instant,
    /// Absolute deadline; allocation and queue waits respect it.
    pub deadline: Instant,
}

/// Admission priority: shedding only ever refuses [`Priority::Low`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Never shed (the hot sessions).
    High,
    /// Sheddable when occupancy crosses the watermark.
    Low,
}

struct SessionSlot {
    state: AtomicU8,
    gc: Mutex<Option<Gc>>,
}

struct Metrics {
    requests_total: Counter,
    ok_total: Counter,
    shed_total: Counter,
    rejected_total: Counter,
    timeout_total: Counter,
    error_total: Counter,
    exhausted_total: Counter,
    worker_panics_total: Counter,
    sessions_created_total: Counter,
    queue_depth: Gauge,
    heap_occupancy_permille: Gauge,
    latency_ns: std::sync::Arc<Histogram>,
    post_storm_latency_ns: std::sync::Arc<Histogram>,
    alloc_stall_ns: std::sync::Arc<Histogram>,
    /// Published by the keeper each lap so `/healthz` liveness probes
    /// (which can only see the registry, not the collector) can watch
    /// cycle-completion recency while the run is in flight.
    cycles_completed: Gauge,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            requests_total: registry.counter("serve_requests_total"),
            ok_total: registry.counter("serve_ok_total"),
            shed_total: registry.counter("serve_shed_total"),
            rejected_total: registry.counter("serve_rejected_total"),
            timeout_total: registry.counter("serve_timeout_total"),
            error_total: registry.counter("serve_error_total"),
            exhausted_total: registry.counter("serve_exhausted_total"),
            worker_panics_total: registry.counter("serve_worker_panics_total"),
            sessions_created_total: registry.counter("serve_sessions_created_total"),
            queue_depth: registry.gauge("serve_queue_depth"),
            heap_occupancy_permille: registry.gauge("serve_heap_occupancy_permille"),
            latency_ns: registry.histogram("serve_latency_ns"),
            post_storm_latency_ns: registry.histogram("serve_post_storm_latency_ns"),
            alloc_stall_ns: registry.histogram("serve_alloc_stall_ns"),
            cycles_completed: registry.gauge("gc_cycles_completed"),
        }
    }
}

struct Ctx<'a> {
    cfg: &'a ServeConfig,
    collector: &'a Collector,
    queue: BoundedQueue<Request>,
    slots: Vec<SessionSlot>,
    handoff: Mutex<Vec<(u32, Gc)>>,
    stop_keeper: AtomicBool,
    /// Under a chaos storm, the id of the first request charged against the
    /// recovery SLO: the final sixth of the stream. Chaos is suppressed
    /// again from two thirds in, and the stretch in between is the system's
    /// to drain the storm's backlog.
    recovery_at: Option<u64>,
    m: Metrics,
}

impl<'a> Ctx<'a> {
    fn new(cfg: &'a ServeConfig, collector: &'a Collector, registry: &Registry) -> Ctx<'a> {
        let chaos_storm = cfg.storm && cfg.chaos.enabled();
        Ctx {
            cfg,
            collector,
            queue: BoundedQueue::new(cfg.queue_capacity),
            slots: (0..cfg.sessions)
                .map(|_| SessionSlot {
                    state: AtomicU8::new(ABSENT),
                    gc: Mutex::new(None),
                })
                .collect(),
            handoff: Mutex::new(Vec::new()),
            stop_keeper: AtomicBool::new(false),
            recovery_at: chaos_storm.then_some((5 * cfg.requests) / 6),
            m: Metrics::new(registry),
        }
    }
}

/// What the keeper saw when the run ended.
struct KeeperReport {
    sessions_live: u64,
    lost_sessions: u64,
    uaf_detected: bool,
}

/// Everything a serve run produced, plus the oracle's verdict.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests the producer offered.
    pub requests: u64,
    /// Served within deadline.
    pub ok: u64,
    /// Refused at admission by the occupancy watermark.
    pub shed: u64,
    /// Refused at admission by the full queue.
    pub rejected: u64,
    /// Popped or processed past their deadline.
    pub timeouts: u64,
    /// Fatal per-request failures (exhaustion, worker death).
    pub errors: u64,
    /// Fatal allocation verdicts among the errors — the ablation's
    /// degradation signal.
    pub exhausted: u64,
    /// Injected worker panics survived (worker respawned each time).
    pub worker_panics: u64,
    /// Sessions created over the run.
    pub sessions_created: u64,
    /// Sessions the keeper still held, validated, at the end.
    pub sessions_live: u64,
    /// Sessions created but missing at the end (oracle violation).
    pub lost_sessions: u64,
    /// The epoch oracle tripped during end-of-run session validation.
    pub uaf_detected: bool,
    /// Overall served-request latency, p50.
    pub latency_p50_ns: u64,
    /// Overall served-request latency, p95.
    pub latency_p95_ns: u64,
    /// Overall served-request latency, p99.
    pub latency_p99_ns: u64,
    /// p99 of requests served after the chaos window (`None` without a
    /// storm or when nothing completed post-storm).
    pub post_storm_p99_ns: Option<u64>,
    /// The SLO the recovery oracle held the post-storm p99 against.
    pub slo_ns: u64,
    /// Per-allocation stall, p99 (time inside the deadline-aware
    /// allocator, including emergency cycles and backoff parks).
    pub alloc_stall_p99_ns: u64,
    /// Collector cycles completed.
    pub cycles: u64,
    /// Heap occupancy when the run ended, per-mille.
    pub final_occupancy_permille: u32,
    /// Wall-clock duration of the serving phase.
    pub wall_ns: u64,
    /// Served requests per second of wall clock.
    pub throughput_rps: f64,
    /// Oracle violations; empty means the run was healthy.
    pub violations: Vec<String>,
}

impl ServeReport {
    /// Whether the oracle found nothing wrong.
    pub fn is_healthy(&self) -> bool {
        self.violations.is_empty()
    }

    /// The report as a JSON object (the `results` block of
    /// `BENCH_serve.json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("requests", self.requests)
            .set("ok", self.ok)
            .set("shed", self.shed)
            .set("rejected", self.rejected)
            .set("timeouts", self.timeouts)
            .set("errors", self.errors)
            .set("exhausted", self.exhausted)
            .set("worker_panics", self.worker_panics)
            .set("sessions_created", self.sessions_created)
            .set("sessions_live", self.sessions_live)
            .set("lost_sessions", self.lost_sessions)
            .set("uaf_detected", self.uaf_detected)
            .set("latency_p50_ns", self.latency_p50_ns)
            .set("latency_p95_ns", self.latency_p95_ns)
            .set("latency_p99_ns", self.latency_p99_ns)
            .set(
                "post_storm_p99_ns",
                self.post_storm_p99_ns.map(Json::from).unwrap_or(Json::Null),
            )
            .set("slo_ns", self.slo_ns)
            .set("alloc_stall_p99_ns", self.alloc_stall_p99_ns)
            .set("cycles", self.cycles)
            .set("final_occupancy_permille", self.final_occupancy_permille)
            .set("wall_ns", self.wall_ns)
            .set("throughput_rps", self.throughput_rps)
            .set(
                "violations",
                Json::from(
                    self.violations
                        .iter()
                        .map(|v| Json::from(v.clone()))
                        .collect::<Vec<Json>>(),
                ),
            )
    }
}

/// Runs the serve workload described by `cfg`, recording metrics into
/// `registry`, and returns the report with the oracle's verdict.
///
/// # Panics
///
/// Panics on nonsensical configuration (zero workers/requests/sessions,
/// `hot_sessions > sessions`) and propagates panics from genuinely broken
/// runtime invariants. Injected chaos panics are contained: workers
/// respawn, and the keeper's validation failures are reported as
/// violations rather than propagated.
pub fn run_serve(cfg: &ServeConfig, registry: &Registry) -> ServeReport {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.requests > 0, "need at least one request");
    assert!(cfg.sessions > 0, "need at least one session");
    assert!(
        cfg.hot_sessions <= cfg.sessions,
        "hot subset exceeds sessions"
    );

    let collector = Collector::new(cfg.gc_config());
    let ctx = Ctx::new(cfg, &collector, registry);
    let chaos_storm = ctx.recovery_at.is_some();
    if chaos_storm {
        // Warm-up runs clean; the producer opens the window mid-run.
        collector.suppress_chaos(true);
    }
    let run_collector = !matches!(cfg.pacing, PacingMode::ReactiveOnly);
    if run_collector {
        collector.start();
    }

    let t0 = Instant::now();
    let keeper_report = std::thread::scope(|s| {
        let keeper = std::thread::Builder::new()
            .name("serve-keeper".into())
            .spawn_scoped(s, || keeper_entry(&ctx))
            .expect("spawn keeper thread");
        let workers: Vec<_> = (0..cfg.workers)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn_scoped(s, || worker_entry(&ctx))
                    .expect("spawn worker thread")
            })
            .collect();
        produce(&ctx);
        ctx.queue.close();
        for w in workers {
            w.join().expect("worker threads catch their own panics");
        }
        ctx.stop_keeper.store(true, Ordering::Release);
        keeper.join().expect("keeper thread")
    });
    let wall_ns = t0.elapsed().as_nanos().max(1) as u64;
    if run_collector {
        collector.stop();
    }

    let m = &ctx.m;
    let (requests, ok) = (m.requests_total.get(), m.ok_total.get());
    let (shed, rejected) = (m.shed_total.get(), m.rejected_total.get());
    let (timeouts, errors) = (m.timeout_total.get(), m.error_total.get());

    let mut violations = Vec::new();
    if keeper_report.lost_sessions > 0 {
        violations.push(format!(
            "{} of {} sessions lost",
            keeper_report.lost_sessions,
            m.sessions_created_total.get()
        ));
    }
    if keeper_report.uaf_detected {
        violations
            .push("use-after-free: the epoch oracle tripped validating a session".to_string());
    }
    let accounted = ok + shed + rejected + timeouts + errors;
    if accounted != requests {
        violations.push(format!(
            "request accounting leak: {accounted} accounted of {requests} offered"
        ));
    }
    let mut post_storm_p99_ns = None;
    if chaos_storm {
        if m.post_storm_latency_ns.count() == 0 {
            violations.push("no requests completed after the chaos storm".to_string());
        } else {
            let p99 = m.post_storm_latency_ns.quantile(0.99);
            post_storm_p99_ns = Some(p99);
            if p99 > cfg.slo.as_nanos() as u64 {
                violations.push(format!(
                    "post-storm p99 {}us exceeds SLO {}us",
                    p99 / 1_000,
                    cfg.slo.as_micros()
                ));
            }
        }
    }

    ServeReport {
        requests,
        ok,
        shed,
        rejected,
        timeouts,
        errors,
        exhausted: m.exhausted_total.get(),
        worker_panics: m.worker_panics_total.get(),
        sessions_created: m.sessions_created_total.get(),
        sessions_live: keeper_report.sessions_live,
        lost_sessions: keeper_report.lost_sessions,
        uaf_detected: keeper_report.uaf_detected,
        latency_p50_ns: m.latency_ns.quantile(0.50),
        latency_p95_ns: m.latency_ns.quantile(0.95),
        latency_p99_ns: m.latency_ns.quantile(0.99),
        post_storm_p99_ns,
        slo_ns: cfg.slo.as_nanos() as u64,
        alloc_stall_p99_ns: m.alloc_stall_ns.quantile(0.99),
        cycles: collector.stats().cycles(),
        final_occupancy_permille: (collector.heap_occupancy() * 1000.0) as u32,
        wall_ns,
        throughput_rps: ok as f64 / (wall_ns as f64 / 1e9),
        violations,
    }
}

/// The producer: offers the request stream, runs admission control, and
/// opens and closes the chaos-storm window.
fn produce(ctx: &Ctx<'_>) {
    let cfg = ctx.cfg;
    let mut rng = SplitMix64::new(cfg.seed);
    let zipf = Zipf::new(cfg.sessions as usize, cfg.zipf_exponent);
    let storm_on = cfg.requests / 3;
    let storm_off = 2 * cfg.requests / 3;
    for i in 0..cfg.requests {
        if let Some(recovery_at) = ctx.recovery_at {
            if i == storm_on {
                ctx.collector.suppress_chaos(false);
            } else if i == storm_off {
                ctx.collector.suppress_chaos(true);
            } else if i == recovery_at {
                // The whole drain stretch is ~10 ms of arrivals, and one
                // watchdog-aborted cycle stalls the workers for ten times
                // that: a producer that has outrun the drain waits it out
                // (no queued request outlives its deadline), so that the
                // requests judged against the SLO meet the system after
                // the storm and not the storm's queue.
                let drained_by = Instant::now() + cfg.deadline;
                while !ctx.queue.is_empty() && Instant::now() < drained_by {
                    std::thread::sleep(cfg.arrival_pause);
                }
            }
        }
        ctx.m.requests_total.inc();
        let session = zipf.sample(&mut rng) as u32;
        let priority = if session < cfg.hot_sessions {
            Priority::High
        } else {
            Priority::Low
        };
        // Shed-by-occupancy: above the watermark, only hot sessions get in.
        let shed = match cfg.shed_permille {
            Some(watermark) => {
                let occ = (ctx.collector.heap_occupancy() * 1000.0) as u32;
                priority == Priority::Low && occ >= watermark
            }
            None => false,
        };
        if shed {
            ctx.m.shed_total.inc();
            gc_trace::emit(EventKind::ServeRequest {
                id: i as u32,
                outcome: OUTCOME_SHED,
                latency_us: 0,
            });
        } else {
            let now = Instant::now();
            let req = Request {
                id: i,
                session,
                priority,
                enqueued: now,
                deadline: now + cfg.deadline,
            };
            if ctx.queue.try_push(req).is_err() {
                ctx.m.rejected_total.inc();
                gc_trace::emit(EventKind::ServeRequest {
                    id: i as u32,
                    outcome: OUTCOME_REJECTED,
                    latency_us: 0,
                });
            }
        }
        // Arrival pacing applies to *every* offered request — a shed or
        // rejected request still took its slot in the arrival process.
        // (Skipping the pause while shedding would let the producer blast
        // through an overload window in near-zero wall time.)
        if cfg.burst > 0 && (i + 1).is_multiple_of(cfg.burst as u64) {
            let depth = ctx.queue.len() as u64;
            let occ_pm = (ctx.collector.heap_occupancy() * 1000.0) as u64;
            ctx.m.queue_depth.set(depth as i64);
            ctx.m.heap_occupancy_permille.set(occ_pm as i64);
            gc_trace::emit(EventKind::Counter {
                id: COUNTER_QUEUE_DEPTH,
                value: depth,
            });
            gc_trace::emit(EventKind::Counter {
                id: COUNTER_OCCUPANCY,
                value: occ_pm,
            });
            std::thread::sleep(cfg.arrival_pause);
        }
    }
}

/// A worker thread: runs [`worker_loop`] and respawns it (with a fresh
/// mutator) every time an injected panic kills it.
fn worker_entry(ctx: &Ctx<'_>) {
    loop {
        let mutator = ctx.collector.register_mutator();
        let current: RefCell<Option<Request>> = RefCell::new(None);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Moved into the closure so an unwind drops (deregisters) it —
            // a leaked registered mutator would silently stall every
            // future handshake.
            let mut mutator = mutator;
            worker_loop(ctx, &mut mutator, &current);
        }));
        match outcome {
            Ok(()) => return,
            Err(_) => {
                ctx.m.worker_panics_total.inc();
                if let Some(req) = current.borrow_mut().take() {
                    record_outcome(ctx, &req, Err(ServeError::WorkerPanicked));
                }
            }
        }
    }
}

fn worker_loop(ctx: &Ctx<'_>, m: &mut Mutator, current: &RefCell<Option<Request>>) {
    loop {
        let popped = ctx.queue.pop_timeout(POP_TIMEOUT);
        // The injected worker death fires at the serve-loop boundary —
        // before any session handoff is in flight, so the oracle can
        // distinguish "a worker died and the service recovered" from "a
        // worker died and took shared state with it". A request already
        // popped dies with the worker and is accounted as its error.
        if ctx.collector.chaos_fires(ChaosSite::WorkerPanic) {
            *current.borrow_mut() = popped;
            panic!("chaos[worker-panic]: injected at request boundary");
        }
        match popped {
            Some(req) => {
                *current.borrow_mut() = Some(req);
                let res = serve_one(ctx, m, &req);
                record_outcome(ctx, &req, res);
                current.borrow_mut().take();
                m.safepoint();
            }
            None => {
                if ctx.queue.is_drained() {
                    return;
                }
                m.safepoint();
            }
        }
    }
}

fn serve_one(ctx: &Ctx<'_>, m: &mut Mutator, req: &Request) -> Result<(), ServeError> {
    if Instant::now() >= req.deadline {
        return Err(ServeError::DeadlineExceeded);
    }
    let session = ensure_session(ctx, m, req)?;
    m.adopt(session);
    let touched = touch_session(ctx, m, session, req);
    m.discard(session);
    touched?;
    // The per-request allocation burst: short-lived garbage.
    for _ in 0..ctx.cfg.request_allocs {
        let g = timed_alloc(ctx, m, 1, req.deadline)?;
        m.discard(g);
    }
    Ok(())
}

/// Replaces the session's state object (the old one becomes garbage,
/// exercising the deletion barrier under cross-thread sharing).
fn touch_session(
    ctx: &Ctx<'_>,
    m: &mut Mutator,
    session: Gc,
    req: &Request,
) -> Result<(), ServeError> {
    let state = timed_alloc(ctx, m, 1, req.deadline)?;
    m.store(session, 0, Some(state));
    m.discard(state);
    Ok(())
}

/// Finds the request's session, creating it (through the keeper handoff)
/// on first touch. Returns a handle rooted by the *keeper*, not by `m`.
fn ensure_session(ctx: &Ctx<'_>, m: &mut Mutator, req: &Request) -> Result<Gc, ServeError> {
    let slot = &ctx.slots[req.session as usize];
    loop {
        match slot.state.load(Ordering::Acquire) {
            ADOPTED => {
                let gc = slot
                    .gc
                    .lock()
                    .expect("session slot lock")
                    .expect("adopted slot holds a handle");
                return Ok(gc);
            }
            ABSENT => {
                if slot
                    .state
                    .compare_exchange(ABSENT, CREATING, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return create_session(ctx, m, slot, req);
                }
            }
            _ => {
                // Another worker is mid-creation; wait our deadline out.
                if Instant::now() >= req.deadline {
                    return Err(ServeError::DeadlineExceeded);
                }
                m.safepoint();
                std::thread::yield_now();
            }
        }
    }
}

fn create_session(
    ctx: &Ctx<'_>,
    m: &mut Mutator,
    slot: &SessionSlot,
    req: &Request,
) -> Result<Gc, ServeError> {
    let gc = match timed_alloc(ctx, m, 1, req.deadline) {
        Ok(gc) => gc,
        Err(e) => {
            // Roll the claim back so a later request can retry the create.
            slot.state.store(ABSENT, Ordering::Release);
            return Err(e);
        }
    };
    ctx.handoff
        .lock()
        .expect("session handoff lock")
        .push((req.session, gc));
    // Hold our root until the keeper has adopted one: the session is
    // reachable from registered roots at every instant of the handoff.
    // No deadline abort here — the keeper polls continuously, so this
    // wait is short and the object is already committed to the table.
    while slot.state.load(Ordering::Acquire) != ADOPTED {
        m.safepoint();
        std::thread::yield_now();
    }
    ctx.m.sessions_created_total.inc();
    m.discard(gc);
    Ok(gc)
}

/// A deadline-aware allocation with stall accounting.
fn timed_alloc(
    ctx: &Ctx<'_>,
    m: &mut Mutator,
    fields: usize,
    deadline: Instant,
) -> Result<Gc, ServeError> {
    let t0 = Instant::now();
    let r = m.try_alloc_with_deadline(fields, deadline);
    ctx.m.alloc_stall_ns.record(t0.elapsed().as_nanos() as u64);
    r.map_err(ServeError::from)
}

fn record_outcome(ctx: &Ctx<'_>, req: &Request, res: Result<(), ServeError>) {
    let latency_ns = req.enqueued.elapsed().as_nanos() as u64;
    let code = match &res {
        Ok(()) => {
            ctx.m.ok_total.inc();
            OUTCOME_OK
        }
        Err(ServeError::DeadlineExceeded) => {
            ctx.m.timeout_total.inc();
            OUTCOME_TIMEOUT
        }
        Err(e) => {
            ctx.m.error_total.inc();
            if !e.is_retryable() {
                ctx.m.exhausted_total.inc();
            }
            OUTCOME_ERROR
        }
    };
    if code == OUTCOME_OK {
        ctx.m.latency_ns.record(latency_ns);
        // By when it was enqueued, not when it completed: a request queued
        // during the storm that completes in the recovery stretch carries
        // the storm's wait, not the recovered system's.
        if ctx.recovery_at.is_some_and(|at| req.id >= at) {
            ctx.m.post_storm_latency_ns.record(latency_ns);
        }
    }
    gc_trace::emit(EventKind::ServeRequest {
        id: req.id as u32,
        outcome: code,
        latency_us: (latency_ns / 1_000).min(u64::from(u32::MAX)) as u32,
    });
}

/// The keeper: adopts handed-off sessions (so they survive worker
/// deaths), answers handshakes, and runs the end-of-run session oracle.
fn keeper_entry(ctx: &Ctx<'_>) -> KeeperReport {
    let mut m = ctx.collector.register_mutator();
    let mut owned: Vec<(u32, Gc)> = Vec::new();
    loop {
        let pending: Vec<(u32, Gc)> =
            std::mem::take(&mut *ctx.handoff.lock().expect("session handoff lock"));
        for (sid, gc) in pending {
            // The creating worker still roots `gc` (it waits for ADOPTED),
            // so this adopt happens while the object is provably live.
            m.adopt(gc);
            let slot = &ctx.slots[sid as usize];
            *slot.gc.lock().expect("session slot lock") = Some(gc);
            slot.state.store(ADOPTED, Ordering::Release);
            owned.push((sid, gc));
        }
        ctx.m
            .cycles_completed
            .set(ctx.collector.stats().cycles() as i64);
        if ctx.stop_keeper.load(Ordering::Acquire) {
            break;
        }
        m.safepoint();
        std::thread::sleep(KEEPER_NAP);
    }

    // ---- end-of-run session oracle ----
    // Workers only finish a create after adoption, so nothing should be
    // left in flight; anything that is counts as lost.
    let mut lost = ctx.handoff.lock().expect("session handoff lock").len() as u64;
    for slot in &ctx.slots {
        if slot.state.load(Ordering::Acquire) == CREATING {
            lost += 1;
        }
    }
    let mut sessions_live = 0u64;
    let mut uaf_detected = false;
    // An epoch-validated load of every owned session: a freed-while-owned
    // session trips the runtime's use-after-free assertion, which we
    // convert into an oracle verdict instead of a crash.
    let validated = catch_unwind(AssertUnwindSafe(|| {
        let mut live = 0u64;
        let mut missing = 0u64;
        for (_sid, gc) in &owned {
            if !m.is_rooted(*gc) {
                missing += 1;
                continue;
            }
            if let Some(state) = m.load(*gc, 0) {
                m.discard(state);
            }
            live += 1;
        }
        (live, missing)
    }));
    match validated {
        Ok((live, missing)) => {
            sessions_live = live;
            lost += missing;
        }
        Err(_) => uaf_detected = true,
    }
    KeeperReport {
        sessions_live,
        lost_sessions: lost,
        uaf_detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use otf_gc::HeapLayout;

    #[test]
    fn robust_serve_is_clean_and_never_exhausts() {
        let cfg = ServeConfig::quick(HeapLayout::Slab);
        let registry = Registry::new();
        let report = run_serve(&cfg, &registry);
        assert!(
            report.is_healthy(),
            "oracle violations: {:?}",
            report.violations
        );
        assert!(report.ok > 0, "some requests served");
        assert_eq!(
            report.exhausted, 0,
            "admission control kept the live set inside capacity"
        );
        assert_eq!(report.lost_sessions, 0);
        assert!(!report.uaf_detected);
        assert_eq!(
            report.sessions_live, report.sessions_created,
            "every created session survived"
        );
        // The demand (250% of capacity) forces the controller to act: a
        // clean run must have shed or rejected something.
        assert!(
            report.shed + report.rejected > 0,
            "overload never pushed back: {report:?}"
        );
    }

    #[test]
    fn only_requests_enqueued_in_the_recovery_stretch_count_against_its_slo() {
        let cfg = ServeConfig::quick(HeapLayout::Slab)
            .with_storm(otf_gc::FaultPlan::new(1).with_worker_panic(1));
        let collector = Collector::new(cfg.gc_config());
        let registry = Registry::new();
        let ctx = Ctx::new(&cfg, &collector, &registry);
        let at = ctx.recovery_at.expect("a storm run has a recovery stretch");
        let now = Instant::now();
        let complete = |id| {
            let req = Request {
                id,
                session: 0,
                priority: Priority::High,
                enqueued: now,
                deadline: now + cfg.deadline,
            };
            record_outcome(&ctx, &req, Ok(()));
            ctx.m.post_storm_latency_ns.count()
        };
        // A request enqueued in the storm completes whenever it does —
        // even after the producer has moved on to the recovery stretch —
        // and stays out of the post-storm histogram.
        assert_eq!(complete(at - 1), 0);
        assert_eq!(complete(at), 1);
        assert_eq!(ctx.m.latency_ns.count(), 2);

        let calm = ServeConfig::quick(HeapLayout::Slab);
        let ctx = Ctx::new(&calm, &collector, &registry);
        assert_eq!(ctx.recovery_at, None, "no storm, no recovery SLO");
    }

    #[test]
    fn ablation_without_shedding_and_pacing_degrades() {
        let cfg = ServeConfig::quick(HeapLayout::Slab).ablation();
        let registry = Registry::new();
        let report = run_serve(&cfg, &registry);
        // Same seed and load as the robust arm, robustness switched off:
        // the 250%-of-capacity session demand must now surface as fatal
        // exhaustion verdicts and/or deadline blowups instead of sheds.
        assert!(
            report.exhausted > 0 || report.timeouts > 0,
            "ablation failed to degrade: {report:?}"
        );
        assert_eq!(report.shed, 0, "shedding was disabled");
        // Degraded, not broken: the session oracle still holds.
        assert_eq!(report.lost_sessions, 0);
        assert!(!report.uaf_detected);
    }

    #[test]
    fn serve_report_json_round_trips_through_the_shared_json_type() {
        let cfg = ServeConfig::quick(HeapLayout::Slab);
        let registry = Registry::new();
        let report = run_serve(&cfg, &registry);
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("report renders valid JSON");
        assert_eq!(
            parsed.get("requests").and_then(Json::as_f64),
            Some(report.requests as f64)
        );
        assert!(parsed.get("violations").and_then(Json::as_arr).is_some());
    }
}
