//! Integration tests for the runtime collector (`otf-gc`): end-to-end
//! cycles with concurrent mutators, reclamation precision, floating
//! garbage, and mutator lifecycle.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use relaxing_safely::gc::{ChaosSite, Collector, CycleOutcome, FaultPlan, GcConfig, Mutator};

/// The test configuration: `capacity` slots of up to `max_fields` fields.
fn cfg(capacity: usize, max_fields: usize) -> GcConfig {
    GcConfig::builder()
        .capacity(capacity)
        .max_fields(max_fields)
        .build()
}

/// Run `f(mutator)` while the collector executes exactly `cycles` cycles.
fn with_running_collector(
    cfg: GcConfig,
    setup: impl FnOnce(&mut Mutator),
    cycles: u64,
) -> (Collector, Mutator) {
    let collector = Collector::new(cfg);
    let mut m = collector.register_mutator();
    setup(&mut m);
    collector.start();
    let target = collector.stats().cycles() + cycles;
    while collector.stats().cycles() < target {
        m.safepoint();
        std::thread::yield_now();
    }
    collector.stop();
    (collector, m)
}

#[test]
fn garbage_is_collected_live_data_survives() {
    let (collector, mut m) = with_running_collector(
        cfg(128, 2),
        |m| {
            // live: a -> b; garbage: c -> d (both discarded)
            let a = m.alloc(2).unwrap();
            let b = m.alloc(2).unwrap();
            m.store(a, 0, Some(b));
            m.discard(b);
            let c = m.alloc(2).unwrap();
            let d = m.alloc(2).unwrap();
            m.store(c, 0, Some(d));
            m.discard(d);
            m.discard(c);
        },
        3,
    );
    assert_eq!(collector.live_objects(), 2);
    // The surviving pair is intact and loadable.
    let a = m.roots().next().expect("a still rooted");
    let b = m.load(a, 0).expect("b survived");
    assert!(m.is_rooted(b));
}

#[test]
fn cyclic_garbage_is_collected() {
    let (collector, _m) = with_running_collector(
        cfg(64, 1),
        |m| {
            let a = m.alloc(1).unwrap();
            let b = m.alloc(1).unwrap();
            m.store(a, 0, Some(b));
            m.store(b, 0, Some(a)); // cycle
            m.discard(a);
            m.discard(b);
        },
        3,
    );
    // Tracing collectors reclaim cycles (unlike reference counting).
    assert_eq!(collector.live_objects(), 0);
}

#[test]
fn floating_garbage_reclaimed_within_two_cycles() {
    let collector = Collector::new(cfg(64, 1));
    let mut m = collector.register_mutator();
    let a = m.alloc(1).unwrap();
    let b = m.alloc(1).unwrap();
    m.store(a, 0, Some(b));
    m.discard(b);
    collector.start();
    while collector.stats().cycles() < 1 {
        m.safepoint();
    }
    // Cut b loose mid-stream: depending on where the cycle is, b floats
    // through it, but two full cycles later it must be gone.
    m.store(a, 0, None);
    let at = collector.stats().cycles();
    while collector.stats().cycles() < at + 2 {
        m.safepoint();
    }
    collector.stop();
    assert_eq!(collector.live_objects(), 1, "only `a` remains");
}

#[test]
fn heap_fills_and_recovers_after_collection() {
    let collector = Collector::new(cfg(8, 0));
    let mut m = collector.register_mutator();
    let mut held = Vec::new();
    for _ in 0..8 {
        held.push(m.alloc(0).unwrap());
    }
    assert!(m.alloc(0).is_err(), "heap is full");
    for g in held.drain(..) {
        m.discard(g);
    }
    // One cycle driven from another thread frees everything.
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            collector.collect();
            done.store(true, Ordering::Release);
        });
        while !done.load(Ordering::Acquire) {
            m.safepoint();
            std::thread::yield_now();
        }
    });
    assert_eq!(collector.live_objects(), 0);
    assert!(m.alloc(0).is_ok(), "allocation works again");
}

#[test]
fn many_mutators_churn_without_use_after_free() {
    const MUTS: usize = 4;
    const OPS: usize = 5_000;
    let collector = Collector::new(cfg(2048, 2));
    let mut m0 = collector.register_mutator();
    let anchor = m0.alloc(2).unwrap();
    collector.start();
    let finished = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..MUTS {
            let mut m = collector.register_mutator();
            m.adopt(anchor);
            let finished = &finished;
            s.spawn(move || {
                for op in 0..OPS {
                    m.safepoint();
                    if let Ok(node) = m.alloc(2) {
                        let old = m.load(anchor, 0);
                        m.store(node, 0, old);
                        m.store(anchor, 0, Some(node));
                        if let Some(o) = old {
                            m.discard(o);
                        }
                        m.discard(node);
                    } else {
                        std::thread::yield_now();
                    }
                    if op % 100 == 0 {
                        m.store(anchor, 0, None);
                    }
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
        let finished = &finished;
        s.spawn(move || {
            while finished.load(Ordering::Acquire) < MUTS {
                m0.safepoint();
                std::thread::yield_now();
            }
            drop(m0);
        });
    });
    collector.stop();
    // Validation mode would have panicked on any freed-while-reachable
    // access; reaching here with plausible counters is the assertion.
    assert!(collector.stats().cycles() > 0);
    assert!(collector.stats().freed() > 0);
}

#[test]
fn mutators_can_come_and_go_mid_collection() {
    let collector = Collector::new(cfg(256, 1));
    collector.start();
    // Keep registering/deregistering transient mutators until at least one
    // cycle has completed around them — on a loaded single-core box a fixed
    // iteration count can finish before the collector thread is ever
    // scheduled, which is not the scenario under test.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while collector.stats().cycles() == 0 && std::time::Instant::now() < deadline {
        let mut m = collector.register_mutator();
        if let Ok(a) = m.alloc(1) {
            m.safepoint();
            m.discard(a);
        }
        drop(m); // deregisters cleanly even if a handshake is pending
        std::thread::yield_now();
    }
    collector.stop();
    // Everything those transient mutators made is garbage...
    let collector2 = collector; // keep alive for final count
    assert!(collector2.stats().cycles() > 0);
}

#[test]
fn chaos_storms_leave_the_heap_coherent() {
    // Aggressive delay + CAS-loss + slow-transfer injection: cycles get
    // slower and noisier but the collector must stay precise. The
    // use-after-free oracle (validation on) and the integrity check are
    // the assertions.
    let plan = FaultPlan::new(0xC0FFEE)
        .with_handshake_delay(2_000)
        .with_cas_lost(2_000)
        .with_slow_transfer(2_000);
    let collector = Collector::new(cfg(128, 2).with_chaos(plan));
    let mut m = collector.register_mutator();
    let anchor = m.alloc(2).unwrap();
    collector.start();
    let mut spine = anchor;
    for i in 0..400 {
        m.safepoint();
        if let Ok(node) = m.alloc(2) {
            m.store(spine, 0, Some(node));
            if spine != anchor {
                m.discard(spine);
            }
            spine = node;
        }
        if i % 64 == 0 {
            // Cut the chain loose and restart from the anchor.
            m.store(anchor, 0, None);
            if spine != anchor {
                m.discard(spine);
                spine = anchor;
            }
        }
    }
    collector.stop();
    assert!(
        collector.stats().chaos_fired_total() > 0,
        "the plan actually injected faults"
    );
    collector.debug_verify_integrity().expect("heap coherent");
}

#[test]
fn mutator_silent_for_three_generations_never_hangs_collection() {
    // The acceptance scenario: one mutator goes injected-silent for 3
    // handshake generations. The watchdog must carry every cycle to an
    // outcome — TimedOut aborts while the silence lasts (the mutator keeps
    // beating, so it is never evicted), Completed once it lifts.
    let plan = FaultPlan::new(7).with_silence(10_000, 3); // every generation re-silences
    let config = cfg(32, 1)
        .with_handshake_timeout(Duration::from_millis(30))
        .with_chaos(plan);
    let collector = Collector::new(config);
    let mut m = collector.register_mutator();
    let a = m.alloc(1).unwrap();
    let id = m.id();
    let stop = AtomicBool::new(false);
    let started = AtomicBool::new(false);
    let outcomes: Vec<CycleOutcome> = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                m.safepoint(); // beats every iteration; silenced from acking
                started.store(true, Ordering::Release);
                std::thread::yield_now();
            }
        });
        // Don't start collecting until the spinner has provably beaten
        // once, or the first watchdog window could see a still-unscheduled
        // thread as beat-less and evict it.
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let outs: Vec<CycleOutcome> = (0..4).map(|_| collector.collect()).collect();
        stop.store(true, Ordering::Release);
        outs
    });
    // Reaching here at all proves no hang. Under total silence every cycle
    // is watchdog-aborted, naming the silent mutator.
    for out in &outcomes {
        match out {
            CycleOutcome::TimedOut { stalled, .. } => assert_eq!(stalled, &vec![id]),
            other => panic!("expected TimedOut under total silence, got {other:?}"),
        }
    }
    assert_eq!(
        collector.stats().evictions(),
        0,
        "a beating mutator is never evicted"
    );
    assert!(collector.stats().chaos_fired(ChaosSite::Silence) > 0);
    // The rooted object survived every aborted cycle, and once the silent
    // mutator leaves (a clean exit answers regardless of injected silence),
    // the very next completed cycle reclaims it: aborts free nothing, but
    // they flag the heap for a mark repaint so the following cycle starts
    // from a clean slate instead of a stale-mark no-op sweep.
    let _ = m.load(a, 0);
    drop(m);
    assert!(collector.collect().is_completed());
    assert_eq!(collector.live_objects(), 0);
    collector.debug_verify_integrity().expect("heap coherent");
}

#[test]
fn stats_track_the_fast_path() {
    let collector = Collector::new(cfg(512, 1));
    let mut m = collector.register_mutator();
    let a = m.alloc(1).unwrap();
    let b = m.alloc(1).unwrap();
    // Idle: barriers run but exit on the flag check; no CAS.
    for _ in 0..100 {
        m.store(a, 0, Some(b));
    }
    let s = collector.stats();
    assert!(s.barrier_checks() >= 100);
    assert_eq!(s.barrier_cas_won() + s.barrier_cas_lost(), 0);
}
