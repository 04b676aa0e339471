//! Pool conformance: allocating from §4 thread-local pools
//! ([`GcConfig::alloc_pool`]) must be observationally identical to
//! allocating from the global free list.
//!
//! Every test here runs the *same seeded workload* once per pool size —
//! off, smaller than a burst, larger than one — and demands identical
//! liveness verdicts: a pool only changes which free slot an object gets,
//! never which objects the collector keeps. `debug_verify_integrity` runs
//! after every workload as the structural oracle, and validation mode (on
//! by default) turns any freed-while-reachable access into an immediate
//! panic.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use relaxing_safely::gc::{ChaosSite, Collector, FaultPlan, Gc, GcConfig, Mutator};
use relaxing_safely::serve::SplitMix64;

/// The pool sizes under comparison: off, and two batch sizes.
const POOLS: [usize; 3] = [0, 3, 64];

/// The serve harness's SplitMix64 stream, so every pool size replays the
/// same op stream.
struct Rng(SplitMix64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }
}

/// Runs one full collection cycle while `m` answers handshakes, so the
/// workload stays single-mutator-deterministic: no allocation or store
/// races the cycle, only safepoint acks.
fn quiescent_collect(collector: &Collector, m: &mut Mutator) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            assert!(collector.collect().is_completed());
            done.store(true, Ordering::Release);
        });
        while !done.load(Ordering::Acquire) {
            m.safepoint();
            std::thread::yield_now();
        }
    });
}

/// The verdict a workload produces under one pool size: live counts after
/// every quiescent cycle plus per-cycle freed counts. Two runs agree iff
/// they reclaim exactly the same objects at the same cycles.
#[derive(Debug, PartialEq, Eq)]
struct Verdict {
    live_after_each_cycle: Vec<usize>,
    freed_per_cycle: Vec<u64>,
    final_live: usize,
}

/// A seeded single-mutator graph-churn workload: allocate, link,
/// unlink, drop roots, and collect at deterministic points. The heap is
/// sized so allocation never fails — the emergency path is exercised
/// elsewhere — keeping the op stream identical across pool sizes.
fn run_workload(alloc_pool: usize, seed: u64) -> Verdict {
    let cfg = GcConfig::builder()
        .capacity(512)
        .max_fields(2)
        .alloc_pool(alloc_pool)
        .build();
    let collector = Collector::new(cfg);
    let mut m = collector.register_mutator();
    let mut rng = Rng(SplitMix64::new(seed));
    let mut roots: Vec<Gc> = Vec::new();
    let mut verdict = Verdict {
        live_after_each_cycle: Vec::new(),
        freed_per_cycle: Vec::new(),
        final_live: 0,
    };

    for op in 0..600 {
        match rng.below(100) {
            // Allocate a fresh root, sometimes linking it to an old one.
            0..=44 => {
                let g = m.alloc(2).expect("heap sized to never fill");
                if !roots.is_empty() && rng.below(2) == 0 {
                    let parent = roots[rng.below(roots.len())];
                    m.store(parent, rng.below(2), Some(g));
                }
                roots.push(g);
            }
            // Re-link two survivors (exercises both barriers).
            45..=69 if roots.len() >= 2 => {
                let a = roots[rng.below(roots.len())];
                let b = roots[rng.below(roots.len())];
                m.store(a, rng.below(2), Some(b));
            }
            // Sever an edge.
            70..=79 if !roots.is_empty() => {
                let a = roots[rng.below(roots.len())];
                m.store(a, rng.below(2), None);
            }
            // Drop a root: the object may survive via another's field.
            _ if !roots.is_empty() => {
                let victim = roots.swap_remove(rng.below(roots.len()));
                m.discard(victim);
            }
            _ => {}
        }
        // Collect at fixed op counts so cycle boundaries line up.
        if op % 150 == 149 {
            let freed_before = collector.stats().freed();
            quiescent_collect(&collector, &mut m);
            verdict.live_after_each_cycle.push(collector.live_objects());
            verdict
                .freed_per_cycle
                .push(collector.stats().freed() - freed_before);
        }
    }

    // Drain every root and collect: everything must go.
    for g in roots.drain(..) {
        m.discard(g);
    }
    quiescent_collect(&collector, &mut m);
    verdict.final_live = collector.live_objects();
    assert_eq!(
        collector.stats().tlab_refills() > 0,
        alloc_pool > 0,
        "pool refills happen exactly when the pool is on"
    );
    collector
        .debug_verify_integrity()
        .expect("heap coherent after workload");
    verdict
}

#[test]
fn seeded_workloads_produce_identical_verdicts() {
    for seed in [1, 0xBEEF, 0x5EED_5EED, 42_424_242] {
        let [unpooled, small, large] = POOLS.map(|pool| run_workload(pool, seed));
        assert_eq!(unpooled, small, "pool 3 diverged on seed {seed:#x}");
        assert_eq!(unpooled, large, "pool 64 diverged on seed {seed:#x}");
        assert_eq!(unpooled.final_live, 0, "full drain reclaims everything");
    }
}

/// Multi-threaded churn under a handshake-delay chaos storm.
fn torture(alloc_pool: usize) -> Collector {
    let plan = FaultPlan::new(0xD15EA5E).with_handshake_delay(1_500);
    let cfg = GcConfig::builder()
        .capacity(1024)
        .max_fields(2)
        .alloc_pool(alloc_pool)
        .chaos(plan)
        .build();
    let collector = Collector::new(cfg);
    let mut m0 = collector.register_mutator();
    let anchor = m0.alloc(2).unwrap();
    collector.start();
    let finished = AtomicUsize::new(0);
    const MUTS: usize = 3;
    const OPS: usize = 4_000;
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
                    if op % 128 == 0 {
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
    collector
        .debug_verify_integrity()
        .expect("heap coherent after torture");
    collector
}

#[test]
fn torture_with_the_same_plan_on_the_slab() {
    for pool in [0, 16] {
        let collector = torture(pool);
        let stats = collector.stats();
        assert!(stats.cycles() > 0);
        assert!(stats.freed() > 0);
        assert!(stats.chaos_fired(ChaosSite::HandshakeDelay) > 0);
        assert_eq!(stats.tlab_refills() > 0, pool > 0, "pool {pool}");
    }
}

#[test]
fn emergency_allocation_recovers_with_and_without_the_pool() {
    for pool in POOLS {
        let cfg = GcConfig::builder()
            .capacity(32)
            .max_fields(1)
            .alloc_pool(pool)
            .emergency_retries(4)
            .build();
        let collector = Collector::new(cfg);
        let mut m = collector.register_mutator();
        let mut held = Vec::new();
        // Fill the heap completely, drop everything, then allocate
        // again: the emergency cycle must reclaim and satisfy it even
        // though no background collector thread is running.
        while let Ok(g) = m.alloc(1) {
            held.push(g);
        }
        assert_eq!(held.len(), 32, "pool {pool}: the pool holds nothing back");
        for g in held.drain(..) {
            m.discard(g);
        }
        let g = m.alloc(1).expect("emergency collection recovers");
        m.discard(g);
        collector
            .debug_verify_integrity()
            .expect("heap coherent after emergency path");
    }
}
