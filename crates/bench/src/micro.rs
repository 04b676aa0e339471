//! The micro-benchmarks, measured by [`crate::harness`]: the write
//! barrier's paths, the runtime end to end, and the checker's substrates.

use std::sync::atomic::{AtomicBool, Ordering};

use gc_model::{GcModel, ModelConfig};
use gc_trace::Flags;
use mc::{Checker, Strategy, TransitionSystem};
use otf_gc::{Collector, Gc, GcConfig, GcConfigBuilder, Mutator, Phase};
use tso_model::{litmus, Machine, MemoryModel, ThreadId};

use crate::harness::{bench_function, Bencher};
use crate::{Run, Verdict};

/// Times `m.store(a, 0, Some(b))` on two fresh objects of a collector
/// built from `cfg`, after `setup` has placed its control state.
fn bench_store(bench: &mut Bencher, cfg: GcConfigBuilder, setup: fn(&Collector)) {
    let collector = Collector::new(cfg.capacity(1024).max_fields(2).build());
    setup(&collector);
    let mut m = collector.register_mutator();
    let a = m.alloc(2).unwrap();
    let b = m.alloc(2).unwrap();
    bench.iter(|| m.store(a, 0, Some(b)))
}

/// Barriers on, marking active, target *unmarked*: the slow path — one CAS
/// per fresh object. Each iteration gets a fresh white object via batched
/// setup so the CAS actually fires.
fn bench_store_unmarked(bench: &mut Bencher) {
    let cfg = GcConfig::builder()
        .capacity(1 << 16)
        .max_fields(2)
        .validate(false)
        .build();
    let collector = Collector::new(cfg);
    collector.debug_set_phase(Phase::Mark);
    collector.debug_set_fm(true); // heap allocates white (f_A = false)
    let mut m = collector.register_mutator();
    let a = m.alloc(2).unwrap();
    // Pre-allocate a pool of white objects to consume.
    let pool: Vec<_> = (0..60_000).map(|_| m.alloc(0).unwrap()).collect();
    let mut idx = 0;
    bench.iter_batched(
        || {
            let t = pool[idx % pool.len()];
            idx += 1;
            t
        },
        |t| m.store(a, 0, Some(t)),
    )
}

/// Write-barrier microbenchmarks — the performance claims behind Figure 5:
/// the barrier is two plain loads when the collector is idle or the target
/// is already marked, and pays the CAS only on the first marking of an
/// unmarked object during an active cycle.
pub(crate) fn barriers(f: &mut Flags) -> Run {
    f.finish()?;
    let unvalidated = || GcConfig::builder().validate(false);
    // Both barriers compiled out (the ablation configuration) — the
    // baseline cost of the field write itself.
    bench_function("store/bare (no barriers)", |b| {
        let bare = unvalidated()
            .insertion_barrier(false)
            .deletion_barrier(false);
        bench_store(b, bare, |_| {})
    });
    // Collector idle: the flag check matches (`flag == f_M`), so the
    // barrier exits after one load per mark.
    bench_function("store/idle (barrier fast exit)", |b| {
        bench_store(b, unvalidated(), |_| {})
    });
    // Marking active, targets already marked (allocated black): the common
    // case during a cycle — still no CAS.
    bench_function("store/mark, target marked (fast path)", |b| {
        bench_store(b, unvalidated(), |c| {
            c.debug_set_fm(true);
            c.debug_set_fa(true);
            c.debug_set_phase(Phase::Mark);
        })
    });
    bench_function("store/mark, target unmarked (CAS)", bench_store_unmarked);
    // The idle store with validation on: the cost of the use-after-free
    // oracle.
    bench_function("store/idle + validation oracle", |b| {
        bench_store(b, GcConfig::builder(), |_| {})
    });
    Ok(Verdict::Holds)
}

/// Times one allocate-and-discard (retrying while the heap is full)
/// against a collector running concurrently: steady-state allocation
/// throughput including reclamation.
fn bench_alloc_discard(name: &str, cfg: GcConfig, fields: usize) {
    let collector = Collector::new(cfg);
    let mut m = collector.register_mutator();
    collector.start();
    bench_function(name, |bench| {
        bench.iter(|| loop {
            m.safepoint();
            match m.alloc(fields) {
                Ok(g) => {
                    m.discard(g);
                    break;
                }
                Err(_) => std::thread::yield_now(),
            }
        })
    });
    collector.stop();
}

fn build_list(m: &mut Mutator, n: usize) -> Gc {
    let head = m.alloc(1).expect("room");
    let mut tail = head;
    for _ in 1..n {
        let node = m.alloc(1).expect("room"); // rooted by alloc
        m.store(tail, 0, Some(node));
        if tail != head {
            m.discard(tail); // now reachable through the list
        }
        tail = node;
    }
    if tail != head {
        m.discard(tail);
    }
    head
}

/// Times one full `collect()` cycle while `mutators` threads spin at
/// safepoints answering its handshakes, the first of them holding a live
/// list of `live` nodes.
fn bench_cycle(name: &str, mutators: usize, live: usize) {
    let cfg = GcConfig::builder()
        .capacity(live * 2 + 64)
        .max_fields(1)
        .validate(false)
        .build();
    let collector = Collector::new(cfg);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for i in 0..mutators {
            let mut m = collector.register_mutator();
            if i == 0 && live > 0 {
                build_list(&mut m, live);
            }
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    m.safepoint();
                    std::thread::yield_now();
                }
            });
        }
        bench_function(name, |bench| bench.iter(|| collector.collect()));
        stop.store(true, Ordering::Release);
    });
}

/// The tracer's per-site cost in its three states: runtime-disabled (one
/// relaxed load — the default for every instrumented hot path), enabled
/// (encode + SPSC ring push), and enabled-with-a-full-ring (events drop;
/// the push must stay cheap and never block). Feature-off is not a row:
/// those builds compile the call sites out entirely.
fn bench_trace_emit() {
    let emit = |name: &str| {
        bench_function(name, |bench| {
            bench.iter(|| gc_trace::emit(gc_trace::EventKind::Instant { id: 1, value: 7 }))
        });
    };
    gc_trace::disable();
    emit("trace emit: runtime-disabled");
    gc_trace::enable();
    emit("trace emit: enabled (ring drains lazily)");
    // By now the fixed-capacity ring has long overflowed: same call, but
    // every push is a drop.
    emit("trace emit: enabled, ring full (dropping)");
    gc_trace::disable();
    let _ = gc_trace::Tracer::global().drain();
}

/// The checker's hot successor-expansion path: a fresh `Vec` per state
/// (`successors`) vs one reused scratch buffer (`successors_into`) over
/// a fixed bag of reachable model states. The delta is what the
/// buffer-reuse path buys the BFS inner loop in allocation churn.
fn bench_successor_expansion() {
    let model = GcModel::new(ModelConfig::default());
    // A few BFS levels' worth of states to expand, duplicates and all
    // (the expansion cost is per state, not per distinct state).
    let mut states = model.initial_states();
    let mut frontier = states.clone();
    while states.len() < 512 {
        let mut next = Vec::new();
        for s in &frontier {
            next.extend(model.successors(s).into_iter().map(|(_, t)| t));
        }
        frontier = next;
        states.extend(frontier.iter().cloned());
    }
    states.truncate(512);

    bench_function("expand 512 states: successors (fresh Vec)", |bench| {
        bench.iter(|| {
            states
                .iter()
                .map(|s| model.successors(s).len())
                .sum::<usize>()
        })
    });
    bench_function("expand 512 states: successors_into (reused)", |bench| {
        let mut buf = Vec::new();
        bench.iter(|| {
            let mut n = 0usize;
            for s in &states {
                buf.clear();
                model.successors_into(s, &mut buf);
                n += buf.len();
            }
            n
        })
    });
}

/// End-to-end runtime benchmarks: allocation throughput, full-cycle cost
/// as a function of the live set, handshake latency as a function of the
/// mutator count (the cost of the six-plus rounds of ragged handshakes on
/// an empty heap), the §4 allocation-pool extension vs the global
/// free-list lock, the tracer's per-site cost, and the checker's successor expansion.
pub(crate) fn runtime(f: &mut Flags) -> Run {
    f.finish()?;
    let alloc_cfg = |capacity, fields| {
        GcConfig::builder()
            .capacity(capacity)
            .max_fields(fields)
            .validate(false)
    };
    bench_alloc_discard(
        "alloc+discard churn (collector running)",
        alloc_cfg(8192, 1).build(),
        1,
    );
    for live in [16usize, 256, 2048] {
        bench_cycle(&format!("gc cycle vs live set/{live}"), 1, live);
    }
    for n in [1usize, 2, 4] {
        bench_cycle(&format!("cycle latency vs mutators/{n}"), n, 0);
    }
    for (name, pool) in [("locked (pool=0)", 0), ("pooled (batch 64)", 64)] {
        let cfg = alloc_cfg(1 << 14, 0).alloc_pool(pool);
        bench_alloc_discard(&format!("alloc: {name}"), cfg.build(), 0);
    }
    bench_trace_emit();
    bench_successor_expansion();
    Ok(Verdict::Holds)
}

/// Checker throughput: states explored per run on a budget of 20k states
/// (includes hashing, dedup and the full invariant suite).
fn bench_checker_throughput(threads: usize) -> impl FnMut(&mut Bencher) {
    move |bench: &mut Bencher| {
        let cfg = ModelConfig::small(1, 2);
        bench.iter(|| {
            let model = GcModel::new(cfg.clone());
            Checker::with_config(crate::bounded_config(20_000))
                .strategy(Strategy::Bfs { threads })
                .property(gc_model::invariants::combined_property(&cfg))
                .run(&model)
                .stats()
                .states
        })
    }
}

/// Substrate benchmarks: the TSO machine (buffered write, forwarded read,
/// commit), exhaustive exploration of the SB litmus test, one
/// `successors` call on the GC model's initial state (the per-state cost
/// of the CIMP interpreter + rendezvous pairing), and the model checker's
/// exploration throughput.
pub(crate) fn substrates(f: &mut Flags) -> Run {
    f.finish()?;
    bench_function("tso write+read+commit", |bench| {
        let mut m: Machine<u8, u8> = Machine::new(2, MemoryModel::Tso);
        m.initialize(0, 0);
        let t = ThreadId::new(0);
        bench.iter(|| {
            m.write(t, 0, 1).unwrap();
            let v = m.read(t, &0).unwrap();
            m.commit(t).unwrap();
            v
        })
    });
    bench_function("litmus SB outcomes (TSO)", |bench| {
        let test = litmus::sb();
        bench.iter(|| test.outcomes(MemoryModel::Tso))
    });
    bench_function("gc-model successors (initial state)", |bench| {
        let model = GcModel::new(ModelConfig::small(1, 2));
        let init = model.initial_states().remove(0);
        bench.iter(|| model.successors(&init))
    });
    bench_function(
        "checker: 20k states, full suite, 1 thread",
        bench_checker_throughput(1),
    );
    bench_function(
        "checker: 20k states, full suite, 4 threads",
        bench_checker_throughput(4),
    );
    Ok(Verdict::Holds)
}
