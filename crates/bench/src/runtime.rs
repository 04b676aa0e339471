//! The runtime rigs: the collector on real threads under stress, and
//! under the chaos engine.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gc_trace::{CommaList, Flags, Json, MetricsServer, Registry};
use otf_gc::{churn_list, Collector, FaultPlan, GcConfig, Mutator};

use crate::{save_record, Run, Verdict};

/// `mutators` threads churning one shared list (cut every 64 ops, walked
/// every 16) while a bootstrap mutator keeps the anchor rooted and answers
/// handshakes until they are done.
fn churn(collector: &Collector, mutators: usize, ops: usize) {
    let mut m0 = collector.register_mutator();
    let anchor = m0.alloc(2).expect("room");
    let finished = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..mutators {
            let mut m = collector.register_mutator();
            m.adopt(anchor);
            let finished = &finished;
            s.spawn(move || {
                churn_list(&mut m, anchor, ops, 64, 256);
                finished.fetch_add(1, Ordering::Release);
            });
        }
        let finished = &finished;
        s.spawn(move || {
            while finished.load(Ordering::Acquire) < mutators {
                m0.safepoint();
                std::thread::yield_now();
            }
            drop(m0);
        });
    });
}

/// One cell of the allocation matrix. The timed window covers only the
/// allocation bursts — `threads` mutators alloc/store/discard until the
/// heap is nearly full — while reclamation runs *between* bursts
/// (quiescent `collect()` calls). This isolates the per-allocation path
/// the §4 pool changes (pool pop vs global free-list lock) and the
/// collector-side sweep (`sweep_ns` per cycle), instead of drowning both
/// in emergency-cycle noise. Returns the JSON row for
/// `BENCH_heap_alloc.json` plus the headline numbers.
struct AllocCell {
    row: Json,
    allocs_per_sec: f64,
    mean_sweep_ns: f64,
}

fn alloc_matrix_cell(
    alloc_pool: usize,
    capacity: usize,
    threads: usize,
    target_allocs: usize,
) -> AllocCell {
    let cfg = GcConfig::builder()
        .capacity(capacity)
        .max_fields(2)
        .alloc_pool(alloc_pool)
        .build();
    let collector = Collector::new(cfg);
    // Leave headroom for per-mutator pool reservations so a burst never
    // hits the emergency path inside the timed window.
    let burst_per_thread = capacity / threads - 64;
    let bursts = target_allocs.div_ceil(burst_per_thread * threads).max(2);
    // `bursts` timed bursts of `threads` fresh mutators each running
    // `per_alloc` on `burst_per_thread` allocations; everything is
    // reclaimed between bursts, outside the timed windows: no mutators are
    // registered then, so the cycles complete without handshake partners.
    // Two cycles so even garbage floated by the final barrier snapshots is
    // gone. Returns allocations per timed second and the timed seconds.
    let timed_bursts = |per_alloc: fn(&mut Mutator, otf_gc::Gc)| {
        let mut timed = Duration::ZERO;
        for _ in 0..bursts {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let mut m = collector.register_mutator();
                    s.spawn(move || {
                        for _ in 0..burst_per_thread {
                            m.safepoint();
                            match m.alloc(2) {
                                Ok(node) => per_alloc(&mut m, node),
                                Err(_) => std::thread::yield_now(),
                            }
                        }
                    });
                }
            });
            timed += t0.elapsed();
            assert!(collector.collect().is_completed());
            assert!(collector.collect().is_completed());
        }
        let allocs = (bursts * burst_per_thread * threads) as f64;
        (allocs / timed.as_secs_f64(), timed.as_secs_f64())
    };

    // Phase A — the pure allocation path: nothing in the loop but
    // `alloc` (objects stay rooted until the mutator unregisters at
    // burst end). This is the number the pool actually changes: pool
    // pop vs global free-list lock.
    let (allocs_per_sec, alloc_timed_s) = timed_bursts(|_, _| {});

    // Phase B — churn: one barrier-carrying store plus a discard per
    // allocation (the stress access pattern), for the barrier-cost and
    // steady-state columns. The self-link makes cyclic garbage — the
    // tracer reclaims it all the same.
    let barriers_before = collector.stats().barrier_checks();
    let (churn_allocs_per_sec, churn_timed_s) = timed_bursts(|m, node| {
        m.store(node, 0, Some(node));
        m.discard(node);
    });

    let st = collector.stats();
    let history = st.history();
    let cycles = history.len().max(1) as f64;
    let mean_sweep_ns = history.iter().map(|c| c.sweep_ns as f64).sum::<f64>() / cycles;
    let churn_allocs = (bursts * burst_per_thread * threads) as f64;
    let barrier_per_alloc = (st.barrier_checks() - barriers_before) as f64 / churn_allocs.max(1.0);
    println!(
        "  pool {:>3} cap {:>6}: {:>12.0} allocs/s (pure)  {:>12.0} allocs/s (churn)  {:>5.2} barrier-checks/alloc  {:>10.0} sweep ns/cycle  ({} cycles, {} pool refills)",
        alloc_pool,
        capacity,
        allocs_per_sec,
        churn_allocs_per_sec,
        barrier_per_alloc,
        mean_sweep_ns,
        history.len(),
        st.tlab_refills(),
    );
    let row = Json::obj()
        .set("alloc_pool", alloc_pool)
        .set("capacity", capacity)
        .set("threads", threads)
        .set("bursts", bursts)
        .set("burst_per_thread", burst_per_thread)
        .set("alloc_timed_s", alloc_timed_s)
        .set("churn_timed_s", churn_timed_s)
        .set("allocated", st.allocated())
        .set("allocs_per_sec", allocs_per_sec)
        .set("churn_allocs_per_sec", churn_allocs_per_sec)
        .set("barrier_checks_per_alloc", barrier_per_alloc)
        .set("cycles", history.len())
        .set("mean_sweep_ns_per_cycle", mean_sweep_ns)
        .set("freed", st.freed())
        .set("pool_refills", st.tlab_refills());
    AllocCell {
        row,
        allocs_per_sec,
        mean_sweep_ns,
    }
}

/// **R1 — runtime stress with the safety oracle, plus the two-cycle
/// floating-garbage bound and the allocation-pool matrix.**
///
/// Part 1: several mutator threads churn shared structures while the
/// collector runs on-the-fly; validation mode turns any
/// freed-while-reachable object into an immediate panic, so a clean run is
/// the runtime enactment of the safety theorem.
///
/// Part 2: the allocation matrix — the same multi-threaded alloc/store/
/// discard loop with the §4 pool off and at 64 slots, at two capacities,
/// reporting allocs/sec, barrier checks per allocation, and mean sweep ns
/// per cycle: what the pool saves per allocation, and how the eager sweep
/// scales with heap capacity. Written to `BENCH_heap_alloc.json`.
///
/// Part 3: the paper's §4 remark — "garbage is collected within two cycles
/// of the collector's outer loop" — measured directly: objects made
/// garbage *during* marking float through the current cycle and are
/// reclaimed by the next.
///
/// Part 4: the barrier ablations on real threads — the stress loop run
/// with a barrier removed trips the use-after-free oracle, reproducing the
/// model checker's counterexamples at runtime scale. (Racy and
/// timing-dependent: the broken run is attempted several times and is
/// expected, not guaranteed, to fail.)
pub(crate) fn stress(f: &mut Flags) -> Run {
    f.finish()?;
    println!("== stress: 4 mutators x 30k ops, faithful configuration ==");
    let collector = Collector::new(GcConfig::builder().capacity(4096).max_fields(2).build());
    collector.start();
    churn(&collector, 4, 30_000);
    collector.stop();
    let s = collector.stats();
    print!("{}", s.summary());
    println!("  {:<20} {:>12}", "live", collector.live_objects());
    if let Some(last) = s.history().last() {
        println!("last cycle: {last}");
    }
    println!("no use-after-free: the runtime safety oracle stayed quiet\n");

    let record = gc_trace::bench_record(
        "stress",
        &[
            ("mutators", Json::from(4u64)),
            ("ops", Json::from(30_000u64)),
            ("capacity", Json::from(4096u64)),
        ],
        &[
            (
                "gc_stats",
                Json::parse(&s.to_json()).expect("GcStats::to_json is valid JSON"),
            ),
            (
                "last_cycle",
                s.history().last().map_or(Json::Null, |c| {
                    Json::parse(&c.to_json()).expect("CycleStats::to_json is valid JSON")
                }),
            ),
            ("live_objects", Json::from(collector.live_objects())),
        ],
        None,
    );
    save_record("stress", &record);

    println!("\n== allocation pools: alloc throughput and sweep cost, 4 threads ==");
    const THREADS: usize = 4;
    const TARGET_ALLOCS: usize = 400_000;
    const CAPACITIES: [usize; 2] = [4_096, 16_384];
    const POOLS: [usize; 2] = [0, 64];
    let mut rows = Vec::new();
    let mut tput = [[0.0f64; 2]; 2]; // [pool][capacity]
    let mut sweep = [[0.0f64; 2]; 2];
    for (pi, &pool) in POOLS.iter().enumerate() {
        for (ci, &cap) in CAPACITIES.iter().enumerate() {
            let cell = alloc_matrix_cell(pool, cap, THREADS, TARGET_ALLOCS);
            tput[pi][ci] = cell.allocs_per_sec;
            sweep[pi][ci] = cell.mean_sweep_ns;
            rows.push(cell.row);
        }
    }
    let speedup = tput[1][0] / tput[0][0].max(1.0);
    let sweep_growth = sweep[0][1] / sweep[0][0].max(1.0);
    println!(
        "pooled/unpooled alloc throughput at cap {}: {speedup:.2}x",
        CAPACITIES[0]
    );
    println!(
        "sweep ns/cycle growth, cap {}x: {sweep_growth:.2}x",
        CAPACITIES[1] / CAPACITIES[0]
    );
    let record = gc_trace::bench_record(
        "heap_alloc",
        &[
            ("threads", Json::from(THREADS)),
            ("target_allocs", Json::from(TARGET_ALLOCS)),
            (
                "capacities",
                Json::Arr(CAPACITIES.iter().map(|&c| Json::from(c)).collect()),
            ),
        ],
        &[
            ("cells", Json::Arr(rows)),
            ("pooled_over_unpooled_allocs_per_sec", Json::from(speedup)),
            ("sweep_growth", Json::from(sweep_growth)),
        ],
        None,
    );
    save_record("heap_alloc", &record);

    println!("\n== floating garbage: reclaimed within two cycles ==");
    let collector = Collector::new(GcConfig::builder().capacity(64).max_fields(1).build());
    let mut m = collector.register_mutator();
    let a = m.alloc(1).expect("room");
    let b = m.alloc(1).expect("room");
    m.store(a, 0, Some(b));
    m.discard(b);
    collector.start();
    // Wait until a cycle is past its snapshot, then cut b loose: it will
    // float through that cycle.
    while collector.stats().cycles() < 1 {
        m.safepoint();
    }
    m.store(a, 0, None); // b becomes garbage mid-stream
    let freed_before = collector.stats().freed();
    let cut_at = collector.stats().cycles();
    while collector.stats().cycles() < cut_at + 2 {
        m.safepoint();
    }
    collector.stop();
    let freed_after = collector.stats().freed();
    println!(
        "cut at cycle {cut_at}; after two more cycles freed grew {} -> {} (b reclaimed)",
        freed_before, freed_after
    );
    if freed_after <= freed_before || collector.live_objects() != 1 {
        return Ok(Verdict::Fails(
            "the garbage must be gone within two cycles".into(),
        ));
    }

    let small = || GcConfig::builder().capacity(512).max_fields(2);
    for (name, cfg) in [
        ("no insertion barrier", small().insertion_barrier(false)),
        ("no deletion barrier", small().deletion_barrier(false)),
    ] {
        let cfg = cfg.build();
        println!("\n== ablation on real threads: {name} ==");
        let tripped = (0..10).find(|_| {
            let collector = Collector::new(cfg.clone());
            collector.start();
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| churn(&collector, 4, 8_000)));
            // Threads may have died mid-handshake: tear down hard.
            collector.stop();
            std::mem::forget(collector); // heap may be inconsistent
            r.is_err()
        });
        match tripped {
            Some(attempt) => {
                println!("use-after-free caught on attempt {attempt} — as the model predicts")
            }
            None => {
                println!("(no failure observed in 10 attempts — the race is timing-dependent;");
                println!(" the model checker's counterexample remains the definitive witness)");
            }
        }
    }
    Ok(Verdict::Holds)
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one seed, prints its table line, and returns its `per_seed` row
/// and whether its verdict was OK. Odd seeds allocate from §4 pools.
fn run_seed(
    seed: u64,
    mutators: usize,
    ops: usize,
    capacity: usize,
    registry: &Registry,
) -> (Json, bool) {
    let plan = FaultPlan::from_seed(seed);
    let pool = if seed.is_multiple_of(2) { 0 } else { 8 };
    let cfg = GcConfig::builder()
        .capacity(capacity)
        .max_fields(2)
        .handshake_timeout(Duration::from_millis(40))
        .emergency_retries(2)
        .alloc_pool(pool)
        .chaos(plan)
        .build();
    let collector = Collector::new(cfg);

    // Root the shared anchor from a bootstrap mutator until every churner
    // has adopted it, then leave before the first cycle can block on us.
    let mut m0 = collector.register_mutator();
    let anchor = m0.alloc(2).expect("fresh heap has room");
    let mut churners = Vec::new();
    for _ in 0..mutators {
        let mut m = collector.register_mutator();
        m.adopt(anchor);
        churners.push(m);
    }
    drop(m0);
    if seed.is_multiple_of(3) {
        // Leak a registered mutator: never beats, never acks, never
        // deregisters — the watchdog must evict it or no cycle ever ends.
        std::mem::forget(collector.register_mutator());
    }

    let chaos_panics = AtomicUsize::new(0);
    let oracle_trips = AtomicUsize::new(0);
    let first_oracle: Mutex<Option<String>> = Mutex::new(None);
    let finished = AtomicUsize::new(0);
    let mut verdict: Result<(), String> = Ok(());

    std::thread::scope(|s| {
        for mut m in churners {
            let chaos_panics = &chaos_panics;
            let oracle_trips = &oracle_trips;
            let first_oracle = &first_oracle;
            let finished = &finished;
            s.spawn(move || {
                // A full heap is backpressure, not failure: the driver's
                // next cycle (or our own emergency cycle) frees the
                // cuttings. The mutator dies with the closure, inside the
                // unwind guard.
                let r = std::panic::catch_unwind(AssertUnwindSafe(move || {
                    churn_list(&mut m, anchor, ops, 64, 128)
                }));
                if let Err(e) = r {
                    let msg = panic_message(e.as_ref());
                    if msg.starts_with("chaos:") {
                        chaos_panics.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Anything else is the use-after-free oracle (or a
                        // genuine bug): a safety violation either way.
                        oracle_trips.fetch_add(1, Ordering::Relaxed);
                        first_oracle.lock().unwrap().get_or_insert(msg);
                    }
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
        // The driver: cycles back to back until every churner is done.
        // The watchdog guarantees each collect() call terminates. Each
        // lap bumps the progress counter the /healthz liveness probe
        // watches and republishes the cumulative cycle gauge.
        let collect_calls = registry.counter("torture_collect_calls_total");
        let cycles_gauge = registry.gauge("gc_cycles_completed");
        while finished.load(Ordering::Acquire) < mutators {
            let _ = collector.collect();
            collect_calls.inc();
            cycles_gauge.set(collector.stats().cycles() as i64);
            let live = collector.live_objects();
            if live > capacity && verdict.is_ok() {
                verdict = Err(format!("{live} live objects exceed capacity {capacity}"));
            }
        }
    });

    // Quiesced: everything is garbage now; two completed cycles must
    // reclaim it all (the §4 floating-garbage bound), and the heap must
    // pass the exhaustive integrity check.
    let verdict = verdict.and_then(|()| {
        let completed = (0..10).filter(|_| collector.collect().is_completed());
        if completed.take(2).count() < 2 {
            return Err("quiesced heap failed to complete two cycles".into());
        }
        let trips = oracle_trips.load(Ordering::Relaxed);
        if trips > 0 {
            let first = first_oracle.lock().unwrap().take();
            return Err(format!(
                "use-after-free oracle fired {trips} time(s), first: {}",
                first.unwrap_or_else(|| "<?>".into())
            ));
        }
        let live = collector.live_objects();
        if live != 0 {
            return Err(format!("{live} objects leaked past two completed cycles"));
        }
        collector.debug_verify_integrity()
    });

    let st = collector.stats();
    let (completed, timed_out, evictions) = (st.cycles(), st.cycle_timeouts(), st.evictions());
    let (panics, fired) = (chaos_panics.load(Ordering::Relaxed), st.chaos_fired_total());
    let word = match &verdict {
        Ok(()) => "OK".to_string(),
        Err(e) => format!("FAIL: {e}"),
    };
    println!(
        "{seed:>6} | {pool:>4} | {completed:>9} | {timed_out:>8} | {evictions:>7} | {panics:>6} | {fired:>6} | {word}"
    );
    let row = Json::obj()
        .set("seed", seed)
        .set("alloc_pool", pool)
        .set("completed", completed)
        .set("timed_out", timed_out)
        .set("evictions", evictions)
        .set("chaos_panics", panics)
        .set("faults_fired", fired)
        .set("verdict", word.as_str());
    (row, verdict.is_ok())
}

/// **Torture — the chaos-engine acceptance harness.**
///
/// For each seed, runs K mutator threads churning a shared structure under
/// a randomized deterministic [`FaultPlan`] (handshake delay storms,
/// spurious mark-CAS losses, injected silence, mid-barrier mutator panics,
/// slow staged transfers) while the driver thread runs collection cycles
/// back to back with the handshake watchdog armed.
///
/// The run checks, per seed:
///
/// * **termination** — every cycle reaches an outcome (`Completed` or
///   `TimedOut`), never a hang, even with mutators silent for several
///   handshake generations or leaked without deregistering;
/// * **safety** — the use-after-free oracle (validation mode) never fires:
///   every churner panic must be a chaos-injected one;
/// * **heap validity** — live objects never exceed capacity mid-run, and
///   after quiescence the free list is exhaustive and duplicate-free, the
///   phase is idle, and all garbage is reclaimed within two completed
///   cycles.
///
/// Odd seeds allocate from §4 pools of 8 slots, even seeds from the
/// global free list. `--metrics-addr` serves the run's registry live over HTTP (`/metrics`, `/metrics.json`,
/// `/healthz` keyed to `torture_collect_calls_total` progress). Fails if
/// any seed's verdict is not OK.
pub(crate) fn torture(f: &mut Flags) -> Run {
    let seeds = f
        .opt::<CommaList<u64>>("--seeds")?
        .map_or((1..=10).collect(), |list| list.0);
    let ops = f.get("--ops", 20_000usize)?;
    let mutators = f.get("--mutators", 4usize)?;
    let capacity = f.get("--capacity", 1_024usize)?;
    let metrics_addr: Option<String> = f.opt("--metrics-addr")?;
    f.finish()?;

    // Injected panics are expected by the dozen: keep stderr quiet and
    // report through the captured payloads instead.
    std::panic::set_hook(Box::new(|_| {}));
    println!(
        "== torture: {} seeds x {mutators} mutators x {ops} ops, capacity {capacity} ==",
        seeds.len()
    );
    // One registry across all seeds: collect-call and cycle counts
    // accumulate, the optional scrape endpoint serves them live, and the
    // snapshot lands in the BENCH record.
    let registry = Arc::new(Registry::new());
    let _server = match MetricsServer::for_flag(
        metrics_addr.as_deref(),
        &registry,
        "torture_collect_calls_total",
        Duration::from_secs(10),
    ) {
        Ok(server) => server,
        Err(e) => return Ok(Verdict::Fails(e.to_string())),
    };
    println!(
        "{:>6} | {:>4} | {:>9} | {:>8} | {:>7} | {:>6} | {:>6} | verdict",
        "seed", "pool", "completed", "timedout", "evicted", "panics", "faults"
    );
    let mut failures = 0u64;
    let mut rows: Vec<Json> = Vec::new();
    for &seed in &seeds {
        let (row, ok) = run_seed(seed, mutators, ops, capacity, &registry);
        failures += u64::from(!ok);
        rows.push(row);
    }
    let record = gc_trace::bench_record(
        "torture",
        &[
            ("seeds", Json::from(seeds.len())),
            ("mutators", Json::from(mutators)),
            ("ops", Json::from(ops)),
            ("capacity", Json::from(capacity)),
        ],
        &[
            ("failures", Json::from(failures)),
            ("per_seed", Json::Arr(rows)),
        ],
        Some(&registry),
    );
    save_record("torture", &record);
    if failures > 0 {
        return Ok(Verdict::Fails(format!(
            "torture: {failures} seed(s) FAILED"
        )));
    }
    println!("torture: all seeds OK");
    Ok(Verdict::Holds)
}
