//! Chaos-under-serve integration tests: the full serving stack (admission
//! control, deadline-aware allocation, adaptive pacing, the session
//! keeper) survives a bounded fault storm and recovers.
//!
//! The storm plan combines every runtime fault site that matters under
//! load — handshake-delay yield storms, mutator silence (arming the
//! handshake watchdog), mark delays, injected mid-barrier mutator
//! panics, and the serve harness's own worker panics at request
//! boundaries. Injection is suppressed outside the middle third of the
//! request stream, so the oracle gets a clean warm-up and a fair recovery
//! window to measure against the SLO.

use relaxing_safely::gc::{FaultPlan, HeapLayout};
use relaxing_safely::serve::{run_serve, ServeConfig};
use relaxing_safely::trace::Registry;

/// A storm hitting every fault site the serve loop can reach. Rates are
/// per-10,000 draws; the worker-panic site draws once per serve-loop
/// iteration, so a 30% rate kills workers several times during the storm
/// even while admission control is shedding most of the load.
fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_handshake_delay(3_000)
        .with_silence(500, 2)
        .with_mark_delay(1_500)
        .with_mutator_panic(30)
        .with_worker_panic(3_000)
}

#[test]
fn serve_survives_a_chaos_storm_and_recovers() {
    // The worker-panic site only draws on requests a worker actually
    // processes inside the storm window; on a slow (debug, loaded) box
    // admission control can shed nearly the whole window and the storm
    // never reaches a worker. The oracle must hold on *every* run, but
    // the panic-reaches-the-loop half is allowed a few re-rolls — each
    // attempt is a full serve run asserted healthy.
    let mut report = None;
    for attempt in 0u64..5 {
        let mut cfg =
            ServeConfig::quick(HeapLayout::Slab).with_storm(storm_plan(0xc4a05 + attempt));
        // The storm aborts cycles through the handshake watchdog, so a
        // recovery-window request can still absorb one ~100ms stall tail;
        // keep the SLO meaningful (below the 250ms deadline) but with
        // margin against a loaded CI runner.
        cfg.slo = std::time::Duration::from_millis(200);
        let registry = Registry::new();
        let r = run_serve(&cfg, &registry);

        // The recovery oracle: no lost sessions, no use-after-free, every
        // request accounted for, post-storm p99 back under the SLO.
        assert!(
            r.is_healthy(),
            "oracle violations under storm: {:?}\nfull report: {r:?}",
            r.violations
        );
        let hit = r.worker_panics >= 1;
        report = Some(r);
        if hit {
            break;
        }
    }
    let report = report.expect("at least one serve run");
    assert!(
        report.worker_panics >= 1,
        "the storm never killed a worker in 5 attempts — injection did not reach the serve loop: {report:?}"
    );
    assert!(report.ok > 0, "nothing was served: {report:?}");
    assert_eq!(report.lost_sessions, 0);
    assert!(!report.uaf_detected);
    assert_eq!(
        report.sessions_live, report.sessions_created,
        "sessions must survive worker deaths via the keeper handoff"
    );
    assert!(
        report.post_storm_p99_ns.is_some(),
        "recovery window must have completions: {report:?}"
    );
    // Progress despite the storm: the paced collector kept cycling.
    assert!(report.cycles > 0, "collector made no progress: {report:?}");
}

#[test]
fn the_ci_storm_finishes_healthy_under_every_chaos_seed() {
    // Regression for the `gc-serve` hang: a storm run that aborts a cycle
    // with grey work outstanding used to leave an object on two
    // work-lists, and some later cycle then walked a cyclic list forever —
    // about one storm run in twenty, hence the number of seeds. Each gets
    // its own thread and a hard wall-clock cap; a normal run takes well
    // under a second.
    const CAP: std::time::Duration = std::time::Duration::from_secs(60);
    for seed in 0u64..48 {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut cfg =
                ServeConfig::quick(HeapLayout::Slab).with_storm(storm_plan(0x51ee + seed));
            cfg.slo = std::time::Duration::from_millis(200);
            // The receiver may have given up on us: nothing to do then.
            let _ = tx.send(run_serve(&cfg, &Registry::new()));
        });
        let r = rx
            .recv_timeout(CAP)
            .unwrap_or_else(|e| panic!("chaos seed {seed}: the storm run hung or died ({e})"));
        assert!(
            r.is_healthy(),
            "chaos seed {seed}: oracle violations under storm: {:?}\nfull report: {r:?}",
            r.violations
        );
    }
}

#[test]
fn storm_runs_are_deterministic_in_their_fault_stream() {
    // Two runs under the same seeds draw identical chaos decisions and
    // identical load; scheduling still differs, so only the *seeded*
    // quantities are compared.
    let cfg = ServeConfig::quick(HeapLayout::Slab).with_storm(storm_plan(7));
    let a = run_serve(&cfg, &Registry::new());
    let b = run_serve(&cfg, &Registry::new());
    assert_eq!(a.requests, b.requests);
    assert!(
        a.is_healthy() && b.is_healthy(),
        "{:?} / {:?}",
        a.violations,
        b.violations
    );
}
