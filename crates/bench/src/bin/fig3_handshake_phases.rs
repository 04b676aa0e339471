//! **Figure 3 — control-state transitions and handshake phases.**
//!
//! Figure 3 shows (a) the collector's phase transitions over two cycles,
//! (b) the handshake phases mutators move through, and (c) that mutators
//! may observe new control states *before* the corresponding handshake
//! (store-buffer effects), yet all agree after the round.
//!
//! This driver explores the model and reports the observed relation
//! between the collector's handshake phase and each mutator's — verifying
//! the paper's phase relation (every mutator is in the collector's phase
//! or its predecessor) — and counts the "early observation" states where a
//! mutator has loaded a control value the corresponding handshake has not
//! yet communicated to it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use gc_bench::{check_config_with, print_table};
use gc_model::invariants::combined_property;
use gc_model::view::View;
use gc_model::{ModelConfig, Phase};
use mc::Property;

fn main() {
    let max: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000_000);

    let cfg = ModelConfig::small(1, 2);

    #[derive(Default)]
    struct Obs {
        relation: BTreeMap<(String, String, bool), usize>,
        early: usize,
    }
    // The observer mutates shared state per visited state, so the run
    // stays on the sequential strategy (the default): parallel workers may
    // re-evaluate a property on claim races, skewing exact counts.
    let obs: Arc<Mutex<Obs>> = Arc::default();
    let o2 = Arc::clone(&obs);
    let cfg2 = cfg.clone();
    let watcher = Property::labeled(
        "phase-relation-observer",
        move |st: &gc_model::ModelState| {
            let v = View::new(&cfg2, st);
            let sys = v.sys();
            let mut obs = o2.lock().expect("observer lock");
            for m in 0..cfg2.mutators {
                let ms = v.mutator(m);
                *obs.relation
                    .entry((
                        sys.ghost_gc_phase.to_string(),
                        ms.ghost_hs_phase.to_string(),
                        sys.pending(m),
                    ))
                    .or_insert(0) += 1;
                // "Early observation": the committed phase is already Mark or
                // beyond while the mutator's handshake phase says it has not
                // yet been told about Init — it could read the new value now.
                if sys.committed_phase() != Phase::Idle
                    && matches!(
                        ms.ghost_hs_phase,
                        gc_model::HsPhase::Idle | gc_model::HsPhase::IdleInit
                    )
                {
                    obs.early += 1;
                }
            }
            None
        },
    );

    let report = check_config_with(
        "1 mutator, 2 slots",
        &cfg,
        max,
        vec![watcher, combined_property(&cfg)],
    );
    print_table(std::slice::from_ref(&report));

    let obs = obs.lock().expect("observer lock");
    println!("\nobserved (collector hs-phase, mutator hs-phase, pending) relation:");
    println!(
        "{:<22} {:<22} {:>8} {:>10}",
        "collector", "mutator", "pending", "states"
    );
    for ((c, m, p), n) in obs.relation.iter() {
        println!("{c:<22} {m:<22} {p:>8} {n:>10}");
    }
    println!(
        "\nstates where a mutator could observe a control value ahead of its \
         handshake phase: {}",
        obs.early
    );
    assert!(obs.early > 0, "TSO makes early observation reachable");
    assert!(report.violated.is_none(), "the phase relation is invariant");
}
