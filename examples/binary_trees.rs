//! GCBench-style workload: repeatedly build and drop complete binary trees
//! of varying depth while a long-lived tree stays resident — the classic
//! stress shape for tracing collectors, here running against the
//! on-the-fly collector with full validation.
//!
//! Run with: `cargo run --release --example binary_trees`

use relaxing_safely::gc::collections::GcTree;
use relaxing_safely::gc::{Collector, GcConfig};

fn main() {
    // §4 allocation pools: the allocation firehose below takes the
    // free-list lock once per 64 objects instead of once per object.
    let collector = Collector::new(
        GcConfig::builder()
            .capacity(16_384)
            .max_fields(2)
            .alloc_pool(64)
            .build(),
    );
    let mut m = collector.register_mutator();

    // A long-lived tree that must survive every cycle.
    let mut long_lived = GcTree::new();
    long_lived.build(&mut m, 10).expect("room for 2047 nodes");

    collector.start();

    // Transient trees: build, verify, drop — the garbage firehose.
    let mut transient = GcTree::new();
    for round in 0..40 {
        let depth = 4 + (round % 6);
        loop {
            m.safepoint();
            match transient.build(&mut m, depth) {
                Ok(()) => break,
                Err(_) => std::thread::yield_now(), // wait out a cycle
            }
        }
        let want = (1usize << (depth + 1)) - 1;
        let got = transient.count(&mut m);
        assert_eq!(got, want, "transient tree intact");
        transient.clear(&mut m);
    }

    // The long-lived tree is still complete.
    assert_eq!(long_lived.count(&mut m), 2047);
    transient.clear(&mut m);

    // Drain: two cycles after dropping everything transient.
    let target = collector.stats().cycles() + 2;
    while collector.stats().cycles() < target {
        m.safepoint();
        std::thread::yield_now();
    }
    collector.stop();

    let s = collector.stats();
    println!(
        "rounds: 40, cycles: {}, allocated: {}, freed: {}, live: {}",
        s.cycles(),
        s.allocated(),
        s.freed(),
        collector.live_objects()
    );
    println!(
        "barrier checks: {}, CAS won: {}, lost: {}",
        s.barrier_checks(),
        s.barrier_cas_won(),
        s.barrier_cas_lost()
    );
    assert_eq!(
        collector.live_objects(),
        2047,
        "exactly the long-lived tree"
    );
    println!("long-lived tree survived 40 rounds of churn — no use-after-free");
}
