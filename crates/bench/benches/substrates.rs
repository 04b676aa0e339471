//! Substrate benchmarks: the TSO machine, the CIMP interpreter, and the
//! model checker's exploration throughput.

use gc_bench::harness::{bench_function, Bencher};
use gc_model::{GcModel, ModelConfig};
use mc::{Checker, Strategy, TransitionSystem};
use tso_model::{litmus, Machine, MemoryModel, ThreadId};

/// Raw machine operations: buffered write + forwarded read + commit.
fn bench_tso_ops(bench: &mut Bencher) {
    let mut m: Machine<u8, u8> = Machine::new(2, MemoryModel::Tso);
    m.initialize(0, 0);
    let t = ThreadId::new(0);
    bench.iter(|| {
        m.write(t, 0, 1).unwrap();
        let v = m.read(t, &0).unwrap();
        m.commit(t).unwrap();
        v
    })
}

/// Exhaustive exploration of the SB litmus test (all interleavings).
fn bench_litmus_sb(bench: &mut Bencher) {
    let test = litmus::sb();
    bench.iter(|| test.outcomes(MemoryModel::Tso))
}

/// One `successors` call on the GC model's initial state: the per-state
/// cost of the CIMP interpreter + rendezvous pairing.
fn bench_model_successors(bench: &mut Bencher) {
    let model = GcModel::new(ModelConfig::small(1, 2));
    let init = model.initial_states().remove(0);
    bench.iter(|| model.successors(&init))
}

/// Checker throughput: states explored per run on a budget of 20k states
/// (includes hashing, dedup and the full invariant suite).
fn bench_checker_throughput(threads: usize) -> impl FnMut(&mut Bencher) {
    move |bench: &mut Bencher| {
        let cfg = ModelConfig::small(1, 2);
        bench.iter(|| {
            let model = GcModel::new(cfg.clone());
            Checker::with_config(gc_bench::bounded_config(20_000))
                .strategy(Strategy::Bfs { threads })
                .property(gc_model::invariants::combined_property(&cfg))
                .run(&model)
                .stats()
                .states
        })
    }
}

fn main() {
    bench_function("tso write+read+commit", bench_tso_ops);
    bench_function("litmus SB outcomes (TSO)", bench_litmus_sb);
    bench_function(
        "gc-model successors (initial state)",
        bench_model_successors,
    );
    bench_function(
        "checker: 20k states, full suite, 1 thread",
        bench_checker_throughput(1),
    );
    bench_function(
        "checker: 20k states, full suite, 4 threads",
        bench_checker_throughput(4),
    );
    gc_bench::harness::write_session_record("substrates", &[]);
}
