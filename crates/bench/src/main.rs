//! `experiments`: every figure, ablation, observation, rig and
//! micro-benchmark of the reproduction behind one binary — see
//! [`gc_bench::table`].

use std::process::ExitCode;

use gc_bench::table;

fn main() -> ExitCode {
    table::main(gc_trace::Flags::from_env(table::USAGE))
}
