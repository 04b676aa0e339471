//! The table of experiments and the `experiments` driver over it:
//! `experiments list`, `experiments <name> [flags]`, `experiments all`.

use std::process::ExitCode;

use gc_trace::{FlagError, Flags};

use crate::{ablations, checker, figures, runtime, Run, Verdict};

/// One experiment: what it regenerates, what it claims, how to run it.
pub struct Entry {
    /// The name on the command line.
    pub name: &'static str,
    /// The paper artifact it regenerates (`Fig. 1` … `Fig. 10`, `T` the
    /// headline theorem, `A1`–`A6` the ablations and the §4 observation)
    /// or, for what is this repository's own, `S` static analysis, `R` a
    /// runtime rig, `M` a checker rig.
    pub artifact: &'static str,
    /// The claim it checks, in one line.
    pub claim: &'static str,
    /// The flags and positionals it takes (empty: none).
    pub flags: &'static str,
    /// Whether `experiments all` runs it: the entries that decide a claim
    /// at their default bounds in CI time. Of the rigs, `stress`,
    /// `torture` and `reduction` run under CI jobs of their own with their
    /// own flags; `parallel-speedup` and `probe` are run by hand.
    pub in_all: bool,
    /// Parses its flags, runs, and reports how the claim fared.
    pub run: fn(&mut Flags) -> Run,
}

const MAX: &str = "[--max-states N]";

/// Every experiment, in the order `experiments list` prints them.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Entry] = &[
    Entry { name: "fig1", artifact: "Fig. 1", in_all: true, flags: MAX, run: figures::fig1,
        claim: "grey protection: the chain verifies with the deletion barrier, hides a live object without it" },
    Entry { name: "fig2", artifact: "Fig. 2", in_all: true, flags: MAX, run: figures::fig2,
        claim: "every line-comment invariant of the collector cycle holds in every reachable state" },
    Entry { name: "fig3", artifact: "Fig. 3", in_all: true, flags: MAX, run: figures::fig3,
        claim: "the handshake-phase relation is invariant and TSO makes early observation reachable" },
    Entry { name: "fig4", artifact: "Fig. 4", in_all: true, flags: "", run: figures::fig4,
        claim: "the model replays the root-marking handshake in the diagram's message order" },
    Entry { name: "fig5", artifact: "Fig. 5", in_all: true, flags: MAX, run: figures::fig5,
        claim: "racing markers have exactly one winner; the runtime barrier rarely reaches the CAS" },
    Entry { name: "fig6", artifact: "Fig. 6", in_all: true, flags: MAX, run: figures::fig6,
        claim: "every subset of the mutator operations preserves every invariant" },
    Entry { name: "fig7", artifact: "Fig. 7", in_all: true, flags: "", run: figures::fig7,
        claim: "each CIMP process rule is executable as the paper states it" },
    Entry { name: "fig8", artifact: "Fig. 8", in_all: true, flags: "", run: figures::fig8,
        claim: "CIMP systems interleave and rendezvous as the paper states" },
    Entry { name: "fig9", artifact: "Fig. 9", in_all: true, flags: "", run: figures::fig9,
        claim: "the TSO substrate admits and forbids exactly the classic litmus outcomes" },
    Entry { name: "fig10", artifact: "Fig. 10", in_all: true, flags: MAX, run: figures::fig10,
        claim: "the mark loop terminates soundly: no grey anywhere when the sweep begins" },
    Entry { name: "headline", artifact: "T", in_all: true, flags: MAX, run: ablations::headline,
        claim: "no faithful configuration violates any §3.2 invariant" },
    Entry { name: "ablate-barriers", artifact: "A1, A2", in_all: true, flags: MAX, run: ablations::ablate_barriers,
        claim: "without the insertion or the deletion barrier the collector is unsound" },
    Entry { name: "ablate-fences", artifact: "A3", in_all: true, flags: MAX, run: ablations::ablate_fences,
        claim: "without the handshake fences the collector is unsafe on TSO and safe on SC" },
    Entry { name: "ablate-alloc-color", artifact: "A4", in_all: true, flags: MAX, run: ablations::ablate_alloc_color,
        claim: "allocating black before the barriers are installed breaks the tricolor invariant" },
    Entry { name: "ablate-mark-cas", artifact: "A5", in_all: true, flags: MAX, run: ablations::ablate_mark_cas,
        claim: "a non-atomic mark lets two markers win and breaks valid_W_inv" },
    Entry { name: "fewer-handshakes", artifact: "A6", in_all: true, flags: MAX, run: ablations::fewer_handshakes,
        claim: "skipping two initialization handshakes preserves safety on x86-TSO (§4)" },
    Entry { name: "static-vs-exhaustive", artifact: "S1", in_all: true, flags: "", run: ablations::static_vs_exhaustive,
        claim: "the static analyzer and the exhaustive explorer agree on every litmus test" },
    Entry { name: "stress", artifact: "R1", in_all: false, flags: "", run: runtime::stress,
        claim: "real threads under stress never see a freed object; garbage is gone within two cycles" },
    Entry { name: "torture", artifact: "R2", in_all: false, run: runtime::torture,
        flags: "[--seeds 1,2,3] [--ops N] [--mutators K] [--capacity N] [--metrics-addr ADDR]",
        claim: "under seeded fault storms every cycle terminates and the heap stays valid" },
    Entry { name: "reduction", artifact: "M1", in_all: false, run: checker::reduction_sweep,
        flags: "[--max-states N] [--ci] [--metrics-addr ADDR]",
        claim: "the state-space reductions change state counts only, never a verdict" },
    Entry { name: "parallel-speedup", artifact: "M2", in_all: false, run: checker::parallel_speedup,
        flags: "[--max-states N] [THREADS e.g. 1,2,4]",
        claim: "the parallel BFS agrees with the sequential one at every thread count" },
    Entry { name: "probe", artifact: "M3", in_all: false, run: checker::probe,
        flags: "[--max-states N] [MUTS] [CAP] [faithful|nodel|noins|nofence|nocas|prem|sc|skip23] [full|safety] [THREADS]",
        claim: "one parameterized instance: counts, verdict, counterexample" },
];

/// The usage line of the driver itself.
pub const USAGE: &str = "experiments list | all | <name> [flags]   (`experiments list` names them)";

fn list() {
    for e in EXPERIMENTS {
        println!("{:<21} {:<8} {}", e.name, e.artifact, e.claim);
        if !e.flags.is_empty() {
            println!("{:<30} {}", "", e.flags);
        }
    }
}

/// Runs one entry on `f` and says how a claim that did not hold ended.
/// The exit code: 0 holds, 1 fails, 2 inconclusive under the bound.
fn run(e: &Entry, f: &mut Flags) -> Result<u8, FlagError> {
    Ok(match (e.run)(f)? {
        Verdict::Holds => 0,
        Verdict::Fails(why) => {
            eprintln!("FAILED: {why}");
            1
        }
        Verdict::Bounded(why) => {
            eprintln!("BOUNDED — inconclusive: {why} (raise --max-states)");
            2
        }
    })
}

/// The `experiments` binary.
pub fn main(mut f: Flags) -> ExitCode {
    let code = match f.command().as_deref() {
        Some("list") => {
            list();
            0
        }
        Some("all") => {
            if let Err(e) = f.finish() {
                return f.fail(&e);
            }
            let codes: Vec<(&str, u8)> = EXPERIMENTS
                .iter()
                .filter(|e| e.in_all)
                .map(|e| {
                    println!("\n===== {} ({}): {} =====", e.name, e.artifact, e.claim);
                    let mut defaults = Flags::new("", std::iter::empty::<String>());
                    (e.name, run(e, &mut defaults).unwrap_or(2))
                })
                .collect();
            println!("\n===== summary =====");
            for (name, code) in &codes {
                let word = ["holds", "FAILED", "BOUNDED — inconclusive"][usize::from(*code)];
                println!("{name:<21} {word}");
            }
            codes.iter().map(|c| c.1).max().unwrap_or(0)
        }
        Some(name) => {
            let Some(e) = EXPERIMENTS.iter().find(|e| e.name == name) else {
                eprintln!("error: unknown experiment `{name}`\nusage: {USAGE}");
                return ExitCode::from(2);
            };
            f.set_usage(&format!("experiments {} {}", e.name, e.flags));
            match run(e, &mut f) {
                Ok(code) => code,
                Err(err) => return f.fail(&err),
            }
        }
        None => {
            let err = f
                .finish()
                .err()
                .unwrap_or(FlagError::MissingValue("<name>".into()));
            return f.fail(&err);
        }
    };
    ExitCode::from(code)
}
