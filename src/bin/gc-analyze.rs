//! `gc-analyze`: static analysis of the CIMP GC model and litmus suite.
//!
//! `--help` prints the modes, the ablation names, the diagnostic codes and
//! the exit codes: `0` when the analysis ran and found no diagnostics, `1`
//! when it found at least one, `2` on a usage error (unknown flag, unknown
//! ablation, code or litmus test).

use std::fmt::Write as _;
use std::process::ExitCode;

use gc_analysis::diag::filter_and_sort;
use gc_analysis::{analyze_litmus, analyze_model_with, litmus_cfgs, model_cfgs, ALL_CODES};
use gc_model::ModelConfig;
use gc_trace::{CommaList, FlagError, Flags};
use tso_model::litmus;

/// A named model ablation: its `--ablate` name and the config flip it
/// performs.
type Ablation = (&'static str, fn(&mut ModelConfig));

/// The model ablations selectable with `--ablate`, with the config field
/// each one flips.
const ABLATIONS: &[Ablation] = &[
    ("no-deletion-barrier", |c| c.deletion_barrier = false),
    ("no-insertion-barrier", |c| c.insertion_barrier = false),
    ("no-handshake-fences", |c| c.handshake_fences = false),
    ("no-mark-cas", |c| c.mark_cas = false),
    ("premature-alloc-black", |c| c.premature_alloc_black = true),
    ("skip-noop2", |c| c.skip_noop2 = true),
    ("skip-noop3", |c| c.skip_noop3 = true),
];

fn usage() -> String {
    let tests: Vec<_> = litmus::suite().iter().map(|t| t.name()).collect();
    let mut s = format!(
        "gc-analyze [--model] [--ablate NAME,...] [--allow CODE,...] [--dot]\n\
         \x20      gc-analyze --litmus <NAME|all> [--allow CODE,...] [--dot]\n\
         \n\
         Static analyzer for the CIMP garbage-collector model.\n\
         \n\
         MODES:\n\
         \x20   --model            analyze the GC model (the default)\n\
         \x20   --litmus NAME      analyze a named litmus test, or `all` for the suite:\n\
         \x20                      {}\n\
         \n\
         OPTIONS:\n\
         \x20   --ablate NAME,...  flip model ablations before analyzing; of:\n",
        tests.join(", ")
    );
    for (name, _) in ABLATIONS {
        let _ = writeln!(s, "                         {name}");
    }
    s.push_str("\x20   --allow CODE,...   suppress diagnostic codes; of:\n");
    for (code, what) in ALL_CODES {
        let _ = writeln!(s, "                         {code}  {what}");
    }
    s.push_str(
        "\x20   --dot              dump the control-flow graphs in Graphviz dot format\n\
         \x20                      instead of analyzing\n\
         \x20   -h, --help         print this help\n\
         \n\
         EXIT CODES:\n\
         \x20   0    analysis ran and found no diagnostics\n\
         \x20   1    analysis ran and found at least one diagnostic\n\
         \x20   2    usage or parse error",
    );
    s
}

struct Opts {
    /// `None` analyzes the model.
    litmus: Option<String>,
    ablate: Vec<String>,
    allow: Vec<String>,
    dot: bool,
}

/// A comma-listed flag whose every item must be `known`.
fn names_of(
    f: &mut Flags,
    flag: &str,
    known: impl Fn(&str) -> bool,
) -> Result<Vec<String>, FlagError> {
    let names = f
        .opt::<CommaList<String>>(flag)?
        .map_or(Vec::new(), |l| l.0);
    match names.iter().find(|n| !known(n)) {
        Some(bad) => Err(FlagError::bad_value(flag, bad)),
        None => Ok(names),
    }
}

fn parse(f: &mut Flags) -> Result<Opts, FlagError> {
    f.switch("--model");
    let opts = Opts {
        litmus: f.opt("--litmus")?,
        ablate: names_of(f, "--ablate", |n| ABLATIONS.iter().any(|(a, _)| *a == n))?,
        allow: names_of(f, "--allow", |n| ALL_CODES.iter().any(|(c, _)| *c == n))?,
        dot: f.switch("--dot"),
    };
    f.finish()?;
    Ok(opts)
}

/// Prints `diags` (or that there are none) under `what`; the exit code.
fn report(diags: &[gc_analysis::Diagnostic], what: &str, out: &mut String) -> u8 {
    for d in diags {
        let _ = writeln!(out, "{d}");
    }
    if diags.is_empty() {
        let _ = writeln!(out, "{what}: clean");
        0
    } else {
        let _ = writeln!(out, "{what}: {} diagnostic(s)", diags.len());
        1
    }
}

/// Runs the analysis `opts` asks for, appending its output to `out`, and
/// returns the exit code; an unknown litmus test is a usage error.
fn run(opts: &Opts, out: &mut String) -> Result<u8, FlagError> {
    let Some(name) = &opts.litmus else {
        let mut cfg = ModelConfig::default();
        for (_, apply) in ABLATIONS
            .iter()
            .filter(|(n, _)| opts.ablate.iter().any(|a| a == n))
        {
            apply(&mut cfg);
        }
        if opts.dot {
            for p in model_cfgs(&cfg) {
                out.push_str(&p.cfg.to_dot());
            }
            return Ok(0);
        }
        return Ok(report(&analyze_model_with(&cfg, &opts.allow), "model", out));
    };
    let selected: Vec<_> = litmus::suite()
        .into_iter()
        .filter(|t| name == "all" || t.name().eq_ignore_ascii_case(name))
        .collect();
    if selected.is_empty() {
        return Err(FlagError::bad_value("--litmus", name));
    }
    if opts.dot {
        for (_, cfg) in selected.iter().flat_map(litmus_cfgs) {
            out.push_str(&cfg.to_dot());
        }
        return Ok(0);
    }
    Ok(selected
        .iter()
        .map(|t| {
            report(
                &filter_and_sort(analyze_litmus(t), &opts.allow),
                t.name(),
                out,
            )
        })
        .max()
        .unwrap_or(0))
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env(&usage());
    let mut out = String::new();
    match parse(&mut flags).and_then(|opts| run(&opts, &mut out)) {
        Ok(code) => {
            print!("{out}");
            ExitCode::from(code)
        }
        Err(e) => flags.fail(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> Result<(u8, String), FlagError> {
        let mut flags = Flags::new(&usage(), args.iter().copied());
        let mut out = String::new();
        let code = parse(&mut flags).and_then(|opts| run(&opts, &mut out))?;
        Ok((code, out))
    }

    #[test]
    fn help_documents_names_codes_and_exit_codes() {
        assert_eq!(run_args(&["--help"]).unwrap_err(), FlagError::Help);
        let text = usage();
        assert!(text.contains("EXIT CODES"));
        assert!(text.contains("0    analysis ran and found no diagnostics"));
        assert!(text.contains("2    usage or parse error"));
        for (c, _) in ALL_CODES {
            assert!(text.contains(c), "help must list {c}");
        }
        for (n, _) in ABLATIONS {
            assert!(text.contains(n), "help must list {n}");
        }
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        let err = run_args(&["--frobnicate"]).unwrap_err();
        assert_eq!(err, FlagError::Unknown("--frobnicate".into()));
    }

    #[test]
    fn unknown_names_are_bad_values() {
        let bad = |flag: &str, value: &str| Err(FlagError::bad_value(flag, value));
        assert_eq!(run_args(&["--litmus", "nope"]), bad("--litmus", "nope"));
        assert_eq!(run_args(&["--ablate", "bogus"]), bad("--ablate", "bogus"));
        assert_eq!(
            run_args(&["--ablate", "no-mark-cas,bogus"]),
            bad("--ablate", "bogus")
        );
        assert_eq!(run_args(&["--allow", "A009"]), bad("--allow", "A009"));
    }

    #[test]
    fn faithful_model_exits_clean() {
        let (code, out) = run_args(&["--model"]).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("model: clean"));
    }

    #[test]
    fn ablated_model_exits_with_diagnostics() {
        let (code, out) = run_args(&["--model", "--ablate", "no-mark-cas"]).unwrap();
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("A005"));
        let both = ["--ablate", "no-mark-cas,no-deletion-barrier"];
        let (code, out) = run_args(&both).unwrap();
        assert_eq!(code, 1, "{out}");
    }

    #[test]
    fn suppressing_every_code_turns_the_exit_clean() {
        let args = ["--model", "--ablate", "no-mark-cas"];
        let all = ["--allow", "A005,A003,A002,A001,A004"];
        let (code, out) = run_args(&[&args[..], &all[..]].concat()).unwrap();
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn litmus_sb_flags_and_fenced_variant_is_clean() {
        let (code, out) = run_args(&["--litmus", "sb"]).unwrap();
        assert_eq!(code, 1);
        assert!(out.contains("A005"));
        let (code, out) = run_args(&["--litmus", "SB+mfences"]).unwrap();
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn dot_mode_emits_graphs() {
        let (code, out) = run_args(&["--model", "--dot"]).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("digraph \"gc\""));
        assert!(out.contains("digraph \"sys\""));
        let (code, out) = run_args(&["--litmus", "sb", "--dot"]).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("digraph \"t0\""));
    }
}
