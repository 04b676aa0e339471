//! The one command-line flag parser behind `experiments`, `gc-analyze`,
//! `gc-serve` and `gc-trace`.
//!
//! A driver asks for what it understands — [`Flags::command`] first if it
//! has subcommands, [`Flags::switch`], [`Flags::opt`] / [`Flags::get`] for
//! `--key value` (the default lives in the call), then
//! [`Flags::positional`] — and closes with [`Flags::finish`], which
//! rejects whatever nobody asked for. Every
//! failure is a [`FlagError`]; [`Flags::fail`] turns it into the one usage
//! line on stderr and exit code 2 (`--help`: the same line on stdout,
//! exit 0). A key given twice keeps its last value, so a wrapper script
//! can append an override.

use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// `-h` / `--help` was given.
    Help,
    /// A `--flag` no getter asked for.
    Unknown(String),
    /// A positional argument no getter asked for.
    Unexpected(String),
    /// A `--key` at the end of the line, or followed by another flag.
    MissingValue(String),
    /// A value its getter's type cannot parse.
    BadValue {
        /// The flag (or the positional's name).
        what: String,
        /// The offending text.
        value: String,
    },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Help => write!(f, "help requested"),
            FlagError::Unknown(flag) => write!(f, "unknown flag `{flag}`"),
            FlagError::Unexpected(arg) => write!(f, "unexpected argument `{arg}`"),
            FlagError::MissingValue(flag) => write!(f, "missing value for `{flag}`"),
            FlagError::BadValue { what, value } => write!(f, "bad value `{value}` for `{what}`"),
        }
    }
}

impl FlagError {
    /// A [`FlagError::BadValue`] for `what` — for values a driver checks
    /// itself (a name outside a fixed set).
    pub fn bad_value(what: &str, value: &str) -> FlagError {
        FlagError::BadValue {
            what: what.to_owned(),
            value: value.to_owned(),
        }
    }
}

/// A comma-separated list value, `--seeds 1,2,3`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommaList<T>(pub Vec<T>);

impl<T: FromStr> FromStr for CommaList<T> {
    type Err = T::Err;
    fn from_str(s: &str) -> Result<Self, T::Err> {
        s.split(',')
            .map(|item| item.trim().parse())
            .collect::<Result<_, _>>()
            .map(CommaList)
    }
}

/// The arguments not yet claimed by a getter, plus the usage line.
#[derive(Debug)]
pub struct Flags {
    usage: String,
    args: Vec<String>,
    help: bool,
}

fn is_flag(arg: &str) -> bool {
    arg.starts_with("--")
}

impl Flags {
    /// The process's own arguments (program name dropped).
    pub fn from_env(usage: &str) -> Flags {
        Flags::new(usage, std::env::args().skip(1))
    }

    /// Parses `args`; `usage` is the line [`Flags::fail`] prints.
    pub fn new(usage: &str, args: impl IntoIterator<Item = impl Into<String>>) -> Flags {
        let mut args: Vec<String> = args.into_iter().map(Into::into).collect();
        let before = args.len();
        args.retain(|a| a != "-h" && a != "--help");
        Flags {
            usage: usage.to_owned(),
            help: args.len() != before,
            args,
        }
    }

    /// Replaces the usage line (a driver with subcommands narrows it once
    /// it knows which one runs).
    pub fn set_usage(&mut self, usage: &str) {
        self.usage = usage.to_owned();
    }

    /// The leading argument when it is not a flag: a driver with
    /// subcommands asks for it first.
    pub fn command(&mut self) -> Option<String> {
        let leads = self.args.first().is_some_and(|a| !is_flag(a));
        leads.then(|| self.args.remove(0))
    }

    /// Whether the bare flag `name` is present (claims every occurrence).
    pub fn switch(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    /// The value of `--name value`, if given; the last occurrence wins.
    pub fn opt<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, FlagError> {
        let mut found = None;
        while let Some(i) = self.args.iter().position(|a| a == name) {
            if self.args.get(i + 1).is_none_or(|v| is_flag(v)) {
                return Err(FlagError::MissingValue(name.to_owned()));
            }
            found = Some(self.args.remove(i + 1));
            self.args.remove(i);
        }
        found.map(|v| parse(name, &v)).transpose()
    }

    /// The value of `--name value`, or `default` when absent.
    pub fn get<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, FlagError> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// The next positional argument, if any, reported as `what` when it
    /// does not parse. Call after the flag getters: a flag's value still on
    /// the line would be taken for a positional.
    pub fn positional<T: FromStr>(&mut self, what: &str) -> Result<Option<T>, FlagError> {
        match self.args.iter().position(|a| !is_flag(a)) {
            Some(i) => parse(what, &self.args.remove(i)).map(Some),
            None => Ok(None),
        }
    }

    /// Rejects whatever is left: `--help` first, then the first argument
    /// no getter claimed.
    pub fn finish(&mut self) -> Result<(), FlagError> {
        if self.help {
            return Err(FlagError::Help);
        }
        match self.args.first() {
            None => Ok(()),
            Some(a) if is_flag(a) => Err(FlagError::Unknown(a.clone())),
            Some(a) => Err(FlagError::Unexpected(a.clone())),
        }
    }

    /// Reports `err`: the usage line on stdout and exit 0 when `--help`
    /// was given (whatever else is wrong with the line), otherwise the
    /// error and the usage line on stderr and exit 2.
    pub fn fail(&self, err: &FlagError) -> ExitCode {
        if self.help || *err == FlagError::Help {
            println!("usage: {}", self.usage);
            ExitCode::SUCCESS
        } else {
            eprintln!("error: {err}\nusage: {}", self.usage);
            ExitCode::from(2)
        }
    }
}

fn parse<T: FromStr>(what: &str, value: &str) -> Result<T, FlagError> {
    value.parse().map_err(|_| FlagError::bad_value(what, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new("prog [--max-states N] [--ci] [FILE]", args.iter().copied())
    }

    #[test]
    fn typed_getters_take_the_default_from_the_call() {
        let mut f = flags(&["--max-states", "5000", "--ci", "in.jsonl"]);
        assert!(f.switch("--ci"));
        assert!(!f.switch("--quiet"));
        assert_eq!(f.get("--max-states", 7usize), Ok(5000));
        assert_eq!(f.get("--threads", 2usize), Ok(2));
        assert_eq!(f.opt::<String>("--out"), Ok(None));
        assert_eq!(f.positional::<String>("FILE"), Ok(Some("in.jsonl".into())));
        assert_eq!(f.positional::<String>("FILE"), Ok(None));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn a_command_is_the_leading_non_flag_argument_only() {
        let mut f = flags(&["diff", "a", "--ci"]);
        assert_eq!(f.command().as_deref(), Some("diff"));
        assert_eq!(f.command().as_deref(), Some("a"));
        assert_eq!(f.command(), None);
        assert_eq!(flags(&["--out", "dir"]).command(), None);
    }

    #[test]
    fn an_unknown_flag_is_rejected_at_finish() {
        let mut f = flags(&["--max-states", "10", "--bogus"]);
        assert_eq!(f.get("--max-states", 0usize), Ok(10));
        assert_eq!(f.finish(), Err(FlagError::Unknown("--bogus".into())));
        let mut f = flags(&["stray"]);
        assert_eq!(f.finish(), Err(FlagError::Unexpected("stray".into())));
    }

    #[test]
    fn a_key_without_a_value_is_a_missing_value() {
        let missing = Err(FlagError::MissingValue("--max-states".into()));
        assert_eq!(
            flags(&["--max-states"]).get("--max-states", 0usize),
            missing
        );
        assert_eq!(
            flags(&["--max-states", "--ci"]).get("--max-states", 0usize),
            missing
        );
    }

    #[test]
    fn a_non_numeric_bound_is_a_bad_value_not_the_default() {
        let mut f = flags(&["--max-states", "50k"]);
        let err = f.get("--max-states", 2_000_000usize).unwrap_err();
        assert_eq!(err, FlagError::bad_value("--max-states", "50k"));
        assert_eq!(err.to_string(), "bad value `50k` for `--max-states`");
        assert_eq!(
            flags(&["1,x"]).positional::<CommaList<usize>>("THREADS"),
            Err(FlagError::bad_value("THREADS", "1,x"))
        );
    }

    #[test]
    fn a_repeated_key_keeps_its_last_value() {
        let mut f = flags(&["--max-states", "1", "--ci", "--max-states", "2"]);
        assert_eq!(f.get("--max-states", 0usize), Ok(2));
        assert!(f.switch("--ci"));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn comma_lists_parse_item_by_item() {
        let mut f = flags(&["--seeds", "1, 2,3"]);
        assert_eq!(
            f.opt::<CommaList<u64>>("--seeds"),
            Ok(Some(CommaList(vec![1, 2, 3])))
        );
    }

    #[test]
    fn help_wins_over_everything_else_at_finish() {
        for args in [&["--help"][..], &["-h", "--bogus"], &["--ci", "--help"]] {
            assert_eq!(flags(args).finish(), Err(FlagError::Help));
        }
    }
}
