//! The `exp_*` binaries and what they share.
//!
//! [`ledger`] is the paper-facing half: every claim of the paper with its
//! measured value and computed verdict, printed by `exp_paper_tables` as
//! `docs/REPRODUCTION.md`. The other binaries (`exp_phase_diagram`,
//! `exp_scenario_run`, `exp_space_throughput`) take flags and parse them
//! through [`Cli`], which turns every malformed invocation into a one-line
//! usage error on stderr and exit code 2 (never an unwrap backtrace).

#![warn(missing_docs)]

pub mod ledger;

/// The single error line a bad invocation prints to stderr.
pub fn usage_line(usage: &str, msg: &str) -> String {
    format!("error: {msg} — usage: {usage}")
}

fn exit_usage(usage: &str, msg: &str) -> ! {
    eprintln!("{}", usage_line(usage, msg));
    std::process::exit(2);
}

/// Minimal argv cursor for the experiment binaries that do take flags.
///
/// Every failure path — missing value, malformed number, unknown flag —
/// prints [`usage_line`] to stderr and exits with code 2; the happy path
/// never allocates more than the argv copy. Typical use:
///
/// ```no_run
/// use dynareg_bench::Cli;
///
/// let mut cli = Cli::from_env("exp_example [--ticks T]");
/// let mut ticks = 100u64;
/// while let Some(flag) = cli.next_arg() {
///     match flag.as_str() {
///         "--ticks" => ticks = cli.parsed_where("--ticks", "a positive integer", |&t: &u64| t > 0),
///         other => cli.fail(&format!("unknown argument `{other}`")),
///     }
/// }
/// ```
#[derive(Debug)]
pub struct Cli {
    usage: &'static str,
    args: Vec<String>,
    next: usize,
}

impl Cli {
    /// A cursor over the process arguments (program name excluded).
    pub fn from_env(usage: &'static str) -> Cli {
        Cli::new(std::env::args().skip(1).collect(), usage)
    }

    /// A cursor over explicit arguments (for tests).
    pub fn new(args: Vec<String>, usage: &'static str) -> Cli {
        Cli {
            usage,
            args,
            next: 0,
        }
    }

    /// The next argument, advancing the cursor.
    pub fn next_arg(&mut self) -> Option<String> {
        let arg = self.args.get(self.next).cloned();
        if arg.is_some() {
            self.next += 1;
        }
        arg
    }

    /// The value following `flag`, or a usage error.
    pub fn value(&mut self, flag: &str) -> String {
        match self.next_arg() {
            Some(v) => v,
            None => self.fail(&format!("{flag} needs a value")),
        }
    }

    /// The value following `flag`, parsed, or a usage error naming the
    /// expected shape.
    pub fn parsed<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> T {
        let v = self.value(flag);
        match v.parse() {
            Ok(t) => t,
            Err(_) => self.fail(&format!("{flag} takes {what}, got `{v}`")),
        }
    }

    /// [`Cli::parsed`] plus a semantic check (positivity, ranges, …).
    pub fn parsed_where<T: std::str::FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> T {
        let v = self.value(flag);
        match v.parse() {
            Ok(t) if ok(&t) => t,
            _ => self.fail(&format!("{flag} takes {what}, got `{v}`")),
        }
    }

    /// Prints the one-line usage error and exits with code 2.
    pub fn fail(&self, msg: &str) -> ! {
        exit_usage(self.usage, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_line_is_one_line() {
        let line = usage_line("exp_x [--n N]", "unknown argument `--m`");
        assert!(!line.contains('\n'));
        assert!(line.contains("exp_x"));
        assert!(line.contains("--m"));
    }

    #[test]
    fn cli_walks_flags_and_values() {
        let mut cli = Cli::new(
            vec![
                "--ticks".into(),
                "500".into(),
                "--out".into(),
                "x.json".into(),
            ],
            "test",
        );
        assert_eq!(cli.next_arg().as_deref(), Some("--ticks"));
        let ticks: u64 = cli.parsed("--ticks", "a u64");
        assert_eq!(ticks, 500);
        assert_eq!(cli.next_arg().as_deref(), Some("--out"));
        assert_eq!(cli.value("--out"), "x.json");
        assert_eq!(cli.next_arg(), None);
    }
}
