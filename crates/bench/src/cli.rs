//! The one command-line parser of the bench binaries (`figures`,
//! `sim_throughput`, `trace_capture`, `trace_diff`), of `pei-sim` and of
//! `pei-serve`.
//!
//! It owns the flags they share — `--scale quick|full`, `--paper`,
//! `--seed N`, `--jobs N` and `--check`, each binary accepting the ones
//! it names — their value errors, and the error path: a bad argument
//! prints `error: …` and the binary's usage to stderr and exits with
//! status 2. A binary's own flags and positional arguments go to its
//! callback, which reads their values through the same [`Args`].

use crate::{ExpOptions, Scale};

/// A flag that every bench binary spells the same way, setting one
/// field of [`ExpOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shared {
    /// `--scale quick|full`.
    Scale,
    /// `--paper`: the paper-scale machine.
    Paper,
    /// `--seed N`.
    Seed,
    /// `--jobs N` (`N >= 1`).
    Jobs,
    /// `--check`: checked mode.
    Check,
}

/// The arguments being parsed, positioned after the flag just read.
pub struct Args {
    argv: std::vec::IntoIter<String>,
    flag: String,
}

impl Args {
    /// The value that follows the flag just read.
    ///
    /// # Errors
    ///
    /// The flag is the last argument.
    pub fn value(&mut self) -> Result<String, String> {
        self.argv
            .next()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The flag's value as an integer.
    ///
    /// # Errors
    ///
    /// The value is missing or not an integer.
    pub fn int(&mut self) -> Result<u64, String> {
        let v = self.value()?;
        v.parse()
            .map_err(|_| format!("{} must be an integer, got `{v}`", self.flag))
    }

    /// The flag's value, lowercased, as `parse` reads it.
    ///
    /// # Errors
    ///
    /// The value is missing, or `parse` refuses it; the message names
    /// the flag and the value, and lists `accepted`.
    pub fn choice<T>(
        &mut self,
        accepted: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.value()?;
        parse(&v.to_lowercase())
            .ok_or_else(|| format!("unknown {} value `{v}` ({accepted})", self.flag))
    }

    /// The flag's value as a count of at least 1.
    ///
    /// # Errors
    ///
    /// The value is missing, not an integer, or 0.
    pub fn count(&mut self) -> Result<usize, String> {
        let v = self.value()?;
        v.parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("{} must be an integer >= 1, got `{v}`", self.flag))
    }
}

/// Parses `argv` (without the program name). A flag named in `shared`
/// sets its field of `opts`; every other argument goes to `own`, which
/// reads any value it takes from the [`Args`] and returns `Ok(false)`
/// for an argument it does not know. Returns the shared flags given, in
/// order, as spelled.
///
/// # Errors
///
/// Names the offending argument: an unknown flag, a missing value, or a
/// value that does not parse.
pub fn parse(
    argv: impl IntoIterator<Item = String>,
    shared: &[Shared],
    opts: &mut ExpOptions,
    mut own: impl FnMut(&str, &mut Args) -> Result<bool, String>,
) -> Result<Vec<String>, String> {
    let mut args = Args {
        argv: argv.into_iter().collect::<Vec<_>>().into_iter(),
        flag: String::new(),
    };
    let mut given = Vec::new();
    while let Some(arg) = args.argv.next() {
        args.flag.clone_from(&arg);
        let accepts = |flag| shared.contains(&flag);
        match arg.as_str() {
            "--scale" if accepts(Shared::Scale) => {
                let v = args.value()?;
                opts.scale =
                    Scale::parse(&v).ok_or_else(|| format!("unknown scale `{v}` (quick|full)"))?;
            }
            "--paper" if accepts(Shared::Paper) => opts.paper_machine = true,
            "--seed" if accepts(Shared::Seed) => opts.seed = args.int()?,
            "--jobs" if accepts(Shared::Jobs) => opts.jobs = args.count()?,
            "--check" if accepts(Shared::Check) => opts.check = true,
            _ => {
                if !own(&arg, &mut args)? {
                    return Err(format!("unknown argument `{arg}`"));
                }
                continue;
            }
        }
        given.push(arg);
    }
    Ok(given)
}

/// [`parse`] over the process's arguments: on an error, prints
/// `error: …` and `usage` to stderr and exits with status 2.
pub fn parse_env(
    usage: &str,
    shared: &[Shared],
    opts: &mut ExpOptions,
    own: impl FnMut(&str, &mut Args) -> Result<bool, String>,
) -> Vec<String> {
    parse(std::env::args().skip(1), shared, opts, own)
        .unwrap_or_else(|e| fail(&format!("{e}\n\n{usage}")))
}

/// Prints `error: {msg}` to stderr and exits with status 2: the path of
/// a bad command line, and of a file that cannot be read or written.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn shared_flags_set_options_and_the_rest_reach_the_binary() {
        let mut opts = ExpOptions::default();
        let mut seen = Vec::new();
        let given = parse(
            args("fig6 --scale full --paper --seed 9 --jobs 3 --check --repeat 2"),
            &[
                Shared::Scale,
                Shared::Paper,
                Shared::Seed,
                Shared::Jobs,
                Shared::Check,
            ],
            &mut opts,
            |arg, args| {
                match arg {
                    "--repeat" => seen.push(format!("repeat={}", args.count()?)),
                    name => seen.push(name.to_owned()),
                }
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(opts.scale, Scale::Full);
        assert!(opts.paper_machine && opts.check);
        assert_eq!((opts.seed, opts.jobs), (9, 3));
        assert_eq!(seen, ["fig6", "repeat=2"]);
        assert_eq!(given, ["--scale", "--paper", "--seed", "--jobs", "--check"]);
    }

    #[test]
    fn bad_values_and_unaccepted_flags_are_named() {
        let err = |line: &str| {
            parse(
                args(line),
                &[Shared::Seed, Shared::Jobs],
                &mut ExpOptions::default(),
                |_, _| Ok(false),
            )
            .unwrap_err()
        };
        assert_eq!(err("--seed"), "--seed needs a value");
        assert_eq!(err("--seed x"), "--seed must be an integer, got `x`");
        assert_eq!(err("--jobs 0"), "--jobs must be an integer >= 1, got `0`");
        assert_eq!(err("--check"), "unknown argument `--check`");
        assert_eq!(err("fig6"), "unknown argument `fig6`");
    }
}
