//! Capture and deterministic replay of simulator event traces.
//!
//! A `.petr` trace (see the `pei-trace` crate and DESIGN.md §8) records
//! every event the machine dispatched. This module makes such captures
//! *replayable*: a [`CaptureSpec`] — the recipe of one simulation cell —
//! is serialized into the trace's metadata table at capture time, so a
//! later process can rebuild the exact same [`RunSpec`], re-execute it,
//! and check that both the event stream and the final [`StatsReport`]
//! come out byte-identical. That check is the determinism contract of
//! EXPERIMENTS.md made mechanical: any divergence names the first
//! differing record.
//!
//! The `trace_capture` and `trace_diff` binaries are thin CLI wrappers
//! over this module, and `pei-sim` runs a [`CaptureSpec`] too;
//! `trace_capture` and `pei-sim` read its flags with
//! [`CaptureSpec::read_flag`]. `crates/bench/tests/trace_roundtrip.rs`
//! exercises the full capture → serialize → parse → replay → compare
//! loop.
//!
//! [`StatsReport`]: pei_engine::StatsReport

use crate::cli::Args;
use crate::runner::RunSpec;
use crate::{ExpOptions, Scale};
use pei_core::DispatchPolicy;
use pei_system::RunResult;
use pei_trace::{diff, Divergence, Recorder, Trace};
use pei_workloads::{InputSize, Workload};

/// Trace-metadata name of a dispatch policy.
pub fn policy_name(p: DispatchPolicy) -> &'static str {
    match p {
        DispatchPolicy::HostOnly => "host-only",
        DispatchPolicy::PimOnly => "pim-only",
        DispatchPolicy::LocalityAware => "locality-aware",
        DispatchPolicy::LocalityAwareBalanced => "locality-aware-balanced",
    }
}

/// Inverse of [`policy_name`].
pub fn parse_policy(s: &str) -> Option<DispatchPolicy> {
    DispatchPolicy::ALL
        .into_iter()
        .find(|&p| policy_name(p) == s)
}

/// Parses a policy as the command-line tools name it: the short names
/// `host|pim|la|bd` (`lab` is accepted as an alias of `bd`, which
/// earlier daemon clients send), or the long [`policy_name`]s.
pub fn parse_policy_short(s: &str) -> Option<DispatchPolicy> {
    match s {
        "host" => Some(DispatchPolicy::HostOnly),
        "pim" => Some(DispatchPolicy::PimOnly),
        "la" => Some(DispatchPolicy::LocalityAware),
        "bd" | "lab" => Some(DispatchPolicy::LocalityAwareBalanced),
        long => parse_policy(long),
    }
}

/// Parses an input size by its trace-metadata name, the size's
/// `Display` (`small|medium|large`).
pub fn parse_size(s: &str) -> Option<InputSize> {
    InputSize::ALL.into_iter().find(|x| x.to_string() == s)
}

/// Parses a workload by its figure label (`ATF`, `HJ`, …),
/// case-insensitively.
pub fn parse_workload(s: &str) -> Option<Workload> {
    Workload::ALL
        .into_iter()
        .find(|w| w.label().eq_ignore_ascii_case(s))
}

/// The recipe of one replayable simulation cell.
///
/// Everything here is a *value*: rebuilding the [`RunSpec`] from these
/// fields and running it is a pure function (the determinism contract),
/// so a capture made on one machine replays byte-identically on
/// another. Only recipe-level cells — a standard workload at a standard
/// size on a constructor-built machine — are replayable; sweep cells
/// with hand-tweaked configs are traceable but carry no recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureSpec {
    /// Which workload.
    pub workload: Workload,
    /// Which input size.
    pub size: InputSize,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Simulation effort (sets the PEI budget).
    pub scale: Scale,
    /// Paper-scale machine instead of the scaled default.
    pub paper_machine: bool,
    /// Workload seed.
    pub seed: u64,
    /// Overrides the scale's PEI budget when set (tests use tiny
    /// budgets to keep the capture→replay loop fast).
    pub pei_budget: Option<u64>,
}

impl std::fmt::Display for CaptureSpec {
    /// `ATF/small/locality-aware (quick, seed 24301)`, with `, paper`
    /// after the scale on the paper machine and `, budget N` at the end
    /// when the PEI budget is overridden.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{} ({}{}, seed {}",
            self.workload.label(),
            self.size,
            policy_name(self.policy),
            self.scale.name(),
            if self.paper_machine { ", paper" } else { "" },
            self.seed
        )?;
        if let Some(budget) = self.pei_budget {
            write!(f, ", budget {budget}")?;
        }
        f.write_str(")")
    }
}

impl Default for CaptureSpec {
    /// ATF at medium size under Locality-Aware, with the
    /// [`ExpOptions`] defaults: quick scale, the scaled machine and the
    /// default seed.
    fn default() -> Self {
        let opts = ExpOptions::default();
        CaptureSpec {
            workload: Workload::Atf,
            size: InputSize::Medium,
            policy: DispatchPolicy::LocalityAware,
            scale: opts.scale,
            paper_machine: opts.paper_machine,
            seed: opts.seed,
            pei_budget: None,
        }
    }
}

impl CaptureSpec {
    /// The runnable cell this recipe describes.
    pub fn to_run_spec(&self) -> RunSpec {
        let opts = ExpOptions {
            scale: self.scale,
            paper_machine: self.paper_machine,
            seed: self.seed,
            ..ExpOptions::default()
        };
        let mut params = opts.workload_params();
        if let Some(b) = self.pei_budget {
            params.pei_budget = b;
        }
        RunSpec::sized(opts.machine(self.policy), params, self.workload, self.size)
    }

    /// Reads one recipe flag of a command line into this spec, for a
    /// [`crate::cli::parse`] callback: `-w/--workload`,
    /// `-s/--size` (`small|medium|large` or `s|m|l`), `-p/--policy` (the
    /// [`parse_policy_short`] names), all case-insensitive, and
    /// `--budget N`. Returns `Ok(false)` for any other flag.
    ///
    /// # Errors
    ///
    /// Names the flag and the value it could not read (see
    /// [`Args::choice`]).
    pub fn read_flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "-w" | "--workload" => {
                self.workload = args.choice("atf|bfs|pr|sp|wcc|hj|hg|rp|sc|svm", parse_workload)?;
            }
            "-s" | "--size" => {
                self.size = args.choice("small|medium|large", |v| match v {
                    "s" => Some(InputSize::Small),
                    "m" => Some(InputSize::Medium),
                    "l" => Some(InputSize::Large),
                    long => parse_size(long),
                })?;
            }
            "-p" | "--policy" => {
                self.policy =
                    args.choice("host|pim|la|bd or their long names", parse_policy_short)?;
            }
            "--budget" => self.pei_budget = Some(args.int()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Writes this recipe into a recorder's metadata table under
    /// `spec.*` keys.
    pub fn write_meta(&self, rec: &mut Recorder) {
        rec.meta("spec.workload", self.workload.label());
        rec.meta("spec.size", &self.size.to_string());
        rec.meta("spec.policy", policy_name(self.policy));
        rec.meta("spec.scale", self.scale.name());
        rec.meta("spec.paper", if self.paper_machine { "1" } else { "0" });
        rec.meta("spec.seed", &self.seed.to_string());
        if let Some(b) = self.pei_budget {
            rec.meta("spec.budget", &b.to_string());
        }
    }

    /// Reads a recipe back out of a trace's metadata. `Err` names the
    /// missing or malformed key — traces captured without a recipe
    /// (sweep cells, hand-built systems) are diffable but not
    /// replayable. So are captures whose recipe records `spec.shards`:
    /// they ran on the sharded engine, a different event order that no
    /// longer exists, so re-running them could never match.
    pub fn from_trace(t: &Trace) -> Result<CaptureSpec, String> {
        fn get<'a>(t: &'a Trace, key: &str) -> Result<&'a str, String> {
            t.meta_get(key)
                .ok_or_else(|| format!("trace has no `{key}` metadata (not a replayable capture)"))
        }
        if t.meta_get("spec.shards").is_some() {
            return Err(
                "trace recipe has `spec.shards`: it was captured on the sharded \
                 engine, which was removed; it can be diffed but not replayed"
                    .into(),
            );
        }
        let workload = parse_workload(get(t, "spec.workload")?)
            .ok_or_else(|| "bad `spec.workload` metadata: unknown workload".to_string())?;
        let size = parse_size(get(t, "spec.size")?)
            .ok_or_else(|| "bad `spec.size` metadata: unknown size".to_string())?;
        let policy = parse_policy(get(t, "spec.policy")?)
            .ok_or_else(|| "bad `spec.policy` metadata: unknown policy".to_string())?;
        let scale = Scale::parse(get(t, "spec.scale")?)
            .ok_or_else(|| "bad `spec.scale` metadata: unknown scale".to_string())?;
        let paper_machine = match get(t, "spec.paper")? {
            "0" => false,
            "1" => true,
            _ => return Err("bad `spec.paper` metadata: expected 0 or 1".into()),
        };
        let seed: u64 = get(t, "spec.seed")?
            .parse()
            .map_err(|_| "bad `spec.seed` metadata: not an integer".to_string())?;
        let pei_budget = match t.meta_get("spec.budget") {
            None => None,
            Some(b) => Some(
                b.parse()
                    .map_err(|_| "bad `spec.budget` metadata: not an integer".to_string())?,
            ),
        };
        Ok(CaptureSpec {
            workload,
            size,
            policy,
            scale,
            paper_machine,
            seed,
            pei_budget,
        })
    }

    /// Runs the cell with a recorder attached and returns the result
    /// plus the finished trace, its metadata carrying both this recipe
    /// and the run's full statistics report (under the `stats` key) so
    /// [`replay`] can verify byte-identity later.
    pub fn capture(&self) -> (RunResult, Trace) {
        let (result, mut rec) = self.to_run_spec().run_traced(Recorder::new());
        let trace = self.seal(&result, &mut rec);
        (result, trace)
    }

    /// Writes this recipe and `result`'s statistics report (under the
    /// `stats` key) into `rec`'s metadata and returns the finished
    /// capture.
    pub fn seal(&self, result: &RunResult, rec: &mut Recorder) -> Trace {
        self.write_meta(rec);
        rec.meta("stats", &result.stats.to_string());
        rec.to_trace()
    }
}

/// The outcome of replaying a captured trace.
#[derive(Debug)]
pub struct Replay {
    /// The recipe that was re-executed.
    pub spec: CaptureSpec,
    /// The re-execution's result.
    pub result: RunResult,
    /// Whether the re-executed statistics report is byte-identical to
    /// the one stored in the capture's `stats` metadata.
    pub stats_match: bool,
    /// First divergence between the captured and re-recorded event
    /// streams, if any.
    pub divergence: Option<Divergence>,
}

impl Replay {
    /// Whether the replay reproduced the capture exactly.
    pub fn identical(&self) -> bool {
        self.stats_match && self.divergence.is_none()
    }
}

/// Re-executes the cell recorded in `t`'s metadata and compares both
/// the event stream and the statistics report against the capture.
/// `Err` means the trace carries no (or malformed) recipe; a
/// *divergent* replay is an `Ok` whose [`Replay::identical`] is false.
pub fn replay(t: &Trace) -> Result<Replay, String> {
    let spec = CaptureSpec::from_trace(t)?;
    let expected_stats = t
        .meta_get("stats")
        .ok_or_else(|| "trace has no `stats` metadata (not a replayable capture)".to_string())?
        .to_string();
    let (result, rec) = spec.to_run_spec().run_traced(Recorder::new());
    let reexec = rec.to_trace();
    let stats_match = result.stats.to_string() == expected_stats;
    let divergence = diff(t, &reexec);
    Ok(Replay {
        spec,
        result,
        stats_match,
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_round_trips() {
        for w in Workload::ALL {
            assert_eq!(parse_workload(w.label()), Some(w));
        }
        assert_eq!(parse_workload("atf"), Some(Workload::Atf));
        assert_eq!(parse_workload("nope"), None);
        for s in InputSize::ALL {
            assert_eq!(parse_size(&s.to_string()), Some(s));
        }
        for p in DispatchPolicy::ALL {
            assert_eq!(parse_policy(policy_name(p)), Some(p));
        }
        for sc in [Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(sc.name()), Some(sc));
        }
    }

    /// The spec `line`'s recipe flags describe, read as `pei-sim` and
    /// `trace_capture` read them.
    #[test]
    fn display_names_a_budget_override() {
        let spec = CaptureSpec {
            workload: Workload::Atf,
            size: InputSize::Small,
            ..CaptureSpec::default()
        };
        assert_eq!(
            spec.to_string(),
            "ATF/small/locality-aware (quick, seed 24301)"
        );
        let budget = CaptureSpec {
            pei_budget: Some(2000),
            ..spec
        };
        assert_eq!(
            budget.to_string(),
            "ATF/small/locality-aware (quick, seed 24301, budget 2000)"
        );
        let paper = CaptureSpec {
            paper_machine: true,
            ..budget
        };
        assert_eq!(
            paper.to_string(),
            "ATF/small/locality-aware (quick, paper, seed 24301, budget 2000)"
        );
    }

    fn read(line: &str) -> Result<CaptureSpec, String> {
        let mut spec = CaptureSpec::default();
        crate::cli::parse(
            line.split_whitespace().map(str::to_owned),
            &[],
            &mut ExpOptions::default(),
            |arg, args| spec.read_flag(arg, args),
        )?;
        Ok(spec)
    }

    #[test]
    fn flag_reader_accepts_every_pei_sim_spelling() {
        let spec = read("-w ATF -s m -p LA --budget 500").unwrap();
        assert_eq!(
            (spec.workload, spec.size, spec.policy, spec.pei_budget),
            (
                Workload::Atf,
                InputSize::Medium,
                DispatchPolicy::LocalityAware,
                Some(500)
            )
        );
        for w in Workload::ALL {
            let label = w.label();
            assert_eq!(read(&format!("-w {label}")).unwrap().workload, w);
            let lower = label.to_lowercase();
            assert_eq!(read(&format!("--workload {lower}")).unwrap().workload, w);
        }
        for (value, size) in [
            ("s", InputSize::Small),
            ("small", InputSize::Small),
            ("m", InputSize::Medium),
            ("Medium", InputSize::Medium),
            ("l", InputSize::Large),
            ("LARGE", InputSize::Large),
        ] {
            assert_eq!(read(&format!("-s {value}")).unwrap().size, size, "{value}");
            assert_eq!(read(&format!("--size {value}")).unwrap().size, size);
        }
        for (value, policy) in [
            ("host", DispatchPolicy::HostOnly),
            ("pim", DispatchPolicy::PimOnly),
            ("la", DispatchPolicy::LocalityAware),
            ("bd", DispatchPolicy::LocalityAwareBalanced),
            ("lab", DispatchPolicy::LocalityAwareBalanced),
            (
                "locality-aware-balanced",
                DispatchPolicy::LocalityAwareBalanced,
            ),
            ("Pim-Only", DispatchPolicy::PimOnly),
        ] {
            assert_eq!(
                read(&format!("-p {value}")).unwrap().policy,
                policy,
                "{value}"
            );
            assert_eq!(read(&format!("--policy {value}")).unwrap().policy, policy);
        }
        assert_eq!(read("").unwrap(), CaptureSpec::default());
    }

    #[test]
    fn flag_reader_names_the_flag_of_a_value_it_refuses() {
        assert_eq!(
            read("-p warp").unwrap_err(),
            "unknown -p value `warp` (host|pim|la|bd or their long names)"
        );
        assert_eq!(
            read("--size tiny").unwrap_err(),
            "unknown --size value `tiny` (small|medium|large)"
        );
        let err = read("--workload quicksort").unwrap_err();
        assert!(
            err.starts_with("unknown --workload value `quicksort`"),
            "{err}"
        );
        assert_eq!(
            read("--budget x").unwrap_err(),
            "--budget must be an integer, got `x`"
        );
        assert_eq!(read("-w").unwrap_err(), "-w needs a value");
        assert_eq!(read("--stats").unwrap_err(), "unknown argument `--stats`");
    }

    #[test]
    fn spec_meta_round_trips() {
        let spec = CaptureSpec {
            workload: Workload::Hj,
            size: InputSize::Medium,
            policy: DispatchPolicy::LocalityAwareBalanced,
            scale: Scale::Full,
            paper_machine: true,
            seed: 0xfeed,
            pei_budget: Some(1234),
        };
        let mut rec = Recorder::new();
        spec.write_meta(&mut rec);
        let t = Trace::from_bytes(&rec.to_trace().to_bytes()).unwrap();
        assert_eq!(CaptureSpec::from_trace(&t).unwrap(), spec);
    }

    #[test]
    fn unreplayable_trace_is_reported() {
        let t = Recorder::new().to_trace();
        let err = CaptureSpec::from_trace(&t).unwrap_err();
        assert!(err.contains("spec.workload"), "{err}");
        assert!(replay(&t).is_err());
    }
}
