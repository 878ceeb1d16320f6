//! Checked mode: cross-component invariant auditors, the
//! forward-progress watchdog's structured failure reports, and the
//! deterministic fault-injection harness (DESIGN.md §9).
//!
//! The simulator's figures rest on coherence, queuing, and flit
//! accounting being silently correct. Checked mode makes those
//! assumptions *sweepable*: every [`CheckConfig::interval`] cycles the
//! run loop calls `CheckState::sweep`, which audits the whole machine
//! between events — when no event is mid-dispatch, every cross-component
//! invariant below must hold exactly:
//!
//! * **MESI consistency** — at most one writable (M/E) copy of a block
//!   across private caches, and the inclusive L3 is a superset of every
//!   private line (lines mid-transaction are excused via
//!   `L3Bank::txn_blocks`).
//! * **PIM-directory accounting** — PEIs holding or awaiting a
//!   reader-writer lock equal the PMU's registered transactions.
//! * **MSHR leaks** — no private-cache miss outstanding longer than
//!   [`CheckConfig::mshr_age_bound`] cycles.
//! * **Link conservation** — reads issued over the off-chip link equal
//!   responses returned plus the in-flight window.
//! * **Crossbar conservation** — messages switched equal messages the
//!   router injected (nothing enters the fabric unaccounted).
//! * **PCU operand buffers** — no PCU holds more in-service PEIs than
//!   its operand-buffer capacity.
//! * **Event population** — the queue's population reconciles with
//!   scheduled/dispatched totals (a lost event is an invariant
//!   violation, not a mystery hang) and stays under
//!   [`CheckConfig::max_events`].
//!
//! Sweeps read component state and never schedule events, so checked
//! runs produce byte-identical results to unchecked runs unless a
//! checker fires — the same observe-don't-steer contract as tracing
//! (DESIGN.md §8).
//!
//! A [`FaultPlan`] deterministically breaks one of these invariants (or
//! forward progress itself) from a seed, which is how the test suite
//! proves each checker actually fires and the watchdog names the
//! culprit component.

use pei_engine::{FastMap, SimRng};
use pei_trace::Trace;
use pei_types::{BlockAddr, Cycle};

use crate::system::System;

/// Checked-mode knobs. `Copy`, so experiment sweeps can embed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Sweep the invariant auditors every this many cycles.
    pub interval: Cycle,
    /// A private-cache miss outstanding longer than this is a leak.
    pub mshr_age_bound: Cycle,
    /// Upper bound on the event-queue population (an event storm this
    /// size means runaway scheduling, not a big workload).
    pub max_events: usize,
    /// Capacity of the last-K-events ring attached when no tracer is
    /// present; failed runs carry this window in their report.
    pub window: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            interval: 8_192,
            mshr_age_bound: 1_000_000,
            max_events: 8_000_000,
            window: 256,
        }
    }
}

/// One invariant violation found by a sweep (or by the router, which
/// reports protocol-corruption it observes through the same path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which auditor fired (`"mesi"`, `"mshr"`, `"pim-dir"`, `"link"`,
    /// `"xbar"`, `"pcu"`, `"events"`, `"router"`).
    pub checker: &'static str,
    /// The component at fault (`"cache2"`, `"vault7"`, `"pmu"`, ...).
    pub component: String,
    /// Human-readable specifics: addresses, counts, cycle numbers.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.checker, self.component, self.detail)
    }
}

/// Why a run ended without completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The event queue drained while workload groups still had work.
    Stalled,
    /// The cycle limit elapsed with events still flowing.
    CycleLimit,
    /// An invariant auditor (or the router) reported a violation.
    CheckFailed,
}

impl FailureKind {
    /// Short lowercase label (`stalled`, `cycle-limit`, `check-failed`).
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Stalled => "stalled",
            FailureKind::CycleLimit => "cycle-limit",
            FailureKind::CheckFailed => "check-failed",
        }
    }
}

/// Structured description of a failed run: what kind of failure, where
/// the machine was stuck, and the last captured events before it.
///
/// Replaces the old `panic!` in `System::run` — batch runners record
/// the report and keep sibling jobs running (graceful degradation).
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// What ended the run.
    pub kind: FailureKind,
    /// Cycle of the last dispatched event.
    pub cycle: Cycle,
    /// Invariant violations collected before the run ended.
    pub violations: Vec<Violation>,
    /// Nonzero queue/buffer occupancies per component, as
    /// `(component.metric, value)` pairs.
    pub occupancies: Vec<(String, u64)>,
    /// The captured events (the checked-mode ring recorder's last K, or
    /// whatever recorder was attached), if a recorder was attached.
    pub recent_events: Option<Trace>,
}

impl FailureReport {
    /// The most likely culprit component: the first violation's
    /// component if a checker fired, else the first stuck component
    /// from the occupancy scan.
    pub fn culprit(&self) -> Option<&str> {
        if let Some(v) = self.violations.first() {
            return Some(&v.component);
        }
        self.occupancies
            .first()
            .map(|(name, _)| name.split('.').next().unwrap_or(name))
    }

    /// One-line summary for logs and batch-runner output.
    pub fn summary(&self) -> String {
        let culprit = self.culprit().unwrap_or("unknown");
        let extra = match self.violations.first() {
            Some(v) => format!("; {v}"),
            None => String::new(),
        };
        format!(
            "{} at cycle {} (culprit: {culprit}{extra})",
            self.kind.label(),
            self.cycle
        )
    }

    /// Persists the captured failure window as a `.petr` file, its
    /// metadata tagged with the failure's kind and cycle, returning the
    /// number of records written (0 if the run carried no retained
    /// events). The file keeps the ring's `dropped` count.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error from writing `path`.
    pub fn save_window(&self, path: &std::path::Path) -> std::io::Result<u64> {
        let Some(t) = &self.recent_events else {
            return Ok(0);
        };
        let mut t = t.clone();
        t.meta
            .push(("failure.kind".into(), self.kind.label().into()));
        t.meta
            .push(("failure.cycle".into(), self.cycle.to_string()));
        std::fs::write(path, t.to_bytes())?;
        Ok(t.records.len() as u64)
    }
}

/// How a run ended. Carried by `RunResult::outcome`; failed runs keep
/// their partial metrics so batch tables still have every cell.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// Every workload group finished.
    Completed,
    /// The watchdog declared a stall (queue empty, work remaining).
    Stalled {
        /// What was stuck, and where.
        report: Box<FailureReport>,
    },
    /// The watchdog hit the cycle limit.
    CycleLimit {
        /// What was still in flight when the limit elapsed.
        report: Box<FailureReport>,
    },
    /// An invariant auditor fired mid-run.
    CheckFailed {
        /// The violations, plus machine state at the failing sweep.
        report: Box<FailureReport>,
    },
}

impl RunOutcome {
    /// Whether the run completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    /// The failure report, if the run did not complete.
    pub fn report(&self) -> Option<&FailureReport> {
        match self {
            RunOutcome::Completed => None,
            RunOutcome::Stalled { report }
            | RunOutcome::CycleLimit { report }
            | RunOutcome::CheckFailed { report } => Some(report),
        }
    }
}

/// One injectable fault. Each variant is paired with the checker (or
/// watchdog outcome) that must catch it — the contract the
/// fault-injection tests enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Wedge one vault: accesses queue forever. Caught by the
    /// forward-progress watchdog (`Stalled` naming the vault).
    WedgeVault,
    /// Allocate a private-cache MSHR entry that never retires. Caught
    /// by the MSHR-leak auditor.
    LeakMshr,
    /// Mid-run, silently corrupt cache-line coherence state (force a
    /// shared copy writable, or orphan an L3 line). Caught by the MESI
    /// auditor.
    CorruptLine,
    /// Acquire a PIM-directory lock under a PEI id the PMU never
    /// registered. Caught by the directory-accounting auditor.
    LeakDirLock,
    /// Grow the off-chip read window without a matching request. Caught
    /// by the link-conservation auditor.
    LeakLinkCredit,
    /// Overfill one memory-side PCU's operand buffer past capacity.
    /// Caught by the operand-accounting auditor.
    OverfillPcu,
    /// Inject a crossbar message behind the router's back. Caught by
    /// the crossbar-conservation auditor.
    RogueXbarMessage,
    /// Mid-run, pop one event and discard it. Caught by the
    /// event-population auditor (the queue no longer reconciles).
    DropEvent,
    /// Mid-run, re-schedule one event later instead of dispatching it.
    /// Perturbs timing but violates nothing — checked runs complete
    /// (the harness's negative control).
    DelayEvent,
}

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::WedgeVault,
        FaultKind::LeakMshr,
        FaultKind::CorruptLine,
        FaultKind::LeakDirLock,
        FaultKind::LeakLinkCredit,
        FaultKind::OverfillPcu,
        FaultKind::RogueXbarMessage,
        FaultKind::DropEvent,
        FaultKind::DelayEvent,
    ];

    /// Wire name, as daemon recipes spell it (`wedge-vault`,
    /// `leak-mshr`, …).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::WedgeVault => "wedge-vault",
            FaultKind::LeakMshr => "leak-mshr",
            FaultKind::CorruptLine => "corrupt-line",
            FaultKind::LeakDirLock => "leak-dir-lock",
            FaultKind::LeakLinkCredit => "leak-link-credit",
            FaultKind::OverfillPcu => "overfill-pcu",
            FaultKind::RogueXbarMessage => "rogue-xbar-message",
            FaultKind::DropEvent => "drop-event",
            FaultKind::DelayEvent => "delay-event",
        }
    }
}

/// A deterministic, seeded set of faults to inject into one run.
///
/// All randomness (which vault, which event ordinal, which block) is
/// drawn from [`SimRng`] seeded with [`FaultPlan::new`]'s seed at
/// injection time, so a plan reproduces the same failure on every run —
/// the property that makes failure reports actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// An empty plan drawing its choices from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault to the plan (builder style).
    #[must_use]
    pub fn with(mut self, kind: FaultKind) -> Self {
        self.faults.push(kind);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The queued faults, in injection order.
    pub fn kinds(&self) -> &[FaultKind] {
        &self.faults
    }
}

/// Event-ordinal-triggered faults armed on the run loop (the immediate
/// faults of a [`FaultPlan`] are applied directly at injection time).
#[derive(Debug, Default)]
pub(crate) struct ArmedFaults {
    /// Dispatch ordinal at which to corrupt a cache line (re-armed each
    /// event until a corruptible line exists).
    pub(crate) corrupt_at: Option<u64>,
    /// Dispatch ordinal at which to drop the popped event.
    pub(crate) drop_at: Option<u64>,
    /// `(ordinal, delay)`: re-schedule the popped event `delay` cycles
    /// later instead of dispatching it.
    pub(crate) delay_at: Option<(u64, Cycle)>,
    /// Dispatch ordinal at which to inject a rogue crossbar message.
    pub(crate) rogue_at: Option<u64>,
}

impl ArmedFaults {
    /// Whether any trigger is still pending.
    pub(crate) fn any_armed(&self) -> bool {
        self.corrupt_at.is_some()
            || self.drop_at.is_some()
            || self.delay_at.is_some()
            || self.rogue_at.is_some()
    }
}

/// Per-run checker state: the sweep schedule plus the little memory
/// some auditors need across sweeps (MSHR entry ages).
#[derive(Debug)]
pub(crate) struct CheckState {
    pub(crate) cfg: CheckConfig,
    pub(crate) next_sweep: Cycle,
    /// `(cache index, block)` → cycle first observed outstanding.
    mshr_seen: FastMap<(usize, u64), Cycle>,
    /// Scratch for the MESI sweep, keyed by block.
    mesi_scratch: FastMap<u64, MesiEntry>,
}

/// Per-block scratch for the MESI single-writer pass.
#[derive(Debug, Default)]
pub(crate) struct MesiEntry {
    holders: u32,
    writer: Option<usize>,
    tainted: bool,
}

impl CheckState {
    pub(crate) fn new(cfg: CheckConfig) -> Self {
        CheckState {
            cfg,
            next_sweep: cfg.interval,
            mshr_seen: FastMap::default(),
            mesi_scratch: FastMap::default(),
        }
    }

    /// Runs every auditor against the machine, appending violations.
    /// Read-only over `sys` (never schedules events): checked mode's
    /// cycle-neutrality rests on this signature.
    pub(crate) fn sweep(&mut self, sys: &System, now: Cycle, out: &mut Vec<Violation>) {
        self.check_mesi(sys, out);
        self.check_mshr(sys, now, out);
        self.check_pim_dir(sys, out);
        self.check_link(sys, out);
        self.check_xbar(sys, out);
        self.check_pcu(sys, out);
        self.check_events(sys, out);
    }

    fn check_mesi(&mut self, sys: &System, out: &mut Vec<Violation>) {
        // Pass 1: single-writer. Collect every private holder per block;
        // a writable copy coexisting with any other copy is corruption —
        // unless some copy of the block is tainted: recalls (control
        // flits) can legitimately overtake in-flight grants (data
        // flits), leaving a stale copy the L3 no longer tracks. The
        // private cache marks exactly those copies (see
        // `PrivateCache::is_tainted`), and the auditor excuses the whole
        // block: once the L3 has lost track of one copy, any state pair
        // involving it is reachable without corruption.
        let seen = &mut self.mesi_scratch;
        seen.clear();
        for (i, p) in sys.privs.iter().enumerate() {
            for (block, state) in p.lines() {
                let e = seen.entry(block.0).or_default();
                e.holders += 1;
                if state.writable() {
                    e.writer = Some(i);
                }
                e.tainted |= p.is_tainted(block);
            }
        }
        for (&block, e) in seen.iter() {
            if let Some(i) = e.writer {
                if e.holders > 1 && !e.tainted {
                    out.push(Violation {
                        checker: "mesi",
                        component: format!("cache{i}"),
                        detail: format!(
                            "block {block:#x} writable here but held by {} private caches",
                            e.holders
                        ),
                    });
                }
            }
        }
        // Pass 2: inclusivity. Every private line must be backed by an
        // L3 line, unless an in-flight L3 transaction explains the
        // window (fill victims mid-recall, locked placeholders).
        for (i, p) in sys.privs.iter().enumerate() {
            for (block, _) in p.lines() {
                let bank = &sys.l3banks[sys.wiring.bank_of(block)];
                if bank.holds(block) {
                    continue;
                }
                let in_transition = bank
                    .txn_blocks()
                    .any(|(key, victim)| key == block || victim == Some(block));
                if !in_transition && !p.is_tainted(block) {
                    out.push(Violation {
                        checker: "mesi",
                        component: format!("cache{i}"),
                        detail: format!(
                            "block {:#x} held privately but absent from the inclusive L3",
                            block.0
                        ),
                    });
                }
            }
        }
    }

    fn check_mshr(&mut self, sys: &System, now: Cycle, out: &mut Vec<Violation>) {
        // Age tracking without touching component signatures: an entry
        // is born the first sweep that observes it; entries that vanish
        // are forgotten.
        let seen = &mut self.mshr_seen;
        seen.retain(|&(i, block), _| {
            sys.privs[i].mshr_blocks().any(|b| b.0 == block) // keep live entries only
        });
        for (i, p) in sys.privs.iter().enumerate() {
            for block in p.mshr_blocks() {
                let born = *seen.entry((i, block.0)).or_insert(now);
                let age = now - born;
                if age > self.cfg.mshr_age_bound {
                    out.push(Violation {
                        checker: "mshr",
                        component: format!("cache{i}"),
                        detail: format!(
                            "miss on block {:#x} outstanding {age} cycles (bound {})",
                            block.0, self.cfg.mshr_age_bound
                        ),
                    });
                }
            }
        }
    }

    fn check_pim_dir(&mut self, sys: &System, out: &mut Vec<Violation>) {
        let locks = sys.pmu.dir_in_flight();
        let txns = sys.pmu.in_flight();
        if locks != txns {
            out.push(Violation {
                checker: "pim-dir",
                component: "pmu".to_string(),
                detail: format!(
                    "directory holds {locks} reader-writer locks but {txns} PEIs are registered"
                ),
            });
        }
    }

    fn check_link(&mut self, sys: &System, out: &mut Vec<Violation>) {
        let (issued, returned, pending) = sys.ctrl.read_credit_state();
        if issued != returned + pending {
            out.push(Violation {
                checker: "link",
                component: "link".to_string(),
                detail: format!(
                    "read credits do not conserve: {issued} issued != {returned} returned + {pending} in flight"
                ),
            });
        }
    }

    fn check_xbar(&mut self, sys: &System, out: &mut Vec<Violation>) {
        let switched = sys.wiring.xbar.messages();
        let injected = sys.wiring.xsends;
        if switched != injected {
            out.push(Violation {
                checker: "xbar",
                component: "xbar".to_string(),
                detail: format!(
                    "messages do not conserve: {switched} switched != {injected} injected by the router"
                ),
            });
        }
    }

    fn check_pcu(&mut self, sys: &System, out: &mut Vec<Violation>) {
        for (v, pcu) in sys.mem_pcus.iter().enumerate() {
            let (used, cap) = (pcu.in_service(), pcu.operand_capacity());
            if used > cap {
                out.push(Violation {
                    checker: "pcu",
                    component: format!("mpcu{v}"),
                    detail: format!("{used} in-service PEIs exceed the {cap}-entry operand buffer"),
                });
            }
        }
        let cap = sys.cfg.pcu.operand_entries;
        for (c, pcu) in sys.host_pcus.iter().enumerate() {
            // `occupied()`, not `in_flight()`: memory-dispatched PEIs hand
            // their operand entry off but stay tracked until the result
            // returns, so the task count legitimately exceeds the buffer.
            let used = pcu.occupied();
            if used > cap {
                out.push(Violation {
                    checker: "pcu",
                    component: format!("hpcu{c}"),
                    detail: format!(
                        "{used} occupied operand entries exceed the {cap}-entry buffer"
                    ),
                });
            }
        }
    }

    fn check_events(&mut self, sys: &System, out: &mut Vec<Violation>) {
        let scheduled = sys.wiring.queue.total_scheduled();
        let pending = sys.wiring.queue.len() as u64;
        let dispatched = sys.dispatched;
        if scheduled != dispatched + pending {
            out.push(Violation {
                checker: "events",
                component: "queue".to_string(),
                detail: format!(
                    "population does not reconcile: {scheduled} scheduled != {dispatched} dispatched + {pending} pending ({} lost)",
                    (scheduled as i64) - (dispatched + pending) as i64
                ),
            });
        }
        if pending as usize > self.cfg.max_events {
            out.push(Violation {
                checker: "events",
                component: "queue".to_string(),
                detail: format!(
                    "{pending} pending events exceed the {}-event population bound",
                    self.cfg.max_events
                ),
            });
        }
    }
}

/// Resolves a [`FaultPlan`] against a machine: immediate faults are
/// applied to components now; event-triggered faults come back armed.
/// Called by `System::inject_faults`.
pub(crate) fn resolve_plan(sys: &mut System, plan: &FaultPlan) -> ArmedFaults {
    let mut rng = SimRng::seed_from(plan.seed());
    let mut armed = ArmedFaults::default();
    // Synthetic blocks live far above any workload heap so a leaked
    // entry can never collide with real traffic.
    let far_block = |rng: &mut SimRng| BlockAddr(0x0040_0000_0000 + rng.gen_range(1 << 20));
    for &kind in plan.kinds() {
        match kind {
            FaultKind::WedgeVault => {
                let v = rng.gen_range(sys.vaults.len() as u64) as usize;
                sys.vaults[v].fault_wedge();
            }
            FaultKind::LeakMshr => {
                let c = rng.gen_range(sys.privs.len() as u64) as usize;
                let block = far_block(&mut rng);
                sys.privs[c].fault_leak_mshr(block);
            }
            FaultKind::LeakDirLock => {
                let block = far_block(&mut rng);
                sys.pmu.fault_leak_dir_lock(block);
            }
            FaultKind::LeakLinkCredit => {
                sys.ctrl.fault_leak_read_credit();
            }
            FaultKind::OverfillPcu => {
                let v = rng.gen_range(sys.mem_pcus.len() as u64) as usize;
                let cap = sys.mem_pcus[v].operand_capacity();
                for _ in 0..=cap {
                    sys.mem_pcus[v].fault_overfill();
                }
            }
            FaultKind::CorruptLine => {
                armed.corrupt_at = Some(1_000 + rng.gen_range(4_000));
            }
            FaultKind::DropEvent => {
                armed.drop_at = Some(1_000 + rng.gen_range(4_000));
            }
            FaultKind::DelayEvent => {
                armed.delay_at = Some((1_000 + rng.gen_range(4_000), 64 + rng.gen_range(192)));
            }
            FaultKind::RogueXbarMessage => {
                armed.rogue_at = Some(1_000 + rng.gen_range(4_000));
            }
        }
    }
    armed
}
