//! Full-machine assembly and the discrete-event run loop.
//!
//! The [`System`] owns every component (cores, private caches, L3 banks,
//! crossbar, HMC controller, vaults, PCUs, PMU, the functional backing
//! store) plus the global event queue, and routes each component's output
//! messages to their destinations — through the crossbar where the
//! physical topology says so. All the latencies of Figs. 4 and 5 arise
//! from this wiring rather than being hard-coded per flow.

use crate::check::{
    self, ArmedFaults, CheckConfig, CheckState, FailureKind, FailureReport, FaultPlan, RunOutcome,
    Violation,
};
use crate::config::MachineConfig;
use crate::energy::{self, EnergyBreakdown, EnergyInputs, EnergyModel};
use crate::tracer::Tracer;
use pei_core::{HostPcu, HostPcuOut, MemPcu, MemPcuOut, Pmu, PmuIn, PmuOut};
use pei_cpu::core::{Core, CoreEvent, CoreStatus};
use pei_cpu::trace::PhasedTrace;
use pei_cpu::CoreOut;
use pei_engine::{EventQueue, Outbox, StatsReport};
use pei_hmc::ctrl::MemSideIn;
use pei_hmc::{CtrlIn, CtrlOut, HmcController, Vault, VaultIn, VaultOut};
use pei_mem::l3::{L3In, L3Out};
use pei_mem::msg::{CoreReq, L3Resp, Recall};
use pei_mem::xbar::XbarPayload;
use pei_mem::{BackingStore, Crossbar, L3Bank, PrivOut, PrivateCache};
use pei_trace::TraceSink;
use pei_types::mem::ns;
use pei_types::{BlockAddr, CoreId, Cycle, L3BankId, OperandValue, PimCmd, ReqId};

/// Internal event type of the system loop.
///
/// The queue holds millions of these, so size matters: the per-PEI
/// carriers of [`PimCmd`] / [`pei_types::PimOut`] / operand values are
/// boxed (PEIs are orders of magnitude rarer than plain memory events),
/// while the plain-memory-path variants stay inline. The
/// `ev_stays_compact` test pins the resulting size.
#[derive(Debug)]
pub(crate) enum Ev {
    CoreTick(usize),
    CoreMemDone(usize, ReqId),
    CorePeiDone(usize, u64),
    CorePeiCredit(usize),
    CorePfenceDone(usize),
    PrivCoreReq(usize, CoreReq),
    PrivL3Resp(usize, L3Resp),
    PrivRecall(usize, Recall),
    L3(usize, L3In),
    CtrlHostRead(ReqId, BlockAddr),
    CtrlHostWrite(BlockAddr),
    CtrlHostPim(Box<PimCmd>),
    CtrlMemReadDone(ReqId, BlockAddr, u16),
    CtrlMemPimDone(u16, Box<pei_types::PimOut>),
    VaultAcc(usize, VaultIn),
    VaultWake(usize),
    MemPcuCmd(usize, Box<PimCmd>),
    MemPcuVaultDone(usize, ReqId, bool),
    Pmu(Box<PmuIn>),
    HostPcuDecision(usize, ReqId),
    HostPcuDispatchedMem(usize, ReqId),
    HostPcuL1Resp(usize, ReqId),
    HostPcuMemResult(usize, ReqId, Box<OperandValue>),
}

struct Group {
    trace: Box<dyn PhasedTrace>,
    cores: Vec<usize>,
    drained: Vec<bool>,
    drained_count: usize,
    done: bool,
    instructions_at_done: u64,
    phases: u64,
}

/// Result of a full-system run: the headline metrics every experiment
/// harness consumes, plus the complete statistics report.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Host cycles until the last workload group completed.
    pub cycles: Cycle,
    /// Total instructions issued by all cores.
    pub instructions: u64,
    /// Total PEIs issued.
    pub peis: u64,
    /// Fraction of PEIs dispatched to memory-side PCUs (Fig. 8's "PIM %").
    pub pim_fraction: f64,
    /// Off-chip traffic in bytes, both directions (Fig. 7).
    pub offchip_bytes: u64,
    /// Request/response link flits.
    pub offchip_flits: (u64, u64),
    /// DRAM accesses served (reads + writes).
    pub dram_accesses: u64,
    /// Energy breakdown (Fig. 12).
    pub energy: EnergyBreakdown,
    /// Full per-component statistics.
    pub stats: StatsReport,
    /// How the run ended. Failed runs ([`RunOutcome::Stalled`],
    /// [`RunOutcome::CycleLimit`], [`RunOutcome::CheckFailed`]) still
    /// carry their partial metrics above, plus a structured
    /// [`FailureReport`] inside the outcome.
    pub outcome: RunOutcome,
}

impl RunResult {
    /// Instructions per cycle across the whole machine (the sum-of-IPCs
    /// throughput metric of §7.3 equals this for multiprogrammed runs).
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }

    /// Whether the run completed normally (every workload group
    /// finished, no invariant violation).
    pub fn ok(&self) -> bool {
        self.outcome.is_completed()
    }
}

/// Outcome of a pausable run.
#[derive(Debug)]
pub enum RunStatus {
    /// The run ended (completed or failed) before the pause point.
    Completed(RunResult),
    /// The pause point was reached with work outstanding; the machine
    /// is quiescent and resumes on the next
    /// [`run_paused`](System::run_paused) call.
    Paused {
        /// The pause bound: every event strictly before this cycle has
        /// been dispatched.
        at: Cycle,
    },
}

impl RunStatus {
    /// Unwraps the completed result.
    ///
    /// # Panics
    ///
    /// Panics if the run paused instead of completing.
    pub fn expect_completed(self) -> RunResult {
        match self {
            RunStatus::Completed(r) => r,
            RunStatus::Paused { at } => panic!("run paused at cycle {at}, expected completion"),
        }
    }

    /// Unwraps the pause cycle.
    ///
    /// # Panics
    ///
    /// Panics if the run completed instead of pausing.
    pub fn expect_paused(self) -> Cycle {
        match self {
            RunStatus::Paused { at } => at,
            RunStatus::Completed(r) => {
                panic!("run completed ({:?}) before the pause point", r.outcome)
            }
        }
    }
}

/// The simulated machine.
///
/// Fields are `pub(crate)` so the invariant auditors in
/// [`crate::check`] can sweep component state read-only; the public
/// surface stays methods-only.
pub struct System {
    pub(crate) cfg: MachineConfig,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) cores: Vec<Core>,
    pub(crate) privs: Vec<PrivateCache>,
    pub(crate) l3banks: Vec<L3Bank>,
    pub(crate) xbar: Crossbar,
    pub(crate) ctrl: HmcController,
    pub(crate) vaults: Vec<Vault>,
    pub(crate) mem_pcus: Vec<MemPcu>,
    pub(crate) host_pcus: Vec<HostPcu>,
    pub(crate) pmu: Pmu,
    pub(crate) store: BackingStore,
    groups: Vec<Group>,
    core_group: Vec<Option<usize>>,
    finish_time: Cycle,
    // Run-loop accounting for the event-conservation and crossbar
    // auditors: events dispatched (popped and handled) and messages the
    // router injected into the crossbar.
    pub(crate) dispatched: u64,
    pub(crate) xsends: u64,
    // Checked mode (None in normal runs; one `is_some()` branch each).
    checks: Option<Box<CheckState>>,
    pub(crate) faults: Option<Box<ArmedFaults>>,
    // Violations found by sweeps or flagged by the router; non-empty
    // ends the run with a `CheckFailed` outcome.
    pub(crate) violations: Vec<Violation>,
    // Reusable per-component outboxes: taken (std::mem::take) around each
    // handler call and put back after routing, so the steady-state event
    // loop allocates nothing. route_* methods only schedule events and
    // never re-enter handlers, which makes the take/put pattern safe.
    ob_core: Outbox<CoreOut>,
    ob_priv: Outbox<PrivOut>,
    ob_l3: Outbox<L3Out>,
    ob_ctrl: Outbox<CtrlOut>,
    ob_vault: Outbox<VaultOut>,
    ob_mpcu: Outbox<MemPcuOut>,
    ob_pmu: Outbox<PmuOut>,
    ob_hpcu: Outbox<HostPcuOut>,
    // Event capture (None in normal runs). The hot path pays one
    // `is_some()` branch per dispatched event when tracing is off; all
    // name interning happens at attach time (see crate::tracer).
    tracer: Option<Tracer>,
}

// Parallel experiment runners move whole `System`s (including their
// boxed traces) onto worker threads; keep that property explicit so a
// non-Send field is caught here, not in a downstream crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
};

impl System {
    /// Builds an idle machine per `cfg`, with `store` as the simulated
    /// physical memory contents (typically a clone of the store the
    /// workload generator initialized).
    pub fn new(cfg: MachineConfig, mut store: BackingStore) -> Self {
        let n = cfg.cores;
        let banks = cfg.mem.l3_banks;
        let vaults_total = cfg.total_vaults();
        // Virtual memory: workload data was built at virtual addresses;
        // place it at the mapped physical frames (§4.4).
        if cfg.page_map != pei_cpu::PageMap::Identity {
            store.remap_pages(|vpn| cfg.page_map.translate_page(vpn));
        }
        System {
            // Size the calendar queue's near-future window for this
            // machine's dominant scheduling deltas; far-tail events
            // (congested-channel deliveries) take the overflow path.
            queue: EventQueue::with_horizon(cfg.event_horizon()),
            cores: (0..n)
                .map(|i| {
                    let mut c = Core::new(CoreId(i as u16), cfg.core_config());
                    if let Some(tlb_cfg) = cfg.tlb {
                        c.enable_virtual_memory(tlb_cfg, cfg.page_map);
                    }
                    c
                })
                .collect(),
            privs: (0..n)
                .map(|i| PrivateCache::new(CoreId(i as u16), &cfg.mem))
                .collect(),
            l3banks: (0..banks)
                .map(|b| L3Bank::new(L3BankId(b as u16), &cfg.mem))
                .collect(),
            // Source ports: one per private cache, one per L3 bank, one
            // for the PMU.
            xbar: Crossbar::new(
                n + banks + 1,
                cfg.mem.xbar_bytes_per_cycle,
                cfg.mem.xbar_latency,
            ),
            ctrl: HmcController::new(&cfg.hmc),
            vaults: (0..vaults_total).map(|_| Vault::new(&cfg.hmc)).collect(),
            mem_pcus: (0..vaults_total)
                .map(|v| MemPcu::new(v as u16, cfg.pcu, cfg.hmc.mem_clk))
                .collect(),
            host_pcus: (0..n)
                .map(|i| HostPcu::new(CoreId(i as u16), cfg.pcu))
                .collect(),
            pmu: Pmu::new(cfg.pmu_config()),
            store,
            groups: Vec::new(),
            core_group: vec![None; n],
            finish_time: 0,
            dispatched: 0,
            xsends: 0,
            checks: None,
            faults: None,
            violations: Vec::new(),
            ob_core: Outbox::new(),
            ob_priv: Outbox::new(),
            ob_l3: Outbox::new(),
            ob_ctrl: Outbox::new(),
            ob_vault: Outbox::new(),
            ob_mpcu: Outbox::new(),
            ob_pmu: Outbox::new(),
            ob_hpcu: Outbox::new(),
            tracer: None,
            cfg,
        }
    }

    /// Attaches an event-capture sink. Component and kind names are
    /// interned into the sink immediately (so the event loop never
    /// hashes a string), and the machine shape is written to the sink's
    /// metadata. Replaces any previously attached sink.
    pub fn attach_tracer(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer = Some(Tracer::new(sink, &self.cfg));
    }

    /// Detaches and returns the capture sink, if one is attached.
    pub fn detach_tracer(&mut self) -> Option<Box<dyn TraceSink>> {
        self.tracer.take().map(|t| t.sink)
    }

    /// Turns on checked mode: the run loop sweeps the cross-component
    /// invariant auditors every [`CheckConfig::interval`] cycles and
    /// ends the run with a [`RunOutcome::CheckFailed`] report when one
    /// fires. If no tracer is attached, a last-`window`-events ring
    /// recorder is attached so failure reports carry the events leading
    /// up to the violation.
    ///
    /// Sweeps observe and never schedule, so a checked run that
    /// completes is byte-identical to the unchecked run (the same
    /// contract as tracing; see DESIGN.md §9).
    pub fn enable_checks(&mut self, cfg: CheckConfig) {
        if self.tracer.is_none() {
            self.attach_tracer(Box::new(pei_trace::Recorder::with_capacity(cfg.window)));
        }
        self.checks = Some(Box::new(CheckState::new(cfg)));
    }

    /// Injects a deterministic [`FaultPlan`]: immediate faults (wedged
    /// vault, leaked MSHR/lock/credit, overfilled PCU) are applied to
    /// components now; event-triggered faults (corrupt, drop, delay,
    /// rogue message) arm on the run loop. Test-harness use only.
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        let armed = check::resolve_plan(self, plan);
        if armed.any_armed() {
            self.faults = Some(Box::new(armed));
        }
    }

    /// Labels every component's current counter values as the end of
    /// phase `label`. The final [`RunResult`] stats then carry interval
    /// sections `*.phase.{label}.*` (with the tail after the last mark
    /// labeled `steady`), extractable with `StatsReport::phase_section`.
    /// The run loop calls this automatically with `"warmup"` when
    /// workload group 0 finishes its first phase; experiment harnesses
    /// may add marks of their own between `run` calls.
    pub fn mark_phase(&mut self, label: &'static str) {
        for c in &mut self.cores {
            c.snapshot_phase(label);
        }
        for p in &mut self.privs {
            p.snapshot_phase(label);
        }
        for b in &mut self.l3banks {
            b.snapshot_phase(label);
        }
        for v in &mut self.vaults {
            v.snapshot_phase(label);
        }
        for p in &mut self.host_pcus {
            p.snapshot_phase(label);
        }
        for p in &mut self.mem_pcus {
            p.snapshot_phase(label);
        }
        self.ctrl.snapshot_phase(label);
        self.pmu.snapshot_phase(label);
    }

    /// Spec-driven one-call entry: builds a machine per `cfg`, assigns
    /// `trace` to all of its cores, and runs to completion (or
    /// `max_cycles`). This is the whole lifecycle of one experiment
    /// cell, packaged so batch runners (`pei-bench`'s `runner` module)
    /// can ship it to a worker thread as a single pure function of its
    /// arguments.
    ///
    /// # Examples
    ///
    /// ```
    /// use pei_system::{MachineConfig, System};
    /// use pei_core::DispatchPolicy;
    /// use pei_cpu::trace::{Op, VecPhases};
    /// use pei_mem::BackingStore;
    ///
    /// let mut store = BackingStore::new();
    /// let a = store.alloc_block();
    /// let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    /// let r = System::run_workload(
    ///     cfg,
    ///     store,
    ///     Box::new(VecPhases::single(vec![Op::load(a)])),
    ///     1_000_000,
    /// );
    /// assert_eq!(r.instructions, 1);
    /// ```
    pub fn run_workload(
        cfg: MachineConfig,
        store: BackingStore,
        trace: Box<dyn PhasedTrace>,
        max_cycles: Cycle,
    ) -> RunResult {
        let mut sys = System::new(cfg, store);
        sys.add_workload(trace, (0..cfg.cores).collect());
        sys.run(max_cycles)
    }

    /// Assigns a workload to a set of cores (threads map to `cores` in
    /// order). Multiple groups may coexist (multiprogramming, §7.3); each
    /// group synchronizes its phases independently.
    ///
    /// # Panics
    ///
    /// Panics if the trace has more threads than `cores`, or any core is
    /// already assigned.
    pub fn add_workload(&mut self, trace: Box<dyn PhasedTrace>, cores: Vec<usize>) {
        assert!(
            trace.threads() <= cores.len(),
            "workload {} needs {} cores, got {}",
            trace.name(),
            trace.threads(),
            cores.len()
        );
        for &c in &cores {
            assert!(self.core_group[c].is_none(), "core {c} already assigned");
            self.core_group[c] = Some(self.groups.len());
        }
        let n = cores.len();
        self.groups.push(Group {
            trace,
            cores,
            drained: vec![false; n],
            drained_count: 0,
            done: false,
            instructions_at_done: 0,
            phases: 0,
        });
    }

    fn port_priv(&self, core: usize) -> usize {
        core
    }
    fn port_l3(&self, bank: usize) -> usize {
        self.cfg.cores + bank
    }
    fn port_pmu(&self) -> usize {
        self.cfg.cores + self.cfg.mem.l3_banks
    }
    pub(crate) fn bank_of(&self, block: BlockAddr) -> usize {
        (block.0 as usize) & (self.cfg.mem.l3_banks - 1)
    }

    fn pull_phase(&mut self, g: usize, now: Cycle) {
        let group = &mut self.groups[g];
        match group.trace.next_phase() {
            Some(phase) => {
                group.phases += 1;
                group.drained.iter_mut().for_each(|d| *d = false);
                group.drained_count = 0;
                let assignments: Vec<(usize, Vec<pei_cpu::trace::Op>)> = phase
                    .into_iter()
                    .enumerate()
                    .map(|(t, ops)| (group.cores[t], ops))
                    .collect();
                // Threads beyond the phase's vector count are immediately
                // drained; mark them.
                let active: pei_engine::FastSet<usize> =
                    assignments.iter().map(|(c, _)| *c).collect();
                let spare: Vec<usize> = group
                    .cores
                    .iter()
                    .copied()
                    .filter(|c| !active.contains(c))
                    .collect();
                for c in spare {
                    let idx = self.groups[g].cores.iter().position(|&x| x == c).unwrap();
                    self.groups[g].drained[idx] = true;
                    self.groups[g].drained_count += 1;
                }
                for (c, ops) in assignments {
                    self.cores[c].push_ops(ops);
                    self.queue.schedule(now, Ev::CoreTick(c));
                }
                // Group 0 finishing its first phase marks the warmup /
                // steady-state boundary of the whole run.
                if g == 0 && self.groups[g].phases == 2 {
                    self.mark_phase("warmup");
                }
                if self.tracer.is_some() {
                    let phase_no = self.groups[g].phases;
                    self.trace_mark(now, true, g, phase_no);
                }
                // A phase where every thread is empty completes instantly;
                // the per-core Drained path handles it because empty cores
                // report Drained on their scheduled tick.
            }
            None => {
                let group = &mut self.groups[g];
                group.done = true;
                group.instructions_at_done = group
                    .cores
                    .iter()
                    .map(|&c| self.cores[c].instructions())
                    .sum();
                self.finish_time = self.finish_time.max(now);
                if self.tracer.is_some() {
                    self.trace_mark(now, false, g, 0);
                }
            }
        }
    }

    fn all_done(&self) -> bool {
        self.groups.iter().all(|g| g.done)
    }

    /// Runs until every workload group completes, the cycle limit
    /// elapses, or forward progress is lost.
    ///
    /// This never panics on a sick machine: deadlock (the event queue
    /// empties while work remains) and cycle-limit overrun end the run
    /// with a [`RunOutcome::Stalled`] / [`RunOutcome::CycleLimit`]
    /// outcome carrying a structured [`FailureReport`] — diagnosis
    /// text, per-component queue occupancies, and the last captured
    /// events — so batch runners can record the failure and keep their
    /// sibling jobs running.
    ///
    /// # Panics
    ///
    /// Panics only on harness misuse (no workload assigned).
    pub fn run(&mut self, max_cycles: Cycle) -> RunResult {
        match self.run_paused(max_cycles, None) {
            RunStatus::Completed(r) => r,
            RunStatus::Paused { .. } => {
                unreachable!("run_paused without a pause spec never pauses")
            }
        }
    }

    /// [`run`](System::run), but optionally stopping at a deterministic
    /// cut point with all machine state intact — the slicing that
    /// [`run_cancellable`](System::run_cancellable) is built on.
    /// `Some(t)` dispatches every event strictly before cycle `t`, then
    /// pauses (events *at* `t` stay queued).
    ///
    /// Returns [`RunStatus::Paused`] only when the pause point was
    /// reached with work still outstanding; a run that completes (or
    /// fails) first returns [`RunStatus::Completed`]. Calling this again
    /// (or [`run`](System::run)) on a paused machine resumes it;
    /// resuming with `None` runs to completion.
    pub fn run_paused(&mut self, max_cycles: Cycle, pause_at: Option<Cycle>) -> RunStatus {
        assert!(!self.groups.is_empty(), "no workload assigned");
        for g in 0..self.groups.len() {
            // On a fresh machine this seeds phase 1; on a paused one the
            // groups already progressed.
            if self.groups[g].phases == 0 && !self.groups[g].done {
                self.pull_phase(g, 0);
            }
        }
        let mut last = 0;
        loop {
            let popped = match pause_at {
                Some(t) => self.queue.pop_before(t),
                None => self.queue.pop(),
            };
            let Some((now, ev)) = popped else { break };
            if now > max_cycles {
                return RunStatus::Completed(self.fail(FailureKind::CycleLimit, now));
            }
            last = now;
            let ev = if self.faults.is_some() {
                match self.apply_event_faults(now, ev) {
                    Some(ev) => ev,
                    None => continue, // dropped or delayed by a fault
                }
            } else {
                ev
            };
            self.dispatch(now, ev);
            self.dispatched += 1;
            if let Some(checks) = &self.checks {
                if now >= checks.next_sweep {
                    self.sweep(now);
                }
            }
            if !self.violations.is_empty() {
                return RunStatus::Completed(self.fail(FailureKind::CheckFailed, now));
            }
            if self.all_done() {
                break;
            }
        }
        if !self.all_done() && !self.queue.is_empty() {
            // Only a pause bound stops the loop with events still queued.
            let at = pause_at.expect("pop() returns None only on an empty queue");
            return RunStatus::Paused { at };
        }
        if !self.all_done() {
            return RunStatus::Completed(self.fail(FailureKind::Stalled, last));
        }
        RunStatus::Completed(self.result(RunOutcome::Completed))
    }

    /// [`run`](System::run), but cooperatively cancellable: the run is
    /// sliced into [`run_paused`](System::run_paused) windows of `slice`
    /// cycles, and the cancel flag is checked between slices — the entry
    /// point for long-lived hosts (`pei-serve`) that must abandon an
    /// in-flight job without killing the process.
    ///
    /// `progress` is called with the cycle bound reached after each
    /// slice that paused (a completed run may finish without any call).
    /// Returns `None` if the flag was observed set; the machine is then
    /// mid-run but quiescent (paused at a slice boundary) and should be
    /// discarded. A slice bound only changes *where* the loop pauses,
    /// never the event order inside it, so the final [`RunResult`] is
    /// identical to an unsliced [`run`](System::run) — pinned by test
    /// and relied on by the daemon's byte-identity contract.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is zero, plus the harness-misuse panics of
    /// [`run_paused`](System::run_paused).
    pub fn run_cancellable(
        &mut self,
        max_cycles: Cycle,
        slice: Cycle,
        cancel: &std::sync::atomic::AtomicBool,
        mut progress: impl FnMut(Cycle),
    ) -> Option<RunResult> {
        use std::sync::atomic::Ordering;
        assert!(slice > 0, "slice must be at least one cycle");
        let mut at = slice;
        loop {
            if cancel.load(Ordering::Relaxed) {
                return None;
            }
            match self.run_paused(max_cycles, Some(at)) {
                RunStatus::Completed(r) => return Some(r),
                RunStatus::Paused { at: reached } => {
                    progress(reached);
                    at = reached.saturating_add(slice);
                }
            }
        }
    }

    /// Runs one sweep of the invariant auditors. Out-of-line and only
    /// reached in checked mode; the `CheckState` is taken and put back
    /// (the outbox pattern) so it can borrow the rest of the machine
    /// immutably.
    #[cold]
    fn sweep(&mut self, now: Cycle) {
        let mut checks = self.checks.take().expect("sweep requires checked mode");
        let mut found = std::mem::take(&mut self.violations);
        checks.sweep(self, now, &mut found);
        checks.next_sweep = now + checks.cfg.interval;
        self.violations = found;
        self.checks = Some(checks);
    }

    /// Applies any armed event-triggered faults to the event just
    /// popped. Returns `None` when the fault consumed the event (drop
    /// or delay); the caller skips dispatch. Disarms itself once every
    /// trigger has fired.
    #[cold]
    fn apply_event_faults(&mut self, now: Cycle, ev: Ev) -> Option<Ev> {
        let n = self.dispatched;
        let mut f = self.faults.take().expect("no faults armed");
        let mut out = Some(ev);
        if f.corrupt_at.is_some_and(|at| n >= at) && self.try_corrupt_line() {
            f.corrupt_at = None;
        }
        if f.rogue_at.is_some_and(|at| n >= at) {
            // Behind the router's back: the crossbar switches a message
            // `xsend` never injected.
            self.xbar.send(0, now, XbarPayload::Control);
            f.rogue_at = None;
        }
        if f.drop_at.is_some_and(|at| n >= at) {
            f.drop_at = None;
            out = None; // the event vanishes; conservation now fails by one
        } else if f.delay_at.is_some_and(|(at, _)| n >= at) {
            let (_, delay) = f.delay_at.take().expect("checked above");
            let ev = out.take().expect("delay consumes the event");
            self.queue.schedule(now + delay, ev);
            // The pop is accounted as dispatched; the reschedule re-adds
            // it to `total_scheduled`, so conservation still balances —
            // a delay perturbs timing without violating any invariant.
            self.dispatched += 1;
        }
        if f.any_armed() {
            self.faults = Some(f);
        }
        out
    }

    /// Corrupts coherence state for the `CorruptLine` fault: flips one
    /// copy of a multiply-held block writable (a single-writer
    /// violation), falling back to orphaning the L3 copy under a
    /// private line (an inclusivity violation). Deterministic: scans in
    /// block order. Returns false if no line is corruptible yet.
    fn try_corrupt_line(&mut self) -> bool {
        let mut holders: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        for (i, p) in self.privs.iter().enumerate() {
            for (b, _) in p.lines() {
                holders.entry(b.0).or_default().push(i);
            }
        }
        for (&b, who) in holders.iter() {
            if who.len() >= 2 && self.privs[who[0]].fault_corrupt_line(BlockAddr(b)) {
                return true;
            }
        }
        for &b in holders.keys() {
            let block = BlockAddr(b);
            let bank = self.bank_of(block);
            if self.l3banks[bank].fault_orphan_line(block) {
                return true;
            }
        }
        false
    }

    /// Ends a run that did not complete: assembles the structured
    /// [`FailureReport`] (diagnosis, occupancies, violations, recent
    /// events) and returns the partial result carrying it.
    #[cold]
    fn fail(&mut self, kind: FailureKind, now: Cycle) -> RunResult {
        let report = Box::new(FailureReport {
            kind,
            cycle: now,
            diagnosis: self.diagnose(),
            violations: std::mem::take(&mut self.violations),
            occupancies: self.occupancies(),
            recent_events: self
                .tracer
                .as_ref()
                .and_then(|t| t.sink.to_petr())
                .and_then(|bytes| pei_trace::Trace::from_bytes(&bytes).ok()),
        });
        self.finish_time = self.finish_time.max(now);
        let outcome = match kind {
            FailureKind::Stalled => RunOutcome::Stalled { report },
            FailureKind::CycleLimit => RunOutcome::CycleLimit { report },
            FailureKind::CheckFailed => RunOutcome::CheckFailed { report },
        };
        self.result(outcome)
    }

    /// Nonzero queue/buffer occupancies per component, deepest
    /// component first — upstream components wait on downstream ones,
    /// so the first entry is the watchdog's best guess at the culprit
    /// (`FailureReport::culprit`).
    fn occupancies(&self) -> Vec<(String, u64)> {
        let mut v = Vec::new();
        for (i, vault) in self.vaults.iter().enumerate() {
            if vault.backlog() > 0 {
                v.push((format!("vault{i}.backlog"), vault.backlog() as u64));
            }
        }
        for (i, pcu) in self.mem_pcus.iter().enumerate() {
            if pcu.backlog() > 0 {
                v.push((format!("mpcu{i}.backlog"), pcu.backlog() as u64));
            }
        }
        if self.ctrl.pending_reads() > 0 {
            v.push(("link.pending_reads".to_string(), self.ctrl.pending_reads()));
        }
        for (b, bank) in self.l3banks.iter().enumerate() {
            if bank.inflight() > 0 {
                v.push((format!("l3bank{b}.txns"), bank.inflight() as u64));
            }
        }
        for (i, p) in self.privs.iter().enumerate() {
            if p.inflight_misses() > 0 {
                v.push((format!("cache{i}.mshr"), p.inflight_misses() as u64));
            }
        }
        if self.pmu.in_flight() > 0 {
            v.push(("pmu.in_flight".to_string(), self.pmu.in_flight() as u64));
        }
        for (i, c) in self.cores.iter().enumerate() {
            if !c.drained() {
                v.push((format!("core{i}.undrained"), 1));
            }
        }
        if !self.queue.is_empty() {
            v.push(("queue.pending".to_string(), self.queue.len() as u64));
        }
        v
    }

    fn diagnose(&self) -> String {
        let mut s = String::new();
        for (i, c) in self.cores.iter().enumerate() {
            if !c.drained() {
                s.push_str(&format!("core{i} not drained; "));
            }
        }
        for (i, p) in self.privs.iter().enumerate() {
            if p.inflight_misses() > 0 {
                s.push_str(&format!("priv{i} has {} misses; ", p.inflight_misses()));
            }
        }
        for (b, bank) in self.l3banks.iter().enumerate() {
            if !bank.is_quiescent() {
                s.push_str(&format!("l3 bank{b} has in-flight state; "));
            }
        }
        for (v, vault) in self.vaults.iter().enumerate() {
            if vault.backlog() > 0 {
                s.push_str(&format!(
                    "vault{v} has {} queued accesses; ",
                    vault.backlog()
                ));
            }
        }
        for (v, pcu) in self.mem_pcus.iter().enumerate() {
            if pcu.backlog() > 0 {
                s.push_str(&format!("mem-pcu{v} has {} commands; ", pcu.backlog()));
            }
        }
        if self.ctrl.pending_reads() > 0 {
            s.push_str(&format!(
                "link controller has {} reads in flight; ",
                self.ctrl.pending_reads()
            ));
        }
        if self.pmu.in_flight() > 0 {
            s.push_str(&format!("pmu has {} PEIs; ", self.pmu.in_flight()));
        }
        s
    }

    /// Captures one dispatched event. Out-of-line and only reached with
    /// a tracer attached, so the untraced loop pays nothing beyond the
    /// `is_some()` branch in [`dispatch`](Self::dispatch).
    #[cold]
    fn trace_ev(&mut self, now: Cycle, ev: &Ev) {
        let t = self.tracer.as_ref().expect("trace_ev requires a tracer");
        let (comp, kind, payload) = match ev {
            Ev::CoreTick(i) => (t.core[*i], t.k.core_tick, 0),
            Ev::CoreMemDone(i, id) => (t.core[*i], t.k.core_mem_done, id.0),
            Ev::CorePeiDone(i, seq) => (t.core[*i], t.k.core_pei_done, *seq),
            Ev::CorePeiCredit(i) => (t.core[*i], t.k.core_pei_credit, 0),
            Ev::CorePfenceDone(i) => (t.core[*i], t.k.core_pfence_done, 0),
            Ev::PrivCoreReq(i, req) => (t.cache[*i], t.k.priv_req, req.addr.0),
            Ev::PrivL3Resp(i, resp) => (t.cache[*i], t.k.priv_resp, resp.id.0),
            Ev::PrivRecall(i, recall) => (t.cache[*i], t.k.priv_recall, recall.block.0),
            Ev::L3(b, input) => {
                let (kind, payload) = match input {
                    L3In::Req(req) => (t.k.l3_req, req.block.0),
                    L3In::Ack(ack) => (t.k.l3_ack, ack.block.0),
                    L3In::Flush(flush) => (t.k.l3_flush, flush.block.0),
                    L3In::FetchDone(done) => (t.k.l3_fetch_done, done.block.0),
                };
                (t.l3[*b], kind, payload)
            }
            Ev::CtrlHostRead(_, block) => (t.ctrl, t.k.ctrl_read, block.0),
            Ev::CtrlHostWrite(block) => (t.ctrl, t.k.ctrl_write, block.0),
            Ev::CtrlHostPim(cmd) => (t.ctrl, t.k.ctrl_pim, cmd.target.0),
            Ev::CtrlMemReadDone(_, block, _) => (t.ctrl, t.k.ctrl_read_done, block.0),
            Ev::CtrlMemPimDone(_, out) => (t.ctrl, t.k.ctrl_pim_done, out.block.0),
            Ev::VaultAcc(v, acc) => (t.vault[*v], t.k.vault_access, acc.block.0),
            Ev::VaultWake(v) => (t.vault[*v], t.k.vault_wake, 0),
            Ev::MemPcuCmd(v, cmd) => (t.mpcu[*v], t.k.mpcu_cmd, cmd.target.0),
            Ev::MemPcuVaultDone(v, id, _) => (t.mpcu[*v], t.k.mpcu_vault_done, id.0),
            Ev::Pmu(input) => {
                let (kind, payload) = match input.as_ref() {
                    PmuIn::Request { id, .. } => (t.k.pmu_request, id.0),
                    PmuIn::HostRelease { id } => (t.k.pmu_host_release, id.0),
                    PmuIn::FlushDone { id } => (t.k.pmu_flush_done, id.0),
                    PmuIn::MemResult { out } => (t.k.pmu_mem_result, out.id.0),
                    PmuIn::Pfence { core } => (t.k.pmu_pfence, core.0 as u64),
                };
                (t.pmu, kind, payload)
            }
            Ev::HostPcuDecision(c, id) => (t.hpcu[*c], t.k.hpcu_decide_host, id.0),
            Ev::HostPcuDispatchedMem(c, id) => (t.hpcu[*c], t.k.hpcu_dispatched_mem, id.0),
            Ev::HostPcuL1Resp(c, id) => (t.hpcu[*c], t.k.hpcu_l1_resp, id.0),
            Ev::HostPcuMemResult(c, id, _) => (t.hpcu[*c], t.k.hpcu_mem_result, id.0),
        };
        self.emit_record(now, comp, kind, payload);
    }

    /// Delivers one trace record to the attached sink.
    #[cold]
    fn emit_record(
        &mut self,
        cycle: Cycle,
        comp: pei_trace::CompId,
        kind: pei_trace::KindId,
        payload: u64,
    ) {
        let t = self.tracer.as_mut().expect("record requires a tracer");
        t.sink.record(cycle, comp, kind, payload);
    }

    /// Records a phase boundary (`start`) or group completion; payload
    /// packs the group index in the high half and the phase ordinal in
    /// the low half.
    #[cold]
    fn trace_mark(&mut self, now: Cycle, start: bool, g: usize, phase_no: u64) {
        let t = self.tracer.as_ref().expect("trace_mark requires a tracer");
        let kind = if start {
            t.k.phase_start
        } else {
            t.k.group_done
        };
        let comp = t.system;
        let payload = ((g as u64) << 32) | (phase_no & 0xffff_ffff);
        self.emit_record(now, comp, kind, payload);
    }

    /// Sends over the crossbar, capturing the message when tracing; the
    /// payload packs the source port in the high half and the delivery
    /// latency in the low half.
    fn xsend(&mut self, port: usize, at: Cycle, payload: XbarPayload) -> Cycle {
        self.xsends += 1;
        let delivered = self.xbar.send(port, at, payload);
        if self.tracer.is_some() {
            let t = self.tracer.as_ref().expect("checked is_some");
            let (comp, kind) = (t.xbar, t.k.xbar_msg);
            let packed = ((port as u64) << 32) | ((delivered - at) & 0xffff_ffff);
            self.emit_record(at, comp, kind, packed);
        }
        delivered
    }

    fn dispatch(&mut self, now: Cycle, ev: Ev) {
        if self.tracer.is_some() {
            self.trace_ev(now, &ev);
        }
        match ev {
            Ev::CoreTick(i) => self.core_tick(i, now),
            Ev::CoreMemDone(i, id) => {
                if self.cores[i].on_event(CoreEvent::MemDone(id)) {
                    self.queue.schedule(now, Ev::CoreTick(i));
                }
            }
            Ev::CorePeiDone(i, seq) => {
                if self.cores[i].on_event(CoreEvent::PeiDone(seq)) {
                    self.queue.schedule(now, Ev::CoreTick(i));
                }
            }
            Ev::CorePeiCredit(i) => {
                if self.cores[i].on_event(CoreEvent::PeiCredit) {
                    self.queue.schedule(now, Ev::CoreTick(i));
                }
            }
            Ev::CorePfenceDone(i) => {
                if self.cores[i].on_event(CoreEvent::PfenceDone) {
                    self.queue.schedule(now, Ev::CoreTick(i));
                }
            }
            Ev::PrivCoreReq(i, req) => {
                let mut outs = std::mem::take(&mut self.ob_priv);
                self.privs[i].handle_core_req(now, req, &mut outs);
                self.route_priv(i, &mut outs);
                self.ob_priv = outs;
            }
            Ev::PrivL3Resp(i, resp) => {
                let mut outs = std::mem::take(&mut self.ob_priv);
                self.privs[i].handle_l3_resp(now, resp, &mut outs);
                self.route_priv(i, &mut outs);
                self.ob_priv = outs;
            }
            Ev::PrivRecall(i, recall) => {
                let mut outs = std::mem::take(&mut self.ob_priv);
                self.privs[i].handle_recall(now, recall, &mut outs);
                self.route_priv(i, &mut outs);
                self.ob_priv = outs;
            }
            Ev::L3(b, input) => {
                if let L3In::Req(req) = &input {
                    if req.kind.expects_response() {
                        self.pmu.on_l3_access(req.block);
                    }
                }
                let mut outs = std::mem::take(&mut self.ob_l3);
                self.l3banks[b].handle(now, input, &mut outs);
                self.route_l3(b, &mut outs);
                self.ob_l3 = outs;
            }
            Ev::CtrlHostRead(id, block) => self.ctrl_host(now, CtrlIn::Read { id, block }),
            Ev::CtrlHostWrite(block) => self.ctrl_host(now, CtrlIn::Write { block }),
            Ev::CtrlHostPim(cmd) => self.ctrl_host(now, CtrlIn::Pim { cmd: *cmd }),
            Ev::CtrlMemReadDone(id, block, cube) => {
                self.ctrl_mem(now, MemSideIn::ReadDone { id, block, cube });
            }
            Ev::CtrlMemPimDone(cube, out) => {
                self.ctrl_mem(now, MemSideIn::PimDone { out: *out, cube });
            }
            Ev::VaultAcc(v, acc) => {
                let mut outs = std::mem::take(&mut self.ob_vault);
                self.vaults[v].handle_access(now, acc, &mut outs);
                self.route_vault(v, &mut outs);
                self.ob_vault = outs;
            }
            Ev::VaultWake(v) => {
                let mut outs = std::mem::take(&mut self.ob_vault);
                self.vaults[v].wake(now, &mut outs);
                self.route_vault(v, &mut outs);
                self.ob_vault = outs;
            }
            Ev::MemPcuCmd(v, cmd) => {
                let mut outs = std::mem::take(&mut self.ob_mpcu);
                self.mem_pcus[v].on_cmd(now, *cmd, &mut outs);
                self.route_mem_pcu(v, &mut outs);
                self.ob_mpcu = outs;
            }
            Ev::MemPcuVaultDone(v, id, write) => {
                let mut outs = std::mem::take(&mut self.ob_mpcu);
                self.mem_pcus[v].on_vault_done(now, id, write, &mut self.store, &mut outs);
                self.route_mem_pcu(v, &mut outs);
                self.ob_mpcu = outs;
            }
            Ev::Pmu(input) => {
                let balance = self.ctrl.balance(now);
                let mut outs = std::mem::take(&mut self.ob_pmu);
                self.pmu.handle(now, *input, balance, &mut outs);
                self.route_pmu(&mut outs);
                self.ob_pmu = outs;
            }
            Ev::HostPcuDecision(c, id) => {
                let mut outs = std::mem::take(&mut self.ob_hpcu);
                self.host_pcus[c].on_decision_host(now, id, &mut outs);
                self.route_host_pcu(c, &mut outs);
                self.ob_hpcu = outs;
            }
            Ev::HostPcuDispatchedMem(c, id) => {
                let mut outs = std::mem::take(&mut self.ob_hpcu);
                self.host_pcus[c].on_dispatched_mem(now, id, &mut outs);
                self.route_host_pcu(c, &mut outs);
                self.ob_hpcu = outs;
            }
            Ev::HostPcuL1Resp(c, id) => {
                let mut outs = std::mem::take(&mut self.ob_hpcu);
                self.host_pcus[c].on_l1_resp(now, id, &mut self.store, &mut outs);
                self.route_host_pcu(c, &mut outs);
                self.ob_hpcu = outs;
            }
            Ev::HostPcuMemResult(c, id, output) => {
                let mut outs = std::mem::take(&mut self.ob_hpcu);
                self.host_pcus[c].on_mem_result(now, id, *output, &mut outs);
                self.route_host_pcu(c, &mut outs);
                self.ob_hpcu = outs;
            }
        }
    }

    fn ctrl_host(&mut self, now: Cycle, input: CtrlIn) {
        let mut outs = std::mem::take(&mut self.ob_ctrl);
        self.ctrl.handle_host(now, input, &mut outs);
        self.route_ctrl(&mut outs);
        self.ob_ctrl = outs;
    }

    fn ctrl_mem(&mut self, now: Cycle, input: MemSideIn) {
        let mut outs = std::mem::take(&mut self.ob_ctrl);
        self.ctrl.handle_mem_side(now, input, &mut outs);
        self.route_ctrl(&mut outs);
        self.ob_ctrl = outs;
    }

    fn core_tick(&mut self, i: usize, now: Cycle) {
        let mut core_outs = std::mem::take(&mut self.ob_core);
        let outcome = self.cores[i].tick(now, &mut core_outs);
        for out in core_outs.drain() {
            match out {
                CoreOut::Mem { id, addr, write } => {
                    self.queue
                        .schedule(now + 1, Ev::PrivCoreReq(i, CoreReq { id, addr, write }));
                }
                CoreOut::Pei {
                    seq,
                    op,
                    target,
                    input,
                } => {
                    let mut outs = std::mem::take(&mut self.ob_hpcu);
                    self.host_pcus[i].begin(now, seq, op, target, input, &mut outs);
                    self.route_host_pcu(i, &mut outs);
                    self.ob_hpcu = outs;
                }
                CoreOut::PfenceReq => {
                    let at = self.xsend(self.port_priv(i), now, XbarPayload::Control);
                    self.sched_pmu(
                        at,
                        PmuIn::Pfence {
                            core: CoreId(i as u16),
                        },
                    );
                }
            }
        }
        self.ob_core = core_outs;
        match outcome.status {
            CoreStatus::Running => {
                let next = outcome.next.expect("running core has a next tick");
                self.queue.schedule(next, Ev::CoreTick(i));
            }
            CoreStatus::Blocked => {}
            CoreStatus::Drained => {
                if let Some(g) = self.core_group[i] {
                    let idx = self.groups[g].cores.iter().position(|&c| c == i).unwrap();
                    if !self.groups[g].done && !self.groups[g].drained[idx] {
                        self.groups[g].drained[idx] = true;
                        self.groups[g].drained_count += 1;
                        if self.groups[g].drained_count == self.groups[g].cores.len() {
                            self.pull_phase(g, now);
                        }
                    }
                }
            }
        }
    }

    fn route_priv(&mut self, i: usize, outs: &mut Outbox<PrivOut>) {
        for out in outs.drain() {
            match out {
                PrivOut::CoreResp { id, at } => match id.namespace() {
                    ns::CORE => self.queue.schedule(at, Ev::CoreMemDone(i, id)),
                    ns::HOST_PCU => self.queue.schedule(at, Ev::HostPcuL1Resp(i, id)),
                    other => {
                        // Protocol corruption: a response id no consumer
                        // claims. Flag it through the failure-report path
                        // (run ends with `CheckFailed` naming this cache)
                        // instead of tearing the process down.
                        self.flag_violation(Violation {
                            checker: "router",
                            component: format!("cache{i}"),
                            detail: format!(
                                "response id {:#x} carries unroutable namespace {other} at cycle {at}",
                                id.0
                            ),
                        });
                    }
                },
                PrivOut::ToL3 { req, at } => {
                    let payload = if req.kind == pei_mem::L3ReqKind::PutM {
                        XbarPayload::Data
                    } else {
                        XbarPayload::Control
                    };
                    let delivered = self.xsend(self.port_priv(i), at, payload);
                    let bank = self.bank_of(req.block);
                    self.queue.schedule(delivered, Ev::L3(bank, L3In::Req(req)));
                }
                PrivOut::Ack { ack, at } => {
                    let payload = if ack.dirty {
                        XbarPayload::Data
                    } else {
                        XbarPayload::Control
                    };
                    let delivered = self.xsend(self.port_priv(i), at, payload);
                    let bank = self.bank_of(ack.block);
                    self.queue.schedule(delivered, Ev::L3(bank, L3In::Ack(ack)));
                }
            }
        }
    }

    fn route_l3(&mut self, b: usize, outs: &mut Outbox<L3Out>) {
        for out in outs.drain() {
            match out {
                L3Out::Resp { resp, at } => {
                    let delivered = self.xsend(self.port_l3(b), at, XbarPayload::Data);
                    self.queue
                        .schedule(delivered, Ev::PrivL3Resp(resp.core.index(), resp));
                }
                L3Out::Recall { recall, at } => {
                    let delivered = self.xsend(self.port_l3(b), at, XbarPayload::Control);
                    self.queue
                        .schedule(delivered, Ev::PrivRecall(recall.core.index(), recall));
                }
                L3Out::Fetch { fetch, at } => {
                    let ev = if fetch.write {
                        Ev::CtrlHostWrite(fetch.block)
                    } else {
                        Ev::CtrlHostRead(fetch.id, fetch.block)
                    };
                    self.queue.schedule(at + self.cfg.ctrl_latency, ev);
                }
                L3Out::FlushDone { done, at } => {
                    self.sched_pmu(at, PmuIn::FlushDone { id: done.id });
                }
            }
        }
    }

    /// Schedules a PMU event.
    #[inline]
    fn sched_pmu(&mut self, at: Cycle, input: PmuIn) {
        self.queue.schedule(at, Ev::Pmu(Box::new(input)));
    }

    fn route_ctrl(&mut self, outs: &mut Outbox<CtrlOut>) {
        let vpc = self.cfg.hmc.vaults_per_cube;
        for out in outs.drain() {
            match out {
                CtrlOut::ToVault { loc, access, at } => {
                    self.queue
                        .schedule(at, Ev::VaultAcc(loc.flat_index(vpc), access));
                }
                CtrlOut::PimToVault { loc, cmd, at } => {
                    self.queue
                        .schedule(at, Ev::MemPcuCmd(loc.flat_index(vpc), Box::new(cmd)));
                }
                CtrlOut::ReadResp { id, block, at } => {
                    let bank = self.bank_of(block);
                    self.queue.schedule(
                        at + self.cfg.ctrl_latency,
                        Ev::L3(
                            bank,
                            L3In::FetchDone(pei_mem::msg::MemFetchDone { id, block }),
                        ),
                    );
                }
                CtrlOut::PimResp { out, at } => {
                    self.sched_pmu(at + self.cfg.ctrl_latency, PmuIn::MemResult { out });
                }
            }
        }
    }

    fn route_vault(&mut self, v: usize, outs: &mut Outbox<VaultOut>) {
        let vpc = self.cfg.hmc.vaults_per_cube;
        for out in outs.drain() {
            match out {
                VaultOut::Done {
                    id,
                    block,
                    write,
                    at,
                } => match id.namespace() {
                    ns::L3 if !write => {
                        self.queue
                            .schedule(at, Ev::CtrlMemReadDone(id, block, (v / vpc) as u16));
                    }
                    // Writebacks complete silently.
                    ns::MEM_PCU => {
                        self.queue.schedule(at, Ev::MemPcuVaultDone(v, id, write));
                    }
                    _ => {} // writeback with a null id: no response
                },
                VaultOut::Wake { at } => self.queue.schedule(at, Ev::VaultWake(v)),
            }
        }
    }

    fn route_mem_pcu(&mut self, v: usize, outs: &mut Outbox<MemPcuOut>) {
        let vpc = self.cfg.hmc.vaults_per_cube;
        for out in outs.drain() {
            match out {
                MemPcuOut::VaultAccess {
                    id,
                    block,
                    write,
                    at,
                } => {
                    self.queue
                        .schedule(at, Ev::VaultAcc(v, VaultIn { id, block, write }));
                }
                MemPcuOut::Complete { resp, at } => {
                    self.queue
                        .schedule(at, Ev::CtrlMemPimDone((v / vpc) as u16, Box::new(resp)));
                }
            }
        }
    }

    fn route_pmu(&mut self, outs: &mut Outbox<PmuOut>) {
        for out in outs.drain() {
            match out {
                PmuOut::DecideHost { id, core, at } => {
                    let delivered = self.xsend(self.port_pmu(), at, XbarPayload::Control);
                    let _ = delivered;
                    self.queue
                        .schedule(delivered, Ev::HostPcuDecision(core.index(), id));
                }
                PmuOut::Flush { flush, at } => {
                    let bank = self.bank_of(flush.block);
                    self.queue.schedule(at, Ev::L3(bank, L3In::Flush(flush)));
                }
                PmuOut::Launch { cmd, at } => {
                    self.queue
                        .schedule(at + self.cfg.ctrl_latency, Ev::CtrlHostPim(Box::new(cmd)));
                }
                PmuOut::MemResultToPcu {
                    id,
                    core,
                    output,
                    at,
                } => {
                    let delivered = self.xsend(
                        self.port_pmu(),
                        at,
                        XbarPayload::Operands(output.byte_len() as u16),
                    );
                    self.queue.schedule(
                        delivered,
                        Ev::HostPcuMemResult(core.index(), id, Box::new(output)),
                    );
                }
                PmuOut::PfenceDone { core, at } => {
                    let delivered = self.xsend(self.port_pmu(), at, XbarPayload::Control);
                    self.queue
                        .schedule(delivered, Ev::CorePfenceDone(core.index()));
                }
                PmuOut::DispatchedMem { id, core, at } => {
                    let delivered = self.xsend(self.port_pmu(), at, XbarPayload::Control);
                    self.queue
                        .schedule(delivered, Ev::HostPcuDispatchedMem(core.index(), id));
                }
            }
        }
    }

    fn route_host_pcu(&mut self, c: usize, outs: &mut Outbox<HostPcuOut>) {
        for out in outs.drain() {
            match out {
                HostPcuOut::ToPmu {
                    id,
                    op,
                    target,
                    input,
                    at,
                } => {
                    let delivered = self.xsend(
                        self.port_priv(c),
                        at,
                        XbarPayload::Operands(input.byte_len() as u16),
                    );
                    self.sched_pmu(
                        delivered,
                        PmuIn::Request {
                            id,
                            core: CoreId(c as u16),
                            op,
                            target,
                            input,
                        },
                    );
                }
                HostPcuOut::L1Access { req, at } => {
                    self.queue.schedule(at, Ev::PrivCoreReq(c, req));
                }
                HostPcuOut::DoneToCore { seq, at, .. } => {
                    self.queue.schedule(at, Ev::CorePeiDone(c, seq));
                }
                HostPcuOut::CreditToCore { at, .. } => {
                    self.queue.schedule(at, Ev::CorePeiCredit(c));
                }
                HostPcuOut::ReleaseToPmu { id, at } => {
                    let delivered = self.xsend(self.port_priv(c), at, XbarPayload::Control);
                    self.sched_pmu(delivered, PmuIn::HostRelease { id });
                }
            }
        }
    }

    /// Read access to the simulated memory (for result validation).
    pub fn store(&self) -> &BackingStore {
        &self.store
    }

    /// Records a violation observed by the routing layer itself (as
    /// opposed to a sweep); the run loop ends the run at the next
    /// event boundary.
    #[cold]
    fn flag_violation(&mut self, v: Violation) {
        self.violations.push(v);
    }

    fn result(&mut self, outcome: RunOutcome) -> RunResult {
        let mut stats = StatsReport::new();
        for c in &self.cores {
            c.report("core.", &mut stats);
        }
        for p in &self.privs {
            p.report("cache.", &mut stats);
        }
        for b in &self.l3banks {
            b.report("l3.", &mut stats);
        }
        for v in &self.vaults {
            v.report("dram.", &mut stats);
        }
        for p in &self.host_pcus {
            p.report("hpcu.", &mut stats);
        }
        for p in &self.mem_pcus {
            p.report("mpcu.", &mut stats);
        }
        self.ctrl.report("link.", &mut stats);
        self.pmu.report("pmu.", &mut stats);
        stats.add("xbar.messages", self.xbar.messages() as f64);
        stats.add("xbar.bytes", self.xbar.bytes() as f64);

        let (host_d, mem_d) = self.pmu.dispatch_counts();
        let instructions = self.cores.iter().map(|c| c.instructions()).sum();
        let peis: u64 = self.cores.iter().map(|c| c.issued_peis()).sum();
        let (req_flits, res_flits) = self.ctrl.total_flits();
        let dram_accesses: u64 = self.vaults.iter().map(|v| v.accesses()).sum();

        let l3_accesses: u64 = self.l3banks.iter().map(|b| b.accesses()).sum();
        let inputs = EnergyInputs {
            l1_accesses: (stats.expect("cache.l1.hits") + stats.expect("cache.l1.misses")) as u64,
            l2_accesses: (stats.expect("cache.l2.hits") + stats.expect("cache.l2.misses")) as u64,
            l3_accesses,
            dram_activates: stats.expect("dram.activates") as u64,
            dram_rw: dram_accesses,
            link_bytes: self.ctrl.total_bytes(),
            tsv_bytes: stats.expect("dram.tsv_bytes") as u64,
            host_pcu_ops: host_d,
            mem_pcu_ops: mem_d,
            dir_accesses: 2 * (host_d + mem_d),
            mon_accesses: stats.get("pmu.mon.queries").unwrap_or(0.0) as u64 + l3_accesses,
            cycles: self.finish_time.max(1),
        };
        let energy = energy::compute(&EnergyModel::default(), &inputs);
        energy::report(&energy, &mut stats);

        let cycles = self.finish_time.max(1);
        stats.add("sim.cycles", cycles as f64);
        stats.add("sim.instructions", instructions as f64);
        stats.add("sim.events", self.queue.total_scheduled() as f64);

        RunResult {
            cycles,
            instructions,
            peis,
            pim_fraction: if host_d + mem_d > 0 {
                mem_d as f64 / (host_d + mem_d) as f64
            } else {
                0.0
            },
            offchip_bytes: self.ctrl.total_bytes(),
            offchip_flits: (req_flits, res_flits),
            dram_accesses,
            energy,
            stats,
            outcome,
        }
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("l3_banks", &self.l3banks.len())
            .field("vaults", &self.vaults.len())
            .field("policy", &self.cfg.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pei_core::DispatchPolicy;

    #[test]
    fn ev_stays_compact() {
        // The event queue holds millions of `Ev`s; the per-PEI payload
        // carriers are boxed so the plain memory path sets the size.
        // PrivL3Resp / L3 / VaultAcc bound it at 40 bytes — growing past
        // that means a fat payload leaked inline into a hot variant.
        assert!(
            std::mem::size_of::<Ev>() <= 40,
            "Ev grew to {} bytes; box the new payload instead",
            std::mem::size_of::<Ev>()
        );
    }

    #[test]
    fn diagnose_names_a_stuck_vault() {
        let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        let mut sys = System::new(cfg, BackingStore::new());
        // Two same-bank accesses in the same cycle: the first occupies the
        // bank, the second stays queued — a synthetic stall as seen at
        // deadlock time.
        let mut out = Outbox::new();
        for i in 0..2 {
            sys.vaults[0].handle_access(
                0,
                VaultIn {
                    id: ReqId(i),
                    block: BlockAddr(0),
                    write: false,
                },
                &mut out,
            );
        }
        let diag = sys.diagnose();
        assert!(
            diag.contains("vault0"),
            "diagnose must name the stuck vault: {diag}"
        );
        assert!(
            !diag.contains("vault1"),
            "idle vaults must stay out of the report: {diag}"
        );
    }

    fn tiny_workload(store: &mut BackingStore) -> Box<dyn PhasedTrace> {
        use pei_cpu::trace::{Op, VecPhases};
        let a = store.alloc_block();
        let b = store.alloc_block();
        Box::new(VecPhases::single(vec![
            Op::load(a),
            Op::store(b),
            Op::load(a),
        ]))
    }

    #[test]
    fn checked_clean_run_completes() {
        let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        let mut store = BackingStore::new();
        let trace = tiny_workload(&mut store);
        let mut sys = System::new(cfg, store);
        sys.add_workload(trace, vec![0]);
        sys.enable_checks(CheckConfig {
            interval: 64, // sweep aggressively; a healthy machine stays silent
            ..CheckConfig::default()
        });
        let r = sys.run(1_000_000);
        assert!(r.ok(), "clean checked run must complete: {:?}", r.outcome);
        assert_eq!(r.instructions, 3);
    }

    #[test]
    fn watchdog_reports_a_stall_instead_of_panicking() {
        let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        let mut store = BackingStore::new();
        let trace = tiny_workload(&mut store);
        let mut sys = System::new(cfg, store);
        sys.add_workload(trace, vec![0]);
        // Wedge every vault: the L3 fill never returns and the event
        // queue drains with the core still blocked.
        for v in &mut sys.vaults {
            v.fault_wedge();
        }
        let r = sys.run(1_000_000);
        let report = match &r.outcome {
            RunOutcome::Stalled { report } => report,
            other => panic!("expected a stall, got {other:?}"),
        };
        let culprit = report.culprit().expect("stall must name a culprit");
        assert!(
            culprit.starts_with("vault"),
            "deepest stuck component is the vault, got {culprit}: {}",
            report.summary()
        );
        assert!(
            report.diagnosis.contains("core0 not drained"),
            "diagnosis keeps the classic text: {}",
            report.diagnosis
        );
    }

    #[test]
    fn cycle_limit_reports_instead_of_panicking() {
        let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        let mut store = BackingStore::new();
        let trace = tiny_workload(&mut store);
        let mut sys = System::new(cfg, store);
        sys.add_workload(trace, vec![0]);
        let r = sys.run(2); // a DRAM round trip cannot fit in two cycles
        match &r.outcome {
            RunOutcome::CycleLimit { report } => {
                assert_eq!(report.kind, FailureKind::CycleLimit);
                assert!(!report.occupancies.is_empty(), "work was left in flight");
            }
            other => panic!("expected a cycle-limit outcome, got {other:?}"),
        }
    }

    #[test]
    fn unroutable_namespace_is_reported_not_fatal() {
        let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        let mut sys = System::new(cfg, BackingStore::new());
        let mut outs = Outbox::new();
        outs.push(PrivOut::CoreResp {
            id: ReqId::tagged(ns::PMU, 0, 9),
            at: 41,
        });
        sys.route_priv(2, &mut outs);
        assert_eq!(sys.violations.len(), 1);
        let v = &sys.violations[0];
        assert_eq!(v.checker, "router");
        assert_eq!(v.component, "cache2");
        assert!(
            v.detail.contains("namespace 4") && v.detail.contains("cycle 41"),
            "detail must carry the namespace and cycle: {}",
            v.detail
        );
    }

    #[test]
    fn failure_report_window_persists_via_stream_sink() {
        let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        let mut store = BackingStore::new();
        let trace = tiny_workload(&mut store);
        let mut sys = System::new(cfg, store);
        sys.add_workload(trace, vec![0]);
        sys.enable_checks(CheckConfig::default());
        for v in &mut sys.vaults {
            v.fault_wedge();
        }
        let r = sys.run(1_000_000);
        let report = r.outcome.report().expect("wedged run must fail");
        let events = report.recent_events.as_ref().expect("ring attached");
        assert!(!events.records.is_empty(), "window must capture events");
        let mut path = std::env::temp_dir();
        path.push(format!("pei_failwin_{}.petr", std::process::id()));
        let written = report.save_window(&path).unwrap();
        assert_eq!(written, events.records.len() as u64);
        let loaded = pei_trace::Trace::load(&path).unwrap();
        assert_eq!(loaded.records, events.records);
        assert_eq!(loaded.meta_get("failure.kind"), Some("stalled"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn diagnose_names_the_link_controller() {
        let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        let mut sys = System::new(cfg, BackingStore::new());
        let mut out = Outbox::new();
        sys.ctrl.handle_host(
            0,
            CtrlIn::Read {
                id: ReqId(1),
                block: BlockAddr(0),
            },
            &mut out,
        );
        let diag = sys.diagnose();
        assert!(
            diag.contains("link controller has 1 reads in flight"),
            "diagnose must expose the off-chip read window: {diag}"
        );
    }
}
