//! Conservative parallel (sharded) execution of the system loop.
//!
//! [`System::run_sharded`] partitions the machine into a **host shard**
//! (cores, private caches, L3, crossbar, link controller, host PCUs,
//! PMU) and one **cube shard** per HMC cube (its vaults and memory-side
//! PCUs), each owning a private calendar [`EventQueue`]. Shards exchange
//! timestamped messages through per-cube mailboxes that are drained at
//! epoch barriers, in a fixed order — which is what makes the run
//! deterministic and byte-identical for *any* thread count, including
//! one. DESIGN.md §10 derives the epoch math and the ordering
//! guarantees; the short version:
//!
//! - The epoch window is `L = link_latency / 2` host cycles
//!   ([`crate::MachineConfig::shard_epoch`]).
//! - Super-step `s` runs the host over `W_s = [sL, (s+1)L)` while every
//!   cube shard concurrently runs `W_{s+1}` — a *skewed* pipeline. The
//!   host→cube edge always crosses the serialized off-chip link
//!   (`≥ link_latency = 2L` of lookahead), so a request issued in `W_s`
//!   lands at or after `(s+2)L`, which cubes only reach in step `s+1`,
//!   after barrier delivery. The cube→host edge has zero lookahead, but
//!   the skew means cubes finish `W_{s+1}` (in real time) before the
//!   host begins it.
//! - At each barrier the host merges cube outputs *in cube-index
//!   order*: completions are scheduled onto the host queue and trace
//!   records are appended to the sink in that fixed order, so no
//!   thread-interleaving nondeterminism can leak into results.
//!
//! The partition (host + one shard per cube) is fixed by the machine
//! configuration, not by the thread count: `--shards N` only chooses
//! how many OS threads execute the fixed set of shards (`N = 1` runs
//! them all inline on the calling thread). Checked-mode sweeps run at
//! epoch barriers with every shard quiesced and its components
//! temporarily re-installed into the `System`, so all auditors see the
//! whole machine exactly as the sequential engine's sweeps do.

use crate::check::{FailureKind, RunOutcome};
use crate::system::{deliver_mem_pcu_out, deliver_vault_out, Dest, Ev, RunResult, System};
use crate::tracer::Tracer;
use pei_core::{MemPcu, MemPcuOut};
use pei_engine::{EpochBarrier, EventQueue, Outbox};
use pei_hmc::{Vault, VaultOut};
use pei_mem::BackingStore;
use pei_trace::{CompId, KindId, Record};
use pei_types::Cycle;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// The simulated physical memory: owned directly in sequential runs,
/// shared behind a mutex while cube shards hold clones.
///
/// The two mutation sites (host PCU fallback writes, memory-PCU
/// read-modify-writes) can race only on *different* blocks: a block's
/// PIM-directory lock serializes its writers, and the release→relaunch
/// round trip crosses the off-chip link (≥ `2L`), so conflicting
/// accesses are always separated by more than one epoch — real-time
/// lock order matches simulated order. The mutex exists for the
/// `HashMap`'s structural integrity, not for event ordering.
pub(crate) enum StoreSlot {
    /// Sequential: the `System` owns the store outright.
    Owned(BackingStore),
    /// Sharded run in progress: shards hold `Arc` clones.
    Shared(Arc<Mutex<BackingStore>>),
}

impl StoreSlot {
    /// Moves the owned store behind a shared mutex and returns a handle
    /// for the cube shards.
    fn share(&mut self) -> Arc<Mutex<BackingStore>> {
        let prev = std::mem::replace(self, StoreSlot::Owned(BackingStore::new()));
        let StoreSlot::Owned(mem) = prev else {
            panic!("store is already shared (nested sharded run?)");
        };
        let arc = Arc::new(Mutex::new(mem));
        *self = StoreSlot::Shared(Arc::clone(&arc));
        arc
    }

    /// Reclaims sole ownership once every shard handle is dropped.
    fn unshare(&mut self) {
        let prev = std::mem::replace(self, StoreSlot::Owned(BackingStore::new()));
        let StoreSlot::Shared(arc) = prev else {
            panic!("store is not shared");
        };
        let mem = Arc::try_unwrap(arc)
            .unwrap_or_else(|_| panic!("all shard store handles must be dropped before unshare"))
            .into_inner()
            .expect("store mutex");
        *self = StoreSlot::Owned(mem);
    }
}

/// Pre-interned trace ids for one cube's components, copied out of the
/// attached [`Tracer`] at partition time (ids are plain `u16`s; the
/// sink itself stays host-side).
struct CubeTrace {
    vault: Vec<CompId>,
    mpcu: Vec<CompId>,
    vault_access: KindId,
    vault_wake: KindId,
    mpcu_cmd: KindId,
    mpcu_vault_done: KindId,
}

impl CubeTrace {
    fn new(t: &Tracer, vbase: usize, vpc: usize) -> CubeTrace {
        CubeTrace {
            vault: t.vault[vbase..vbase + vpc].to_vec(),
            mpcu: t.mpcu[vbase..vbase + vpc].to_vec(),
            vault_access: t.k.vault_access,
            vault_wake: t.k.vault_wake,
            mpcu_cmd: t.k.mpcu_cmd,
            mpcu_vault_done: t.k.mpcu_vault_done,
        }
    }
}

/// One cube's slice of the machine: its vaults and memory-side PCUs,
/// a private event queue, and the outboxes of the sharded topology.
/// Vault indices stay *global* (`Ev` payloads are unchanged); `vbase`
/// maps them onto the local component vectors.
struct CubeShard {
    vbase: usize,
    vpc: usize,
    queue: EventQueue<Ev>,
    vaults: Vec<Vault>,
    mem_pcus: Vec<MemPcu>,
    store: Arc<Mutex<BackingStore>>,
    /// Messages bound for the host shard, harvested at the barrier.
    to_host: Vec<(Cycle, Ev)>,
    /// Buffered trace records, merged at the barrier.
    trace_buf: Vec<Record>,
    trace: Option<CubeTrace>,
    dispatched: u64,
    ob_vault: Outbox<VaultOut>,
    ob_mpcu: Outbox<MemPcuOut>,
}

impl CubeShard {
    /// Schedules every delivered inter-shard message onto the local
    /// queue, in the order the host pushed them (deterministic).
    fn absorb(&mut self, inbox: &mut Vec<(Cycle, Ev)>) {
        for (at, ev) in inbox.drain(..) {
            self.queue.schedule(at, ev);
        }
    }

    fn snapshot_phase(&mut self, label: &'static str) {
        for v in &mut self.vaults {
            v.snapshot_phase(label);
        }
        for p in &mut self.mem_pcus {
            p.snapshot_phase(label);
        }
    }

    /// Drains every local event strictly before `end`, including events
    /// the drain itself schedules into the window.
    fn run_window(&mut self, end: Cycle) {
        while let Some((now, ev)) = self.queue.pop_before(end) {
            if self.trace.is_some() {
                self.trace_ev(now, &ev);
            }
            self.dispatch(now, ev);
            self.dispatched += 1;
        }
    }

    fn dispatch(&mut self, now: Cycle, ev: Ev) {
        match ev {
            Ev::VaultAcc(v, acc) => {
                let mut outs = std::mem::take(&mut self.ob_vault);
                self.vaults[v - self.vbase].handle_access(now, acc, &mut outs);
                self.route_vault(v, &mut outs);
                self.ob_vault = outs;
            }
            Ev::VaultWake(v) => {
                let mut outs = std::mem::take(&mut self.ob_vault);
                self.vaults[v - self.vbase].wake(now, &mut outs);
                self.route_vault(v, &mut outs);
                self.ob_vault = outs;
            }
            Ev::MemPcuCmd(v, cmd) => {
                let mut outs = std::mem::take(&mut self.ob_mpcu);
                self.mem_pcus[v - self.vbase].on_cmd(now, *cmd, &mut outs);
                self.route_mem_pcu(v, &mut outs);
                self.ob_mpcu = outs;
            }
            Ev::MemPcuVaultDone(v, id, write) => {
                let mut outs = std::mem::take(&mut self.ob_mpcu);
                {
                    let mut mem = self.store.lock().expect("store mutex");
                    self.mem_pcus[v - self.vbase]
                        .on_vault_done(now, id, write, &mut mem, &mut outs);
                }
                self.route_mem_pcu(v, &mut outs);
                self.ob_mpcu = outs;
            }
            other => unreachable!("host-owned event routed to a cube shard: {other:?}"),
        }
    }

    fn route_vault(&mut self, v: usize, outs: &mut Outbox<VaultOut>) {
        let vpc = self.vpc;
        let q = &mut self.queue;
        let th = &mut self.to_host;
        for out in outs.drain() {
            deliver_vault_out(vpc, v, out, &mut |dest, at, ev| match dest {
                Dest::Local => q.schedule(at, ev),
                Dest::Host => th.push((at, ev)),
            });
        }
    }

    fn route_mem_pcu(&mut self, v: usize, outs: &mut Outbox<MemPcuOut>) {
        let vpc = self.vpc;
        let q = &mut self.queue;
        let th = &mut self.to_host;
        for out in outs.drain() {
            deliver_mem_pcu_out(vpc, v, out, &mut |dest, at, ev| match dest {
                Dest::Local => q.schedule(at, ev),
                Dest::Host => th.push((at, ev)),
            });
        }
    }

    #[cold]
    fn trace_ev(&mut self, now: Cycle, ev: &Ev) {
        let t = self
            .trace
            .as_ref()
            .expect("trace_ev requires cube trace ids");
        let (comp, kind, payload) = match ev {
            Ev::VaultAcc(v, acc) => (t.vault[v - self.vbase], t.vault_access, acc.block.0),
            Ev::VaultWake(v) => (t.vault[v - self.vbase], t.vault_wake, 0),
            Ev::MemPcuCmd(v, cmd) => (t.mpcu[v - self.vbase], t.mpcu_cmd, cmd.target.0),
            Ev::MemPcuVaultDone(v, id, _) => (t.mpcu[v - self.vbase], t.mpcu_vault_done, id.0),
            other => unreachable!("host-owned event traced on a cube shard: {other:?}"),
        };
        self.trace_buf.push(Record {
            cycle: now,
            comp,
            kind,
            payload,
        });
    }
}

/// How a super-step's host window ended.
enum HostStop {
    /// Every workload group completed during the window.
    AllDone,
    /// An event popped past the cycle budget.
    Limit(Cycle),
}

/// How the whole sharded run ended (before report assembly).
enum StepOutcome {
    Done,
    Fail(FailureKind, Cycle),
    /// A `pause_at` bound was reached at an epoch barrier with work
    /// outstanding. Carries the super-step seed the resumed driver
    /// starts from and the undelivered host→cube mailboxes
    /// (`drive_threaded` fills `inboxes` in after the workers park).
    Paused {
        at: Cycle,
        step: u64,
        last: Cycle,
        inboxes: Vec<Vec<(Cycle, Ev)>>,
    },
}

/// Step commands the host publishes to worker threads.
const CMD_RUN: u8 = 0;
const CMD_SWEEP: u8 = 1;
const CMD_DONE: u8 = 2;

/// Control word shared by the host and all workers for one run.
struct StepCtl {
    cmd: AtomicU8,
    /// Cube window end `(s+2)·L` for a `CMD_RUN` step.
    c_end: AtomicU64,
    /// Phase label every shard snapshots at the start of this step.
    mark: Mutex<Option<&'static str>>,
}

/// Per-cube mailbox trio. `inbox` carries host→cube messages across the
/// barrier; `report` carries the cube's per-step output back; `parked`
/// hands the whole shard over for checked-mode sweeps and shutdown.
struct CubeCell {
    inbox: Mutex<Vec<(Cycle, Ev)>>,
    report: Mutex<StepReport>,
    parked: Mutex<Option<CubeShard>>,
}

#[derive(Default)]
struct StepReport {
    to_host: Vec<(Cycle, Ev)>,
    trace: Vec<Record>,
    next_time: Option<Cycle>,
}

/// Earliest super-step the machine can jump to after completing `step`,
/// given the earliest pending host event and the earliest pending
/// cube-side event (including just-delivered inbox messages). Skipping
/// idle windows is safe because the bounds re-derive the two skew
/// invariants: host events at `t` need `t ≥ s'L`, cube events at `t`
/// need `t ≥ (s'+1)L`.
fn next_step(step: u64, epoch: Cycle, h_next: Option<Cycle>, c_next: Option<Cycle>) -> u64 {
    let bound_h = h_next.map_or(u64::MAX, |t| t / epoch);
    let bound_c = c_next.map_or(u64::MAX, |t| (t / epoch).saturating_sub(1));
    (step + 1).max(bound_h.min(bound_c))
}

fn min_opt(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Worker thread body: executes the host's step commands over a
/// contiguous chunk of cube shards (`cells[first..first + chunk]`).
fn worker_loop(
    mut shards: Vec<CubeShard>,
    first: usize,
    cells: &[CubeCell],
    ctl: &StepCtl,
    barrier: &EpochBarrier,
) {
    let chunk = shards.len();
    loop {
        barrier.wait(); // A: command published
        match ctl.cmd.load(Ordering::Acquire) {
            CMD_RUN => {
                let c_end = ctl.c_end.load(Ordering::Acquire);
                let mark = *ctl.mark.lock().expect("mark mutex");
                for (i, sh) in shards.iter_mut().enumerate() {
                    let cell = &cells[first + i];
                    if let Some(label) = mark {
                        sh.snapshot_phase(label);
                    }
                    {
                        let mut inbox = cell.inbox.lock().expect("inbox mutex");
                        sh.absorb(&mut inbox);
                    }
                    sh.run_window(c_end);
                    let mut rep = cell.report.lock().expect("report mutex");
                    std::mem::swap(&mut rep.to_host, &mut sh.to_host);
                    std::mem::swap(&mut rep.trace, &mut sh.trace_buf);
                    rep.next_time = sh.queue.peek_time();
                }
                barrier.wait(); // B: step complete
            }
            CMD_SWEEP => {
                for (i, sh) in shards.drain(..).enumerate() {
                    *cells[first + i].parked.lock().expect("parked mutex") = Some(sh);
                }
                barrier.wait(); // B: all shards parked
                barrier.wait(); // C: host finished sweeping
                for i in 0..chunk {
                    let sh = cells[first + i]
                        .parked
                        .lock()
                        .expect("parked mutex")
                        .take()
                        .expect("host re-parks every shard after a sweep");
                    shards.push(sh);
                }
            }
            _ => {
                for (i, sh) in shards.drain(..).enumerate() {
                    *cells[first + i].parked.lock().expect("parked mutex") = Some(sh);
                }
                barrier.wait(); // B: shutdown acknowledged
                return;
            }
        }
    }
}

impl System {
    /// Runs the machine to completion like [`run`](System::run), but
    /// partitioned into a host shard plus one shard per HMC cube,
    /// executed by `threads` OS threads (`1` = all shards inline on the
    /// calling thread; more threads than `1 + cubes` is clamped).
    ///
    /// The partition — and therefore the result — is a function of the
    /// machine configuration only: any two `run_sharded` calls on
    /// identical machines produce byte-identical [`RunResult`]s and
    /// trace captures regardless of `threads`. The sharded schedule
    /// may legally differ from [`run`](System::run) in same-cycle
    /// cross-shard tie-breaking (see DESIGN.md §10), which is why
    /// harnesses select it explicitly (`--shards`).
    ///
    /// Checked mode works as in sequential runs (sweeps execute at
    /// epoch barriers with all shards quiesced); event-triggered fault
    /// injection applies to host-shard events only.
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
    /// let mut sys = System::new(cfg, store);
    /// sys.add_workload(
    ///     Box::new(VecPhases::single(vec![Op::load(a), Op::Compute(4)])),
    ///     vec![0],
    /// );
    /// let r = sys.run_sharded(1_000_000, 2);
    /// assert!(r.ok());
    /// assert_eq!(r.instructions, 5);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on harness misuse: no workload assigned, `threads == 0`,
    /// a machine whose `link_latency < 2` (no lookahead to shard
    /// on), or a machine paused mid-run by the *sequential* engine
    /// (its host queue still holds cube-owned events; resume it with
    /// [`run`](System::run)).
    pub fn run_sharded(&mut self, max_cycles: Cycle, threads: usize) -> RunResult {
        match self.run_sharded_paused(max_cycles, threads, None) {
            crate::system::RunStatus::Completed(r) => r,
            crate::system::RunStatus::Paused { .. } => {
                unreachable!("run_sharded_paused without a pause bound never pauses")
            }
        }
    }

    /// [`run_sharded`](System::run_sharded), but optionally pausing at
    /// the first epoch barrier at or after `pause_at` with all machine
    /// state intact (the sharded counterpart of
    /// [`run_paused`](System::run_paused)).
    ///
    /// Both drivers follow the identical super-step schedule, so the
    /// pause cut — and the snapshot taken at it — is byte-identical
    /// under any `threads` count, and a paused machine may resume under
    /// a *different* thread count. While paused, the cube shards'
    /// queues are held on the machine ([`System::snapshot`] serializes
    /// them); calling this again resumes, and a `pause_at` in the past
    /// pauses again at the very next barrier.
    pub fn run_sharded_paused(
        &mut self,
        max_cycles: Cycle,
        threads: usize,
        pause_at: Option<Cycle>,
    ) -> crate::system::RunStatus {
        use crate::system::RunStatus;
        assert!(threads >= 1, "run_sharded needs at least one thread");
        assert!(!self.groups.is_empty(), "no workload assigned");
        let resume = self.shard_pause.take();
        assert!(
            resume.is_some() || self.dispatched == 0 || self.queue.is_empty(),
            "machine was paused by the sequential engine; resume it with run()"
        );
        let epoch = self.cfg.shard_epoch();
        let mut shards = self.partition();
        let seed = match resume {
            Some(pause) => {
                let p = *pause;
                assert_eq!(p.cubes.len(), shards.len(), "pause/config cube count");
                for (sh, cp) in shards.iter_mut().zip(p.cubes) {
                    for (at, ev) in cp.events {
                        sh.queue.schedule(at, ev);
                    }
                    sh.queue.restore_accounting(cp.scheduled);
                    sh.dispatched = cp.dispatched;
                }
                (p.step, p.last, p.inboxes)
            }
            None => (0, 0, shards.iter().map(|_| Vec::new()).collect()),
        };
        for g in 0..self.groups.len() {
            // Fresh machines seed phase 1 here; resumed/restored ones
            // already carry their phase progress.
            if self.groups[g].phases == 0 && !self.groups[g].done {
                self.pull_phase(g, 0);
            }
        }
        let workers = threads.saturating_sub(1).min(shards.len());
        let outcome = if workers == 0 {
            self.drive_inline(&mut shards, epoch, max_cycles, seed, pause_at)
        } else {
            let (back, outcome) =
                self.drive_threaded(shards, epoch, max_cycles, workers, seed, pause_at);
            shards = back;
            outcome
        };
        match outcome {
            StepOutcome::Done => {
                self.reassemble(shards);
                RunStatus::Completed(self.result(RunOutcome::Completed))
            }
            StepOutcome::Fail(kind, at) => {
                self.reassemble(shards);
                RunStatus::Completed(self.fail(kind, at))
            }
            StepOutcome::Paused {
                at,
                step,
                last,
                inboxes,
            } => {
                self.pause_shards(shards, step, last, inboxes);
                RunStatus::Paused { at }
            }
        }
    }

    /// Parks a sharded run at an epoch barrier: drains every cube queue
    /// in canonical order into a `ShardPause`
    /// held on the machine, returns the cube components to their
    /// sequential slots, and restores sequential-mode store/trace
    /// routing. The inverse of the resume path in
    /// [`run_sharded_paused`](System::run_sharded_paused).
    fn pause_shards(
        &mut self,
        shards: Vec<CubeShard>,
        step: u64,
        last: Cycle,
        inboxes: Vec<Vec<(Cycle, Ev)>>,
    ) {
        let mut cubes = Vec::with_capacity(shards.len());
        for mut sh in shards {
            let scheduled = sh.queue.total_scheduled();
            let events = sh.queue.drain_ordered();
            cubes.push(crate::snapshot::CubePause {
                events,
                scheduled,
                dispatched: sh.dispatched,
            });
            self.vaults.extend(sh.vaults);
            self.mem_pcus.extend(sh.mem_pcus);
        }
        self.cube_out = None;
        self.flush_host_trace();
        self.shard_trace = None;
        self.store.unshare();
        self.shard_pause = Some(Box::new(crate::snapshot::ShardPause {
            step,
            last,
            cubes,
            inboxes,
        }));
    }

    /// Splits the cube-side components out of the `System` into one
    /// shard per cube and switches the store, trace, and routing layers
    /// into sharded mode.
    fn partition(&mut self) -> Vec<CubeShard> {
        let vpc = self.cfg.hmc.vaults_per_cube;
        let cubes = self.cfg.hmc.cubes;
        let horizon = self.cfg.event_horizon();
        let store = self.store.share();
        self.cube_out = Some((0..cubes).map(|_| Vec::new()).collect());
        self.foreign_events = (0, 0, 0);
        if self.tracer.is_some() {
            self.shard_trace = Some(Vec::new());
        }
        let mut vaults = std::mem::take(&mut self.vaults);
        let mut mem_pcus = std::mem::take(&mut self.mem_pcus);
        (0..cubes)
            .map(|c| CubeShard {
                vbase: c * vpc,
                vpc,
                queue: EventQueue::with_horizon(horizon),
                vaults: vaults.drain(..vpc).collect(),
                mem_pcus: mem_pcus.drain(..vpc).collect(),
                store: Arc::clone(&store),
                to_host: Vec::new(),
                trace_buf: Vec::new(),
                trace: self
                    .tracer
                    .as_ref()
                    .map(|t| CubeTrace::new(t, c * vpc, vpc)),
                dispatched: 0,
                ob_vault: Outbox::new(),
                ob_mpcu: Outbox::new(),
            })
            .collect()
    }

    /// Moves every cube shard's components back into the `System` (in
    /// cube order, restoring the original component layout), folds the
    /// shard queues' accounting into `foreign_events`, and restores
    /// sequential-mode store/trace/routing.
    fn reassemble(&mut self, shards: Vec<CubeShard>) {
        for sh in shards {
            self.foreign_events.0 += sh.queue.total_scheduled();
            self.foreign_events.1 += sh.dispatched;
            self.foreign_events.2 += sh.queue.len() as u64;
            self.vaults.extend(sh.vaults);
            self.mem_pcus.extend(sh.mem_pcus);
        }
        self.cube_out = None;
        self.flush_host_trace();
        self.shard_trace = None;
        self.store.unshare();
    }

    /// Drains the host-side trace buffer into the attached sink.
    fn flush_host_trace(&mut self) {
        let Some(buf) = &mut self.shard_trace else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        let records = std::mem::take(buf);
        let t = self.tracer.as_mut().expect("shard_trace implies a tracer");
        for r in &records {
            t.sink.record(r.cycle, r.comp, r.kind, r.payload);
        }
        // Hand the allocation back for the next window.
        let mut records = records;
        records.clear();
        *self.shard_trace.as_mut().expect("still sharded") = records;
    }

    /// Appends one cube's buffered records to the sink, clearing the
    /// buffer in place (the allocation travels back to the shard).
    fn flush_cube_trace(&mut self, records: &mut Vec<Record>) {
        if records.is_empty() {
            return;
        }
        let t = self.tracer.as_mut().expect("cube trace implies a tracer");
        for r in records.drain(..) {
            t.sink.record(r.cycle, r.comp, r.kind, r.payload);
        }
    }

    /// Drains the host queue strictly below `end` — the host half of
    /// one super-step. Mirrors one window's worth of the sequential
    /// loop: fault hooks, dispatch accounting, and completion/limit
    /// detection per event.
    fn host_window(&mut self, end: Cycle, max_cycles: Cycle, last: &mut Cycle) -> Option<HostStop> {
        while let Some((now, ev)) = self.queue.pop_before(end) {
            if now > max_cycles {
                return Some(HostStop::Limit(now));
            }
            *last = now;
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
            if self.all_done() {
                return Some(HostStop::AllDone);
            }
        }
        None
    }

    /// Runs a checked-mode sweep at an epoch barrier: the cube shards'
    /// components are re-installed into the `System` (every auditor
    /// sees the whole machine), their queue accounting is exposed via
    /// `foreign_events` for the conservation check, and everything is
    /// handed back afterwards.
    fn sweep_sharded(&mut self, shards: &mut [CubeShard], now: Cycle) {
        debug_assert!(self.vaults.is_empty() && self.mem_pcus.is_empty());
        for sh in shards.iter_mut() {
            self.vaults.append(&mut sh.vaults);
            self.mem_pcus.append(&mut sh.mem_pcus);
        }
        self.foreign_events = shards.iter().fold((0, 0, 0), |acc, sh| {
            (
                acc.0 + sh.queue.total_scheduled(),
                acc.1 + sh.dispatched,
                acc.2 + sh.queue.len() as u64,
            )
        });
        self.sweep(now);
        self.foreign_events = (0, 0, 0);
        let vpc = self.cfg.hmc.vaults_per_cube;
        for sh in shards.iter_mut() {
            sh.vaults.extend(self.vaults.drain(..vpc));
            sh.mem_pcus.extend(self.mem_pcus.drain(..vpc));
        }
    }

    /// Whether the completed host window at `h_end` crossed the next
    /// sweep deadline (the sequential loop's `now >= next_sweep`, lifted
    /// to window granularity).
    fn sweep_due(&self, h_end: Cycle) -> bool {
        self.checks.as_ref().is_some_and(|c| h_end > c.next_sweep)
    }

    /// Single-threaded driver: executes the exact super-step schedule
    /// of the threaded driver — same partition, same barrier points,
    /// same merge order — on the calling thread. `run_sharded(_, 1)`
    /// and `run_sharded(_, n)` are byte-identical because both drivers
    /// follow this schedule.
    fn drive_inline(
        &mut self,
        shards: &mut [CubeShard],
        epoch: Cycle,
        max_cycles: Cycle,
        seed: (u64, Cycle, Vec<Vec<(Cycle, Ev)>>),
        pause_at: Option<Cycle>,
    ) -> StepOutcome {
        let (mut step, mut last, mut inboxes) = seed;
        debug_assert_eq!(inboxes.len(), shards.len());
        loop {
            // Taking the phase mark at the top of the body (instead of
            // carrying it across the bottom of the previous iteration)
            // is equivalent — `pending_mark` is only set by dispatches
            // inside the loop — and leaves it on the machine when the
            // loop exits through a pause, so it serializes.
            let mark = self.pending_mark.take();
            let h_end = (step + 1) * epoch;
            let c_end = h_end + epoch;
            // "Parallel" phase: host window W_s, cube windows W_{s+1}.
            // Within a step the two halves are independent (messages
            // only cross at barriers), so sequencing them is legal.
            let hstop = self.host_window(h_end, max_cycles, &mut last);
            for (c, sh) in shards.iter_mut().enumerate() {
                if let Some(label) = mark {
                    sh.snapshot_phase(label);
                }
                sh.absorb(&mut inboxes[c]);
                sh.run_window(c_end);
            }
            // Barrier: merge in deterministic order — host records
            // first, then each cube in index order.
            self.flush_host_trace();
            let mut c_next = None;
            for sh in shards.iter_mut() {
                if self.tracer.is_some() {
                    let mut buf = std::mem::take(&mut sh.trace_buf);
                    self.flush_cube_trace(&mut buf);
                    sh.trace_buf = buf;
                }
                for (at, ev) in sh.to_host.drain(..) {
                    self.queue.schedule(at, ev);
                }
                c_next = min_opt(c_next, sh.queue.peek_time());
            }
            match hstop {
                Some(HostStop::AllDone) => return StepOutcome::Done,
                Some(HostStop::Limit(at)) => return StepOutcome::Fail(FailureKind::CycleLimit, at),
                None => {}
            }
            if !self.violations.is_empty() {
                return StepOutcome::Fail(FailureKind::CheckFailed, last);
            }
            if self.sweep_due(h_end) {
                self.sweep_sharded(shards, h_end);
                if !self.violations.is_empty() {
                    return StepOutcome::Fail(FailureKind::CheckFailed, h_end);
                }
            }
            // Deliver host→cube messages for absorption next step.
            let boxes = self.cube_out.as_mut().expect("sharded mode");
            for (c, b) in boxes.iter_mut().enumerate() {
                for (at, ev) in b.drain(..) {
                    c_next = min_opt(c_next, Some(at));
                    inboxes[c].push((at, ev));
                }
            }
            let h_next = self.queue.peek_time();
            if h_next.is_none() && c_next.is_none() {
                return if self.all_done() {
                    StepOutcome::Done
                } else {
                    StepOutcome::Fail(FailureKind::Stalled, last)
                };
            }
            if pause_at.is_some_and(|t| h_end >= t) {
                // At this barrier the cube buffers are drained and the
                // inboxes hold exactly this step's host→cube deliveries:
                // the machine is fully described by (shards, inboxes,
                // next step) — precisely what ShardPause serializes.
                return StepOutcome::Paused {
                    at: h_end,
                    step: next_step(step, epoch, h_next, c_next),
                    last,
                    inboxes: std::mem::take(&mut inboxes),
                };
            }
            step = next_step(step, epoch, h_next, c_next);
        }
    }

    /// Multi-threaded driver: `workers` threads execute the cube shards
    /// while the calling thread runs the host shard and orchestrates
    /// the barriers. Follows the same super-step schedule as
    /// [`drive_inline`](Self::drive_inline).
    fn drive_threaded(
        &mut self,
        mut shards: Vec<CubeShard>,
        epoch: Cycle,
        max_cycles: Cycle,
        workers: usize,
        seed: (u64, Cycle, Vec<Vec<(Cycle, Ev)>>),
        pause_at: Option<Cycle>,
    ) -> (Vec<CubeShard>, StepOutcome) {
        let cubes = shards.len();
        let (start_step, start_last, seed_inboxes) = seed;
        debug_assert_eq!(seed_inboxes.len(), cubes);
        let cells: Vec<CubeCell> = seed_inboxes
            .into_iter()
            .map(|inbox| CubeCell {
                inbox: Mutex::new(inbox),
                report: Mutex::new(StepReport::default()),
                parked: Mutex::new(None),
            })
            .collect();
        let ctl = StepCtl {
            cmd: AtomicU8::new(CMD_RUN),
            c_end: AtomicU64::new(0),
            mark: Mutex::new(None),
        };
        let barrier = EpochBarrier::new(workers + 1);
        // Contiguous chunks: worker w owns cubes [starts[w], starts[w+1]).
        let base = cubes / workers;
        let extra = cubes % workers;
        let mut chunks: Vec<(usize, Vec<CubeShard>)> = Vec::with_capacity(workers);
        let mut first = 0;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            chunks.push((first, shards.drain(..len).collect()));
            first += len;
        }
        let mut outcome = std::thread::scope(|scope| {
            let cells = &cells;
            let ctl = &ctl;
            let barrier = &barrier;
            for (first, chunk) in chunks.drain(..) {
                scope.spawn(move || worker_loop(chunk, first, cells, ctl, barrier));
            }
            self.host_loop(
                cells, ctl, barrier, epoch, max_cycles, start_step, start_last, pause_at,
            )
        });
        let shards = cells
            .iter()
            .map(|c| {
                c.parked
                    .lock()
                    .expect("parked mutex")
                    .take()
                    .expect("every shard is parked at shutdown")
            })
            .collect();
        if let StepOutcome::Paused { inboxes, .. } = &mut outcome {
            // The workers have parked; reclaim the undelivered inboxes
            // so the pause record matches the inline driver's.
            *inboxes = cells
                .iter()
                .map(|c| std::mem::take(&mut *c.inbox.lock().expect("inbox mutex")))
                .collect();
        }
        (shards, outcome)
    }

    /// The host side of the threaded super-step schedule.
    #[allow(clippy::too_many_arguments)]
    fn host_loop(
        &mut self,
        cells: &[CubeCell],
        ctl: &StepCtl,
        barrier: &EpochBarrier,
        epoch: Cycle,
        max_cycles: Cycle,
        start_step: u64,
        start_last: Cycle,
        pause_at: Option<Cycle>,
    ) -> StepOutcome {
        let shutdown = |outcome: StepOutcome| {
            ctl.cmd.store(CMD_DONE, Ordering::Release);
            barrier.wait(); // A
            barrier.wait(); // B: every shard parked
            outcome
        };
        let mut step = start_step;
        let mut last = start_last;
        loop {
            // Top-of-body take, as in drive_inline: a pause exit leaves
            // any just-set mark on the machine for serialization.
            let mark = self.pending_mark.take();
            let h_end = (step + 1) * epoch;
            ctl.cmd.store(CMD_RUN, Ordering::Release);
            ctl.c_end.store(h_end + epoch, Ordering::Release);
            *ctl.mark.lock().expect("mark mutex") = mark;
            barrier.wait(); // A: workers start W_{s+1}
            let hstop = self.host_window(h_end, max_cycles, &mut last);
            barrier.wait(); // B: workers done
            self.flush_host_trace();
            let mut c_next = None;
            for cell in cells {
                let mut rep = cell.report.lock().expect("report mutex");
                if self.tracer.is_some() {
                    let mut buf = std::mem::take(&mut rep.trace);
                    self.flush_cube_trace(&mut buf);
                    rep.trace = buf;
                }
                for (at, ev) in rep.to_host.drain(..) {
                    self.queue.schedule(at, ev);
                }
                c_next = min_opt(c_next, rep.next_time);
            }
            match hstop {
                Some(HostStop::AllDone) => return shutdown(StepOutcome::Done),
                Some(HostStop::Limit(at)) => {
                    return shutdown(StepOutcome::Fail(FailureKind::CycleLimit, at))
                }
                None => {}
            }
            if !self.violations.is_empty() {
                return shutdown(StepOutcome::Fail(FailureKind::CheckFailed, last));
            }
            if self.sweep_due(h_end) {
                ctl.cmd.store(CMD_SWEEP, Ordering::Release);
                barrier.wait(); // A
                barrier.wait(); // B: every shard parked
                let mut borrowed: Vec<CubeShard> = cells
                    .iter()
                    .map(|c| {
                        c.parked
                            .lock()
                            .expect("parked mutex")
                            .take()
                            .expect("workers park every shard for a sweep")
                    })
                    .collect();
                self.sweep_sharded(&mut borrowed, h_end);
                for (cell, sh) in cells.iter().zip(borrowed) {
                    *cell.parked.lock().expect("parked mutex") = Some(sh);
                }
                barrier.wait(); // C: workers take their shards back
                if !self.violations.is_empty() {
                    return shutdown(StepOutcome::Fail(FailureKind::CheckFailed, h_end));
                }
            }
            let boxes = self.cube_out.as_mut().expect("sharded mode");
            for (c, b) in boxes.iter_mut().enumerate() {
                if b.is_empty() {
                    continue;
                }
                let mut inbox = cells[c].inbox.lock().expect("inbox mutex");
                for (at, ev) in b.drain(..) {
                    c_next = min_opt(c_next, Some(at));
                    inbox.push((at, ev));
                }
            }
            let h_next = self.queue.peek_time();
            if h_next.is_none() && c_next.is_none() {
                return if self.all_done() {
                    shutdown(StepOutcome::Done)
                } else {
                    shutdown(StepOutcome::Fail(FailureKind::Stalled, last))
                };
            }
            if pause_at.is_some_and(|t| h_end >= t) {
                // `drive_threaded` reclaims the cell inboxes once the
                // workers have parked (after the shutdown barriers).
                return shutdown(StepOutcome::Paused {
                    at: h_end,
                    step: next_step(step, epoch, h_next, c_next),
                    last,
                    inboxes: Vec::new(),
                });
            }
            step = next_step(step, epoch, h_next, c_next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{CheckConfig, RunOutcome};
    use crate::config::MachineConfig;
    use pei_core::DispatchPolicy;
    use pei_cpu::trace::{Op, PhasedTrace, VecPhases};
    use pei_types::{Addr, OperandValue, PimOpKind};

    /// A mixed workload exercising loads, stores, PEIs, and multiple
    /// phases across several cores — enough traffic to cross every
    /// shard edge repeatedly.
    fn workload(store: &mut BackingStore, threads: usize, blocks: usize) -> Box<dyn PhasedTrace> {
        let addrs: Vec<Addr> = (0..blocks).map(|_| store.alloc_block()).collect();
        let mut phase1 = vec![Vec::new(); threads];
        let mut phase2 = vec![Vec::new(); threads];
        for (i, &a) in addrs.iter().enumerate() {
            let t = i % threads;
            phase1[t].push(Op::load(a));
            phase1[t].push(Op::pei(PimOpKind::IncU64, a, OperandValue::None));
            phase2[t].push(Op::store(a));
            if i % 3 == 0 {
                phase2[t].push(Op::pei(PimOpKind::MinU64, a, OperandValue::U64(1)));
            }
        }
        Box::new(VecPhases::new(threads, vec![phase1, phase2]))
    }

    fn build(cfg: MachineConfig, blocks: usize) -> System {
        let mut store = BackingStore::new();
        let trace = workload(&mut store, cfg.cores, blocks);
        let mut sys = System::new(cfg, store);
        sys.add_workload(trace, (0..cfg.cores).collect());
        sys
    }

    fn two_cube_cfg() -> MachineConfig {
        let mut cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        cfg.hmc.cubes = 2;
        cfg
    }

    fn fingerprint(r: &RunResult) -> String {
        format!(
            "{} {} {} {:?} {} {:?}\n{:?}",
            r.cycles, r.instructions, r.peis, r.offchip_flits, r.dram_accesses, r.outcome, r.stats
        )
    }

    #[test]
    fn sharded_thread_counts_agree_one_cube() {
        let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        let a = build(cfg, 64).run_sharded(50_000_000, 1);
        let b = build(cfg, 64).run_sharded(50_000_000, 2);
        assert!(a.ok(), "sharded run must complete: {:?}", a.outcome);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn sharded_thread_counts_agree_two_cubes() {
        let cfg = two_cube_cfg();
        let a = build(cfg, 64).run_sharded(50_000_000, 1);
        let b = build(cfg, 64).run_sharded(50_000_000, 3);
        let c = build(cfg, 64).run_sharded(50_000_000, 16); // clamped to 1+cubes
        assert!(a.ok(), "sharded run must complete: {:?}", a.outcome);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn sharded_traces_are_byte_identical_across_thread_counts() {
        let cfg = two_cube_cfg();
        let capture = |threads: usize| {
            let mut sys = build(cfg, 48);
            sys.attach_tracer(Box::new(pei_trace::Recorder::new()));
            let r = sys.run_sharded(50_000_000, threads);
            assert!(r.ok(), "traced sharded run must complete: {:?}", r.outcome);
            let sink = sys.detach_tracer().expect("tracer attached");
            sink.to_petr().expect("recorder serializes")
        };
        let one = capture(1);
        let many = capture(3);
        assert_eq!(one, many, "trace bytes must not depend on thread count");
    }

    #[test]
    fn sharded_checked_run_is_clean_and_identical_to_unchecked() {
        let cfg = two_cube_cfg();
        let plain = build(cfg, 48).run_sharded(50_000_000, 3);
        let mut sys = build(cfg, 48);
        sys.enable_checks(CheckConfig {
            interval: 256, // sweep at many epoch barriers
            ..CheckConfig::default()
        });
        let checked = sys.run_sharded(50_000_000, 3);
        assert!(
            checked.ok(),
            "clean sharded checked run must complete: {:?}",
            checked.outcome
        );
        assert_eq!(fingerprint(&plain), fingerprint(&checked));
    }

    #[test]
    fn sharded_stall_is_reported_with_a_culprit() {
        let cfg = two_cube_cfg();
        let mut sys = build(cfg, 16);
        for v in &mut sys.vaults {
            v.fault_wedge();
        }
        let r = sys.run_sharded(50_000_000, 3);
        let report = match &r.outcome {
            RunOutcome::Stalled { report } => report,
            other => panic!("wedged sharded run must stall, got {other:?}"),
        };
        let culprit = report.culprit().expect("stall must name a culprit");
        assert!(
            culprit.starts_with("vault"),
            "deepest stuck component is the vault, got {culprit}"
        );
    }

    #[test]
    fn sharded_cycle_limit_is_reported() {
        let cfg = two_cube_cfg();
        let r = build(cfg, 16).run_sharded(2, 3);
        assert!(
            matches!(r.outcome, RunOutcome::CycleLimit { .. }),
            "two cycles cannot fit a DRAM round trip: {:?}",
            r.outcome
        );
    }

    #[test]
    fn store_is_owned_again_after_a_sharded_run() {
        let cfg = two_cube_cfg();
        let mut sys = build(cfg, 16);
        let r = sys.run_sharded(50_000_000, 3);
        assert!(r.ok());
        // `store()` panics while shards hold the memory; reassembly must
        // have returned it to exclusive ownership.
        let _ = sys.store();
    }

    #[test]
    fn next_step_jumps_only_when_safe() {
        // Normal progress.
        assert_eq!(next_step(3, 20, Some(80), Some(100)), 4);
        // Host idle until cycle 400 and cubes until 500: jump to the
        // window containing the host event.
        assert_eq!(next_step(3, 20, Some(400), Some(500)), 20);
        // Cube event is the earlier constraint: its window (minus the
        // one-ahead skew) bounds the jump.
        assert_eq!(next_step(3, 20, Some(900), Some(400)), 19);
        // No host events at all: cubes bound the jump alone.
        assert_eq!(next_step(3, 20, None, Some(400)), 19);
        // Never move backwards.
        assert_eq!(next_step(7, 20, Some(10), Some(10)), 8);
    }
}
