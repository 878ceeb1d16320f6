//! Whole-machine snapshot and restore (DESIGN.md §11).
//!
//! [`System::snapshot`] serializes the *complete* architectural state of
//! the machine — every core, private cache, L3 bank, crossbar port, MSHR
//! file, PMU directory and locality monitor, PCU operand buffer, vault
//! queue, link-controller credit, the functional backing store, the
//! calendar event queue (in canonical pop order, so same-cycle FIFO
//! ordering survives), counter registries, and phase marks — into a
//! dependency-free little-endian byte format. [`System::restore`] loads
//! that state into a freshly constructed, identically shaped machine;
//! the continued run is byte-identical to one that never stopped.
//!
//! Two consumers build on this:
//!
//! - **Crash-resumable runs**: `pei-sim --save-at N` pauses at a
//!   deterministic cycle cut and writes the snapshot; `--resume FILE`
//!   rebuilds the machine and continues.
//! - **Divergence bisection**: the `trace_bisect` tool restores midpoint
//!   snapshots to binary-search a figure regression down to the first
//!   divergent cycle without re-simulating the prefix each probe.

use crate::check::CheckConfig;
use crate::config::MachineConfig;
use crate::system::{Ev, System};
use pei_core::{DispatchPolicy, PmuIn};
use pei_engine::EventQueue;
use pei_hmc::VaultIn;
use pei_mem::l3::L3In;
use pei_mem::msg::{CoreReq, L3Resp, Recall};
use pei_mem::BackingStore;
use pei_types::snap::{check_len, Decoder, Encoder, SnapError, SnapResult, SnapshotState};
use pei_types::{BlockAddr, Cycle, OperandValue, PimCmd, PimOut, ReqId};
use std::io;
use std::path::Path;

/// File magic: "PEI snapshot, format 1".
const MAGIC: &[u8; 8] = b"PEISNAP1";
/// Format version; bumped on any incompatible layout change. Version 2
/// dropped version 1's engine-flag header byte and its multi-threaded
/// engine's pause section, so a version-1 file fails with
/// [`SnapError::BadVersion`].
const VERSION: u16 = 2;

// Section tags, in stream order. `expect_tag` turns a misaligned decode
// into an offset-reporting error instead of garbage state.
const TAG_QUEUE: u8 = 1;
const TAG_CORES: u8 = 2;
const TAG_PRIVS: u8 = 3;
const TAG_L3: u8 = 4;
const TAG_XBAR: u8 = 5;
const TAG_CTRL: u8 = 6;
const TAG_VAULTS: u8 = 7;
const TAG_MEM_PCUS: u8 = 8;
const TAG_HOST_PCUS: u8 = 9;
const TAG_PMU: u8 = 10;
const TAG_STORE: u8 = 11;
const TAG_GROUPS: u8 = 12;
const TAG_RUN: u8 = 13;
const TAG_CHECKS: u8 = 14;
const TAG_END: u8 = 15;

/// A serialized machine state, restorable onto an identically
/// constructed [`System`] (same [`MachineConfig`] up to dispatch policy
/// within the same monitor class, same `add_workload` calls).
///
/// The byte format is self-contained and versioned; [`Snapshot::read`] /
/// [`Snapshot::from_bytes`] validate the header before accepting the
/// payload, and every decode error reports the byte offset it occurred
/// at (see [`SnapError`]).
#[derive(Debug, Clone)]
pub struct Snapshot {
    bytes: Vec<u8>,
    header: Header,
}

#[derive(Debug, Clone)]
struct Header {
    fp_class: u64,
    fp_exact: u64,
    cycle: Cycle,
    meta: Vec<(String, String)>,
}

impl Snapshot {
    /// Validates and wraps raw snapshot bytes. Only the header is parsed
    /// here; the body is decoded (and further validated) by
    /// [`System::restore`].
    pub fn from_bytes(bytes: &[u8]) -> SnapResult<Snapshot> {
        let mut d = Decoder::new(bytes);
        let header = decode_header(&mut d)?;
        Ok(Snapshot {
            bytes: bytes.to_vec(),
            header,
        })
    }

    /// The raw serialized bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Earliest pending event cycle at capture time — the lower bound of
    /// where a restored run resumes.
    pub fn cycle(&self) -> Cycle {
        self.header.cycle
    }

    /// Fingerprint of the machine configuration with the dispatch policy
    /// normalized to its monitor class ([`DispatchPolicy::uses_monitor`]).
    /// Restore requires this to match the target machine: machines in
    /// the same class accumulate identical pre-PEI state, so a snapshot
    /// cut before the first PMU dispatch restores soundly across
    /// policies *within* a class only.
    pub fn class_fingerprint(&self) -> u64 {
        self.header.fp_class
    }

    /// Fingerprint of the exact machine configuration, dispatch policy
    /// included. Equal fingerprints mean the snapshot came from an
    /// identically configured machine.
    pub fn exact_fingerprint(&self) -> u64 {
        self.header.fp_exact
    }

    /// Caller-provided metadata pairs recorded at capture time (e.g. the
    /// batch runner's workload/scale/seed recipe).
    pub fn meta(&self) -> &[(String, String)] {
        &self.header.meta
    }

    /// Looks up one metadata value by key.
    pub fn meta_get(&self, key: &str) -> Option<&str> {
        self.header
            .meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Writes the snapshot to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, &self.bytes)
    }

    /// Reads and header-validates a snapshot from `path`.
    pub fn read(path: &Path) -> io::Result<Snapshot> {
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// FNV-1a over the `Debug` rendering of a config — stable across runs
/// within one build of the simulator, which is the scope snapshots live
/// in (the format carries full state, not code).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the exact machine configuration.
pub(crate) fn config_fingerprint(cfg: &MachineConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// Fingerprint with the dispatch policy collapsed to its monitor class:
/// `{LocalityAware, LocalityAwareBalanced}` → `LocalityAware`,
/// `{HostOnly, PimOnly}` → `HostOnly`. Machines whose class fingerprints
/// match shadow the locality monitor identically on every L3 access, so
/// any state captured before the first PMU dispatch is shared verbatim.
pub(crate) fn class_fingerprint(cfg: &MachineConfig) -> u64 {
    let mut c = *cfg;
    c.policy = if c.policy.uses_monitor() {
        DispatchPolicy::LocalityAware
    } else {
        DispatchPolicy::HostOnly
    };
    fnv1a(format!("{c:?}").as_bytes())
}

fn decode_header(d: &mut Decoder<'_>) -> SnapResult<Header> {
    let magic = d.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = d.u16()?;
    if version != VERSION {
        return Err(SnapError::BadVersion { found: version });
    }
    let fp_class = d.u64()?;
    let fp_exact = d.u64()?;
    let cycle = d.u64()?;
    let n = d.seq(2)?;
    let mut meta = Vec::with_capacity(n);
    for _ in 0..n {
        let k = d.str()?;
        let v = d.str()?;
        meta.push((k, v));
    }
    Ok(Header {
        fp_class,
        fp_exact,
        cycle,
        meta,
    })
}

/// Serializes one system event. Boxed payloads reuse the component
/// crates' message codecs so the wire format lives next to each type.
pub(crate) fn encode_ev(ev: &Ev, e: &mut Encoder) {
    match ev {
        Ev::CoreTick(i) => {
            e.tag(0);
            e.usize(*i);
        }
        Ev::CoreMemDone(i, id) => {
            e.tag(1);
            e.usize(*i);
            e.u64(id.0);
        }
        Ev::CorePeiDone(i, seq) => {
            e.tag(2);
            e.usize(*i);
            e.u64(*seq);
        }
        Ev::CorePeiCredit(i) => {
            e.tag(3);
            e.usize(*i);
        }
        Ev::CorePfenceDone(i) => {
            e.tag(4);
            e.usize(*i);
        }
        Ev::PrivCoreReq(i, req) => {
            e.tag(5);
            e.usize(*i);
            req.encode(e);
        }
        Ev::PrivL3Resp(i, resp) => {
            e.tag(6);
            e.usize(*i);
            resp.encode(e);
        }
        Ev::PrivRecall(i, recall) => {
            e.tag(7);
            e.usize(*i);
            recall.encode(e);
        }
        Ev::L3(b, input) => {
            e.tag(8);
            e.usize(*b);
            input.encode(e);
        }
        Ev::CtrlHostRead(id, block) => {
            e.tag(9);
            e.u64(id.0);
            e.u64(block.0);
        }
        Ev::CtrlHostWrite(block) => {
            e.tag(10);
            e.u64(block.0);
        }
        Ev::CtrlHostPim(cmd) => {
            e.tag(11);
            cmd.save(e);
        }
        Ev::CtrlMemReadDone(id, block, cube) => {
            e.tag(12);
            e.u64(id.0);
            e.u64(block.0);
            e.u16(*cube);
        }
        Ev::CtrlMemPimDone(cube, out) => {
            e.tag(13);
            e.u16(*cube);
            out.save(e);
        }
        Ev::VaultAcc(v, acc) => {
            e.tag(14);
            e.usize(*v);
            acc.encode(e);
        }
        Ev::VaultWake(v) => {
            e.tag(15);
            e.usize(*v);
        }
        Ev::MemPcuCmd(v, cmd) => {
            e.tag(16);
            e.usize(*v);
            cmd.save(e);
        }
        Ev::MemPcuVaultDone(v, id, write) => {
            e.tag(17);
            e.usize(*v);
            e.u64(id.0);
            e.bool(*write);
        }
        Ev::Pmu(input) => {
            e.tag(18);
            input.encode(e);
        }
        Ev::HostPcuDecision(c, id) => {
            e.tag(19);
            e.usize(*c);
            e.u64(id.0);
        }
        Ev::HostPcuDispatchedMem(c, id) => {
            e.tag(20);
            e.usize(*c);
            e.u64(id.0);
        }
        Ev::HostPcuL1Resp(c, id) => {
            e.tag(21);
            e.usize(*c);
            e.u64(id.0);
        }
        Ev::HostPcuMemResult(c, id, output) => {
            e.tag(22);
            e.usize(*c);
            e.u64(id.0);
            output.save(e);
        }
    }
}

/// Decodes one system event; unknown tags report their offset.
pub(crate) fn decode_ev(d: &mut Decoder<'_>) -> SnapResult<Ev> {
    let offset = d.offset();
    Ok(match d.u8()? {
        0 => Ev::CoreTick(d.usize()?),
        1 => Ev::CoreMemDone(d.usize()?, ReqId(d.u64()?)),
        2 => Ev::CorePeiDone(d.usize()?, d.u64()?),
        3 => Ev::CorePeiCredit(d.usize()?),
        4 => Ev::CorePfenceDone(d.usize()?),
        5 => Ev::PrivCoreReq(d.usize()?, CoreReq::decode(d)?),
        6 => Ev::PrivL3Resp(d.usize()?, L3Resp::decode(d)?),
        7 => Ev::PrivRecall(d.usize()?, Recall::decode(d)?),
        8 => Ev::L3(d.usize()?, L3In::decode(d)?),
        9 => Ev::CtrlHostRead(ReqId(d.u64()?), BlockAddr(d.u64()?)),
        10 => Ev::CtrlHostWrite(BlockAddr(d.u64()?)),
        11 => Ev::CtrlHostPim(Box::new(PimCmd::load(d)?)),
        12 => Ev::CtrlMemReadDone(ReqId(d.u64()?), BlockAddr(d.u64()?), d.u16()?),
        13 => Ev::CtrlMemPimDone(d.u16()?, Box::new(PimOut::load(d)?)),
        14 => Ev::VaultAcc(d.usize()?, VaultIn::decode(d)?),
        15 => Ev::VaultWake(d.usize()?),
        16 => Ev::MemPcuCmd(d.usize()?, Box::new(PimCmd::load(d)?)),
        17 => Ev::MemPcuVaultDone(d.usize()?, ReqId(d.u64()?), d.bool()?),
        18 => Ev::Pmu(Box::new(PmuIn::decode(d)?)),
        19 => Ev::HostPcuDecision(d.usize()?, ReqId(d.u64()?)),
        20 => Ev::HostPcuDispatchedMem(d.usize()?, ReqId(d.u64()?)),
        21 => Ev::HostPcuL1Resp(d.usize()?, ReqId(d.u64()?)),
        22 => Ev::HostPcuMemResult(
            d.usize()?,
            ReqId(d.u64()?),
            Box::new(OperandValue::load(d)?),
        ),
        found => {
            return Err(SnapError::BadTag {
                offset,
                found,
                what: "system event variant",
            })
        }
    })
}

fn encode_events(e: &mut Encoder, events: &[(Cycle, Ev)]) {
    e.seq(events.len());
    for (at, ev) in events {
        e.u64(*at);
        encode_ev(ev, e);
    }
}

fn decode_events(d: &mut Decoder<'_>) -> SnapResult<Vec<(Cycle, Ev)>> {
    let n = d.seq(9)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let at = d.u64()?;
        out.push((at, decode_ev(d)?));
    }
    Ok(out)
}

fn mismatch(what: impl Into<String>) -> SnapError {
    SnapError::Mismatch { what: what.into() }
}

impl System {
    /// Serializes the complete machine state. The machine must be
    /// quiescent between events (before a run, between `run` calls, or
    /// paused via [`run_paused`](System::run_paused)).
    ///
    /// Capture is non-perturbing: continuing this machine afterwards is
    /// byte-identical to never having snapshotted (the event queue is
    /// drained in canonical pop order and rebuilt, which preserves all
    /// observable ordering).
    ///
    /// # Errors
    ///
    /// Refuses machines with armed fault injection or recorded invariant
    /// violations (their state is intentionally sick).
    pub fn snapshot(&mut self) -> SnapResult<Snapshot> {
        self.snapshot_with_meta(&[])
    }

    /// [`snapshot`](System::snapshot) with caller metadata (string
    /// pairs) embedded in the header — the batch runner records its
    /// (workload, scale, seed) recipe here so `--resume` and
    /// `trace_bisect` can name what they are looking at.
    pub fn snapshot_with_meta(&mut self, meta: &[(String, String)]) -> SnapResult<Snapshot> {
        if self.faults.is_some() {
            return Err(mismatch(
                "cannot snapshot a machine with armed fault injection",
            ));
        }
        if !self.violations.is_empty() {
            return Err(mismatch(
                "cannot snapshot a machine with recorded invariant violations",
            ));
        }

        let cycle = self.resume_cycle();
        let mut e = Encoder::new();
        e.raw(MAGIC);
        e.u16(VERSION);
        e.u64(class_fingerprint(&self.cfg));
        e.u64(config_fingerprint(&self.cfg));
        e.u64(cycle);
        e.seq(meta.len());
        for (k, v) in meta {
            e.str(k);
            e.str(v);
        }

        // Event queue, drained in canonical order and rebuilt.
        e.tag(TAG_QUEUE);
        let scheduled = self.queue.total_scheduled();
        e.u64(scheduled);
        let events = self.queue.drain_ordered();
        encode_events(&mut e, &events);
        self.rebuild_queue(events, scheduled);

        e.tag(TAG_CORES);
        e.seq(self.cores.len());
        for c in &self.cores {
            c.save(&mut e);
        }
        e.tag(TAG_PRIVS);
        e.seq(self.privs.len());
        for p in &self.privs {
            p.save(&mut e);
        }
        e.tag(TAG_L3);
        e.seq(self.l3banks.len());
        for b in &self.l3banks {
            b.save(&mut e);
        }
        e.tag(TAG_XBAR);
        self.xbar.save(&mut e);
        e.tag(TAG_CTRL);
        self.ctrl.save(&mut e);
        e.tag(TAG_VAULTS);
        e.seq(self.vaults.len());
        for v in &self.vaults {
            v.save(&mut e);
        }
        e.tag(TAG_MEM_PCUS);
        e.seq(self.mem_pcus.len());
        for p in &self.mem_pcus {
            p.save(&mut e);
        }
        e.tag(TAG_HOST_PCUS);
        e.seq(self.host_pcus.len());
        for p in &self.host_pcus {
            p.save(&mut e);
        }
        e.tag(TAG_PMU);
        self.pmu.save(&mut e);

        // Functional memory, embedded in its own (already versioned)
        // container format.
        e.tag(TAG_STORE);
        let mut raw = Vec::new();
        self.store
            .save(&mut raw)
            .expect("in-memory write cannot fail");
        e.bytes(&raw);

        // Workload groups: phase progress and drain flags. The trace
        // generator itself is not serialized — restore fast-forwards the
        // target's freshly constructed generator by `phases` calls.
        e.tag(TAG_GROUPS);
        e.seq(self.groups.len());
        for g in &self.groups {
            e.u64(g.phases);
            e.bool(g.done);
            e.u64(g.instructions_at_done);
            e.usize(g.drained_count);
            e.seq(g.cores.len());
            for (&c, &dr) in g.cores.iter().zip(&g.drained) {
                e.usize(c);
                e.bool(dr);
            }
        }

        e.tag(TAG_RUN);
        e.u64(self.finish_time);
        e.u64(self.dispatched);
        e.u64(self.xsends);

        e.tag(TAG_CHECKS);
        e.opt(self.checks.is_some());
        if let Some(ch) = &self.checks {
            e.u64(ch.cfg.interval);
            e.u64(ch.cfg.mshr_age_bound);
            e.usize(ch.cfg.max_events);
            e.usize(ch.cfg.window);
            e.u64(ch.next_sweep);
            let mut seen: Vec<(usize, u64, Cycle)> = ch
                .mshr_seen
                .iter()
                .map(|(&(c, b), &at)| (c, b, at))
                .collect();
            seen.sort_unstable();
            e.seq(seen.len());
            for (c, b, at) in seen {
                e.usize(c);
                e.u64(b);
                e.u64(at);
            }
        }

        e.tag(TAG_END);

        let bytes = e.into_bytes();
        let header = {
            let mut d = Decoder::new(&bytes);
            decode_header(&mut d).expect("freshly encoded header")
        };
        Ok(Snapshot { bytes, header })
    }

    /// Loads a snapshot into this machine. The target must be freshly
    /// constructed and identically shaped: same [`MachineConfig`] up to
    /// dispatch policy within the same monitor class, the same
    /// `add_workload` calls (the workload generators are re-created, not
    /// serialized), and the same checked-mode setting.
    ///
    /// After a successful restore, continue with `run`; the continued
    /// run is byte-identical to the uninterrupted original.
    ///
    /// # Errors
    ///
    /// Reports configuration/class mismatches, shape mismatches, and any
    /// malformed input with the byte offset of the failure. On error the
    /// target machine may hold partially loaded state and must be
    /// discarded.
    pub fn restore(&mut self, snap: &Snapshot) -> SnapResult<()> {
        let mut d = Decoder::new(&snap.bytes);
        let hdr = decode_header(&mut d)?;
        let my_class = class_fingerprint(&self.cfg);
        if hdr.fp_class != my_class {
            return Err(mismatch(format!(
                "snapshot is from an incompatible machine (class fingerprint \
                 {:#018x}, this machine {:#018x}); a snapshot restores only onto \
                 a machine whose configuration differs at most in dispatch \
                 policy within the same monitor class",
                hdr.fp_class, my_class
            )));
        }
        if self.dispatched != 0 || self.queue.total_scheduled() != 0 {
            return Err(mismatch(
                "restore target must be a freshly constructed System (System::new \
                 + add_workload, not yet run)",
            ));
        }
        if self.faults.is_some() {
            return Err(mismatch("restore target must not have armed faults"));
        }

        d.expect_tag(TAG_QUEUE, "event-queue section")?;
        let scheduled = d.u64()?;
        let events = decode_events(&mut d)?;

        d.expect_tag(TAG_CORES, "core section")?;
        check_len("cores", d.seq(1)?, self.cores.len())?;
        for c in &mut self.cores {
            c.load(&mut d)?;
        }
        d.expect_tag(TAG_PRIVS, "private-cache section")?;
        check_len("private caches", d.seq(1)?, self.privs.len())?;
        for p in &mut self.privs {
            p.load(&mut d)?;
        }
        d.expect_tag(TAG_L3, "L3 section")?;
        check_len("L3 banks", d.seq(1)?, self.l3banks.len())?;
        for b in &mut self.l3banks {
            b.load(&mut d)?;
        }
        d.expect_tag(TAG_XBAR, "crossbar section")?;
        self.xbar.load(&mut d)?;
        d.expect_tag(TAG_CTRL, "link-controller section")?;
        self.ctrl.load(&mut d)?;
        d.expect_tag(TAG_VAULTS, "vault section")?;
        check_len("vaults", d.seq(1)?, self.vaults.len())?;
        for v in &mut self.vaults {
            v.load(&mut d)?;
        }
        d.expect_tag(TAG_MEM_PCUS, "memory-PCU section")?;
        check_len("memory PCUs", d.seq(1)?, self.mem_pcus.len())?;
        for p in &mut self.mem_pcus {
            p.load(&mut d)?;
        }
        d.expect_tag(TAG_HOST_PCUS, "host-PCU section")?;
        check_len("host PCUs", d.seq(1)?, self.host_pcus.len())?;
        for p in &mut self.host_pcus {
            p.load(&mut d)?;
        }
        d.expect_tag(TAG_PMU, "PMU section")?;
        self.pmu.load(&mut d)?;

        d.expect_tag(TAG_STORE, "backing-store section")?;
        let raw = d.bytes()?;
        let mem = BackingStore::load(&mut &raw[..])
            .map_err(|err| d.bad(format!("backing store payload: {err}")))?;
        self.store = mem;

        d.expect_tag(TAG_GROUPS, "workload-group section")?;
        check_len("workload groups", d.seq(1)?, self.groups.len())?;
        for g in &mut self.groups {
            let phases = d.u64()?;
            g.done = d.bool()?;
            g.instructions_at_done = d.u64()?;
            g.drained_count = d.usize()?;
            let nc = d.seq(9)?;
            check_len("group cores", nc, g.cores.len())?;
            for i in 0..nc {
                let c = d.usize()?;
                let dr = d.bool()?;
                if c != g.cores[i] {
                    return Err(d.bad(format!(
                        "group core list mismatch: snapshot assigned core {c} \
                         where this machine assigned core {}",
                        g.cores[i]
                    )));
                }
                g.drained[i] = dr;
            }
            // Phases already delivered live inside the serialized core
            // state; advance the fresh generator past them, discarding.
            for _ in 0..phases {
                let _ = g.trace.next_phase();
            }
            g.phases = phases;
        }

        d.expect_tag(TAG_RUN, "run-accounting section")?;
        self.finish_time = d.u64()?;
        self.dispatched = d.u64()?;
        self.xsends = d.u64()?;

        d.expect_tag(TAG_CHECKS, "checked-mode section")?;
        let snap_checks = d.opt()?;
        match (self.checks.as_deref_mut(), snap_checks) {
            (Some(ch), true) => {
                let cfg = CheckConfig {
                    interval: d.u64()?,
                    mshr_age_bound: d.u64()?,
                    max_events: d.usize()?,
                    window: d.usize()?,
                };
                if cfg != ch.cfg {
                    return Err(mismatch(format!(
                        "checked-mode configuration differs: snapshot ran with \
                         {:?}, this machine has {:?}",
                        cfg, ch.cfg
                    )));
                }
                ch.next_sweep = d.u64()?;
                let n = d.seq(17)?;
                ch.mshr_seen.clear();
                for _ in 0..n {
                    let c = d.usize()?;
                    let b = d.u64()?;
                    let at = d.u64()?;
                    ch.mshr_seen.insert((c, b), at);
                }
            }
            (None, false) => {}
            (Some(_), false) => {
                return Err(mismatch(
                    "snapshot was taken without checked mode but this machine has \
                     checks enabled; match the --check setting to resume \
                     byte-identically",
                ))
            }
            (None, true) => {
                return Err(mismatch(
                    "snapshot was taken in checked mode but this machine has \
                     checks disabled; match the --check setting to resume \
                     byte-identically",
                ))
            }
        }

        d.expect_tag(TAG_END, "end-of-snapshot marker")?;
        d.finish()?;

        // Install the queue only after the whole stream validated.
        self.rebuild_queue(events, scheduled);
        self.violations.clear();
        Ok(())
    }

    /// Rebuilds the queue from `(cycle, event)` pairs in canonical
    /// order, restoring the lifetime-scheduled tally.
    pub(crate) fn rebuild_queue(&mut self, events: Vec<(Cycle, Ev)>, scheduled: u64) {
        let mut q = EventQueue::with_horizon(self.cfg.event_horizon());
        for (at, ev) in events {
            q.schedule(at, ev);
        }
        q.restore_accounting(scheduled);
        self.queue = q;
    }

    /// Lower bound of the cycle a restored run resumes at: the earliest
    /// pending event, or the finish time when nothing is pending.
    fn resume_cycle(&self) -> Cycle {
        self.queue.peek_time().unwrap_or(self.finish_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: Ev) -> Ev {
        let mut e = Encoder::new();
        encode_ev(&ev, &mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = decode_ev(&mut d).expect("decode");
        d.finish().expect("fully consumed");
        back
    }

    #[test]
    fn event_codec_roundtrips_inline_variants() {
        for ev in [
            Ev::CoreTick(3),
            Ev::CoreMemDone(1, ReqId(0xdead)),
            Ev::CorePeiDone(2, 77),
            Ev::CorePeiCredit(0),
            Ev::CorePfenceDone(5),
            Ev::CtrlHostRead(ReqId(9), BlockAddr(0x40)),
            Ev::CtrlHostWrite(BlockAddr(0x80)),
            Ev::CtrlMemReadDone(ReqId(11), BlockAddr(0xc0), 1),
            Ev::VaultWake(6),
            Ev::MemPcuVaultDone(4, ReqId(13), true),
            Ev::HostPcuDecision(1, ReqId(21)),
            Ev::HostPcuDispatchedMem(2, ReqId(22)),
            Ev::HostPcuL1Resp(3, ReqId(23)),
        ] {
            let want = format!("{ev:?}");
            let got = format!("{:?}", roundtrip(ev));
            assert_eq!(want, got);
        }
    }

    #[test]
    fn event_codec_roundtrips_boxed_variants() {
        use pei_types::{Addr, PimOpKind};
        let cmd = PimCmd {
            id: ReqId(42),
            target: Addr(0x1000),
            op: PimOpKind::IncU64,
            input: OperandValue::None,
        };
        let ev = Ev::CtrlHostPim(Box::new(cmd));
        assert_eq!(format!("{ev:?}"), format!("{:?}", roundtrip(ev)));
        let ev = Ev::HostPcuMemResult(2, ReqId(7), Box::new(OperandValue::U64(5)));
        assert_eq!(format!("{ev:?}"), format!("{:?}", roundtrip(ev)));
    }

    #[test]
    fn unknown_event_tag_reports_offset() {
        let mut e = Encoder::new();
        e.tag(0xee);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        match decode_ev(&mut d) {
            Err(SnapError::BadTag { offset, found, .. }) => {
                assert_eq!(offset, 0);
                assert_eq!(found, 0xee);
            }
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let mut e = Encoder::new();
        e.raw(b"NOTASNAP");
        let bytes = e.into_bytes();
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapError::BadMagic)
        ));
        // Version 1 carried an engine flag and a pause section for a
        // removed engine; every version-1 file is refused by version.
        for found in [1, 999] {
            let mut e = Encoder::new();
            e.raw(MAGIC);
            e.u16(found);
            let bytes = e.into_bytes();
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes),
                    Err(SnapError::BadVersion { found: f }) if f == found
                ),
                "version {found} must be refused"
            );
        }
    }

    #[test]
    fn class_fingerprint_merges_policies_within_a_class() {
        let la = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        let lab = MachineConfig::scaled(DispatchPolicy::LocalityAwareBalanced);
        let host = MachineConfig::scaled(DispatchPolicy::HostOnly);
        let pim = MachineConfig::scaled(DispatchPolicy::PimOnly);
        assert_eq!(class_fingerprint(&la), class_fingerprint(&lab));
        assert_eq!(class_fingerprint(&host), class_fingerprint(&pim));
        assert_ne!(class_fingerprint(&la), class_fingerprint(&host));
        // Exact fingerprints stay distinct.
        assert_ne!(config_fingerprint(&la), config_fingerprint(&lab));
        // Non-policy differences break both fingerprints.
        let mut big = la;
        big.cores = la.cores * 2;
        assert_ne!(class_fingerprint(&la), class_fingerprint(&big));
    }
}
