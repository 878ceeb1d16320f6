//! End-to-end integration tests of the assembled machine: PEI execution on
//! both sides, coherence interactions, atomicity, pfence, dispatch
//! policies, multiprogramming, and sliced (pausable) runs.

use pei_core::DispatchPolicy;
use pei_cpu::trace::{Op, PhasedTrace, VecPhases};
use pei_mem::BackingStore;
use pei_system::{CheckConfig, MachineConfig, RunResult, RunStatus, System};
use pei_types::{Addr, OperandValue, PimOpKind};

const LIMIT: u64 = 50_000_000;

fn inc(target: Addr) -> Op {
    Op::pei(PimOpKind::IncU64, target, OperandValue::None)
}

#[test]
fn host_only_pei_executes_and_applies() {
    let mut store = BackingStore::new();
    let a = store.alloc_block();
    store.write_u64(a, 10);
    let mut sys = System::new(MachineConfig::scaled(DispatchPolicy::HostOnly), store);
    sys.add_workload(
        Box::new(VecPhases::single(vec![inc(a), Op::Pfence])),
        vec![0],
    );
    let r = sys.run(LIMIT);
    assert_eq!(sys.store().read_u64(a), 11);
    assert_eq!(r.peis, 1);
    assert_eq!(r.pim_fraction, 0.0, "host-only never offloads");
    // Host execution fetched the block from memory once (cold miss).
    assert!(r.dram_accesses >= 1);
}

#[test]
fn pim_only_pei_executes_in_memory() {
    let mut store = BackingStore::new();
    let a = store.alloc_block();
    store.write_u64(a, 10);
    let mut sys = System::new(MachineConfig::scaled(DispatchPolicy::PimOnly), store);
    sys.add_workload(
        Box::new(VecPhases::single(vec![inc(a), Op::Pfence])),
        vec![0],
    );
    let r = sys.run(LIMIT);
    assert_eq!(sys.store().read_u64(a), 11);
    assert_eq!(r.pim_fraction, 1.0, "pim-only always offloads");
    // The increment is a read-modify-write at the vault: 2 DRAM accesses.
    assert_eq!(r.dram_accesses, 2);
    // Off-chip: one 16 B PimReq + one 16 B PimResp.
    assert_eq!(r.offchip_flits, (1, 1));
}

#[test]
fn atomicity_under_contention_from_all_cores() {
    // Every core hammers the same block with increments; the final value
    // must be exact regardless of policy. This exercises the PIM
    // directory's writer serialization end to end.
    for policy in [
        DispatchPolicy::HostOnly,
        DispatchPolicy::PimOnly,
        DispatchPolicy::LocalityAware,
    ] {
        let mut store = BackingStore::new();
        let a = store.alloc_block();
        let cfg = MachineConfig::scaled(policy);
        let per_core = 50u64;
        let mut sys = System::new(cfg, store);
        let phases = vec![(0..cfg.cores)
            .map(|_| {
                let mut ops: Vec<Op> = (0..per_core).map(|_| inc(a)).collect();
                ops.push(Op::Pfence);
                ops
            })
            .collect()];
        sys.add_workload(
            Box::new(VecPhases::new(cfg.cores, phases)),
            (0..cfg.cores).collect(),
        );
        let r = sys.run(LIMIT);
        assert_eq!(
            sys.store().read_u64(a),
            per_core * cfg.cores as u64,
            "lost updates under {policy}"
        );
        assert_eq!(r.peis, per_core * cfg.cores as u64);
    }
}

#[test]
fn min_converges_to_global_minimum() {
    let mut store = BackingStore::new();
    let a = store.alloc_block();
    store.write_u64(a, u64::MAX);
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let mut sys = System::new(cfg, store);
    // Each core contributes decreasing candidates; global min is 3.
    let phase: Vec<Vec<Op>> = (0..cfg.cores)
        .map(|c| {
            (0..20)
                .map(|i| {
                    Op::pei(
                        PimOpKind::MinU64,
                        a,
                        OperandValue::U64(3 + ((c as u64 * 7 + i * 13) % 1000)),
                    )
                })
                .chain([Op::Pfence])
                .collect()
        })
        .collect();
    sys.add_workload(
        Box::new(VecPhases::new(cfg.cores, vec![phase])),
        (0..cfg.cores).collect(),
    );
    sys.run(LIMIT);
    assert_eq!(sys.store().read_u64(a), 3);
}

#[test]
fn locality_aware_hot_block_stays_on_host() {
    let mut store = BackingStore::new();
    let a = store.alloc_block();
    let mut sys = System::new(MachineConfig::scaled(DispatchPolicy::LocalityAware), store);
    // Warm the block with loads (L3 sees the miss fill), then issue PEIs.
    let mut ops = vec![Op::load(a), Op::Barrier];
    ops.extend((0..10).map(|_| inc(a)));
    ops.push(Op::Pfence);
    sys.add_workload(Box::new(VecPhases::single(ops)), vec![0]);
    let r = sys.run(LIMIT);
    assert!(
        r.pim_fraction < 0.5,
        "hot block should mostly run on host, pim_fraction = {}",
        r.pim_fraction
    );
    assert_eq!(sys.store().read_u64(a), 10);
}

#[test]
fn locality_aware_cold_stream_goes_to_memory() {
    let mut store = BackingStore::new();
    // A long stream of distinct cold blocks.
    let targets: Vec<Addr> = (0..400).map(|_| store.alloc_block()).collect();
    let mut sys = System::new(MachineConfig::scaled(DispatchPolicy::LocalityAware), store);
    let mut ops: Vec<Op> = targets.iter().map(|&t| inc(t)).collect();
    ops.push(Op::Pfence);
    sys.add_workload(Box::new(VecPhases::single(ops)), vec![0]);
    let r = sys.run(LIMIT);
    assert!(
        r.pim_fraction > 0.9,
        "cold blocks should offload, pim_fraction = {}",
        r.pim_fraction
    );
}

#[test]
fn dirty_host_data_reaches_memory_side_pei() {
    // A host-side PEI dirties the block in the L1; a later PIM-only-style
    // offload must see the value via back-invalidation. We force this by
    // warming (host executes first PEI under LocalityAware after L3
    // touch), then issuing enough cold traffic to evict... simpler: use
    // two phases with different policies via functional check under
    // LocalityAware where the second PEI offloads (ignore-bit path).
    let mut store = BackingStore::new();
    let a = store.alloc_block();
    let mut sys = System::new(MachineConfig::scaled(DispatchPolicy::LocalityAware), store);
    // Phase 1: two PEIs — first offloads (cold), allocating a monitor
    // entry with the ignore bit; second offloads again (first hit
    // ignored); third runs on host (hit). Then a fourth cold-start PEI...
    // Regardless of where each runs, the sum must be exact — that is the
    // coherence guarantee under test.
    let ops: Vec<Op> = (0..5).map(|_| inc(a)).chain([Op::Pfence]).collect();
    sys.add_workload(Box::new(VecPhases::single(ops)), vec![0]);
    let r = sys.run(LIMIT);
    assert_eq!(sys.store().read_u64(a), 5);
    // Both execution sides were exercised.
    let host = r.stats.expect("pmu.host_dispatched");
    let mem = r.stats.expect("pmu.mem_dispatched");
    assert!(host > 0.0 && mem > 0.0, "host {host} mem {mem}");
    // The host-side executions required flushes when later offloads hit
    // the same block.
    assert!(r.stats.expect("l3.flushes") > 0.0);
}

#[test]
fn pfence_orders_phases() {
    let mut store = BackingStore::new();
    let a = store.alloc_block();
    let mut sys = System::new(MachineConfig::scaled(DispatchPolicy::PimOnly), store);
    // Phase 1 increments; phase 2 (after the implicit barrier) loads the
    // value. The pfence inside phase 1 guarantees writer completion.
    let phases = vec![
        vec![vec![inc(a), inc(a), Op::Pfence]],
        vec![vec![Op::load(a)]],
    ];
    sys.add_workload(Box::new(VecPhases::new(1, phases)), vec![0]);
    let r = sys.run(LIMIT);
    assert_eq!(sys.store().read_u64(a), 2);
    assert_eq!(r.stats.expect("pmu.pfences"), 1.0);
}

#[test]
fn reader_pei_returns_outputs_through_both_paths() {
    // HashProbe through memory (cold) and host (after warming).
    let mut store = BackingStore::new();
    let bucket = store.alloc_block();
    store.write_u64(bucket, 777); // key present
    let mut sys = System::new(MachineConfig::scaled(DispatchPolicy::LocalityAware), store);
    let probe = |dep| Op::Pei {
        op: PimOpKind::HashProbe,
        target: bucket,
        input: OperandValue::U64(777),
        dep_dist: dep,
    };
    sys.add_workload(
        Box::new(VecPhases::single(vec![
            probe(0),
            probe(1),
            probe(1),
            probe(1),
        ])),
        vec![0],
    );
    let r = sys.run(LIMIT);
    assert_eq!(r.peis, 4);
    assert_eq!(sys.store().read_u64(bucket), 777, "probe must not mutate");
}

#[test]
fn multiprogrammed_groups_complete_independently() {
    let mut store = BackingStore::new();
    let a = store.alloc_block();
    let b = store.alloc_block();
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    assert!(cfg.cores >= 4);
    let mut sys = System::new(cfg, store);
    // Group A: 2 threads, many phases. Group B: 2 threads, few phases.
    let phases_a = (0..4)
        .map(|_| vec![vec![inc(a), Op::Pfence], vec![Op::Compute(100)]])
        .collect();
    let phases_b = vec![vec![vec![inc(b), Op::Pfence], vec![Op::Compute(10)]]];
    sys.add_workload(Box::new(VecPhases::new(2, phases_a)), vec![0, 1]);
    sys.add_workload(Box::new(VecPhases::new(2, phases_b)), vec![2, 3]);
    let r = sys.run(LIMIT);
    assert_eq!(sys.store().read_u64(a), 4);
    assert_eq!(sys.store().read_u64(b), 1);
    assert!(r.instructions > 0);
}

#[test]
fn ideal_host_is_at_least_as_fast_as_host_only() {
    let mk = |cfg: MachineConfig| {
        let mut store = BackingStore::new();
        let a = store.alloc_block();
        let mut sys = System::new(cfg, store);
        let ops: Vec<Op> = (0..200).map(|_| inc(a)).chain([Op::Pfence]).collect();
        sys.add_workload(Box::new(VecPhases::single(ops)), vec![0]);
        sys.run(LIMIT).cycles
    };
    let host_only = mk(MachineConfig::scaled(DispatchPolicy::HostOnly));
    let ideal = mk(MachineConfig::scaled(DispatchPolicy::HostOnly).ideal_host());
    assert!(ideal <= host_only, "ideal {ideal} vs real {host_only}");
}

#[test]
fn normal_loads_and_stores_complete_with_coherence() {
    // Cores ping-pong a block with stores: exercises GetM/recall paths.
    let mut store = BackingStore::new();
    let a = store.alloc_block();
    let cfg = MachineConfig::scaled(DispatchPolicy::HostOnly);
    let mut sys = System::new(cfg, store);
    let phase: Vec<Vec<Op>> = (0..cfg.cores)
        .map(|_| (0..30).map(|_| Op::store(a)).collect())
        .collect();
    sys.add_workload(
        Box::new(VecPhases::new(cfg.cores, vec![phase])),
        (0..cfg.cores).collect(),
    );
    let r = sys.run(LIMIT);
    assert!(
        r.stats.expect("cache.l2.recalls") > 0.0,
        "write sharing must recall"
    );
    assert_eq!(r.instructions, 30 * cfg.cores as u64);
}

#[test]
fn streaming_loads_generate_expected_offchip_traffic() {
    // 256 cold blocks, read once: 256 reads = 256 * (16 + 80) wire bytes,
    // plus nothing else (no writebacks of clean data).
    let mut store = BackingStore::new();
    let targets: Vec<Addr> = (0..256).map(|_| store.alloc_block()).collect();
    let mut sys = System::new(MachineConfig::scaled(DispatchPolicy::HostOnly), store);
    let ops: Vec<Op> = targets.iter().map(|&t| Op::load(t)).collect();
    sys.add_workload(Box::new(VecPhases::single(ops)), vec![0]);
    let r = sys.run(LIMIT);
    assert_eq!(r.offchip_bytes, 256 * 96);
    assert_eq!(r.dram_accesses, 256);
}

/// A mixed multi-phase workload (loads, stores, PEIs on several cores)
/// so a slice boundary lands with traffic in flight at every layer.
fn mixed_workload(store: &mut BackingStore, threads: usize, blocks: usize) -> Box<dyn PhasedTrace> {
    let addrs: Vec<Addr> = (0..blocks).map(|_| store.alloc_block()).collect();
    let mut phase1 = vec![Vec::new(); threads];
    let mut phase2 = vec![Vec::new(); threads];
    for (i, &a) in addrs.iter().enumerate() {
        let t = i % threads;
        phase1[t].push(Op::load(a));
        phase1[t].push(inc(a));
        phase2[t].push(Op::store(a));
        if i % 3 == 0 {
            phase2[t].push(Op::pei(PimOpKind::MinU64, a, OperandValue::U64(1)));
        }
    }
    Box::new(VecPhases::new(threads, vec![phase1, phase2]))
}

/// Builds the mixed-workload machine for `cfg`, in checked mode when
/// `check` is set — every call with the same arguments constructs an
/// identical machine over an identical store.
fn build_mixed(cfg: MachineConfig, check: Option<CheckConfig>) -> System {
    let mut store = BackingStore::new();
    let trace = mixed_workload(&mut store, cfg.cores, 48);
    let mut sys = System::new(cfg, store);
    sys.add_workload(trace, (0..cfg.cores).collect());
    if let Some(check) = check {
        sys.enable_checks(check);
    }
    sys
}

/// Everything a run can observably produce, as one comparable string.
fn fingerprint(r: &RunResult) -> String {
    format!(
        "{} {} {} {:?} {} {:?}\n{:?}",
        r.cycles, r.instructions, r.peis, r.offchip_flits, r.dram_accesses, r.outcome, r.stats
    )
}

/// Drives `sys` in `slice`-cycle `run_paused` windows, as the daemon's
/// job runner does: `stop` sees the cycle reached at each pause, and
/// returning true abandons the run there (`None`), the machine paused.
fn run_sliced(
    sys: &mut System,
    slice: u64,
    mut stop: impl FnMut(u64) -> bool,
) -> Option<RunResult> {
    let mut at = slice;
    loop {
        match sys.run_paused(LIMIT, Some(at)) {
            RunStatus::Completed(r) => return Some(r),
            RunStatus::Paused { at: reached } => {
                if stop(reached) {
                    return None;
                }
                at = reached + slice;
            }
        }
    }
}

#[test]
fn cancellable_run_is_byte_identical_to_unsliced() {
    // Slicing the loop into run_paused windows — what makes a daemon
    // job cancellable — changes where the run pauses, never the event
    // order inside a window: the foundation of pei-serve's
    // byte-identity contract. Under checked mode a pause must not
    // disturb auditor state either (MSHR aging, the sweep schedule):
    // the sliced run sweeps clean and matches.
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let checked = CheckConfig {
        interval: 512,
        ..CheckConfig::default()
    };
    for check in [None, Some(checked)] {
        let reference = build_mixed(cfg, check).run(LIMIT);
        assert!(reference.ok(), "{:?}: {:?}", check, reference.outcome);

        let mut beats = Vec::new();
        let sliced = run_sliced(&mut build_mixed(cfg, check), 500, |at| {
            beats.push(at);
            false
        })
        .expect("never stopped");
        assert!(sliced.ok(), "{:?}: {:?}", check, sliced.outcome);
        assert_eq!(fingerprint(&sliced), fingerprint(&reference), "{check:?}");
        assert!(
            beats.len() as u64 >= reference.cycles / 500 - 1,
            "expected a heartbeat per slice, got {} over {} cycles",
            beats.len(),
            reference.cycles
        );
        assert!(beats.windows(2).all(|w| w[0] < w[1]), "heartbeats advance");
    }
}

#[test]
fn cancelled_run_stops_and_leaves_the_machine_resumable() {
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAwareBalanced);
    let reference = build_mixed(cfg, None).run(LIMIT);
    assert!(reference.ok());

    // A pause bound of cycle 0 stops the run before any work (events
    // *at* the bound stay queued).
    let mut m = build_mixed(cfg, None);
    assert!(matches!(
        m.run_paused(LIMIT, Some(0)),
        RunStatus::Paused { at: 0 }
    ));
    assert_eq!(fingerprint(&m.run(LIMIT)), fingerprint(&reference));

    // A stop raised mid-run (as the daemon's cancel request does)
    // lands on the next slice edge — and the abandoned machine is
    // merely paused, not corrupted: resuming it completes
    // byte-identically.
    let mut m = build_mixed(cfg, None);
    let out = run_sliced(&mut m, 500, |at| at >= 2_000);
    assert!(out.is_none(), "stop observed at a slice boundary");
    let resumed = m.run(LIMIT);
    assert_eq!(fingerprint(&resumed), fingerprint(&reference));
}
