//! Criterion microbenchmarks of the simulator's hot components: these
//! bound the cost of simulation itself (events/second), complementing the
//! `figures` binary that reproduces the paper's results.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pei_bench::service::result_frame;
use pei_bench::tracecap::CaptureSpec;
use pei_core::{DispatchPolicy, LocalityMonitor, PimDirectory};
use pei_cpu::trace::{Op, VecPhases};
use pei_engine::EventQueue;
use pei_mem::{BackingStore, CacheArray, LineState};
use pei_system::{MachineConfig, System};
use pei_types::wire::Response;
use pei_types::{Addr, BlockAddr, OperandValue, PimOpKind, ReqId};
use pei_workloads::{InputSize, Workload};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("engine/event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule((i * 7919) % 1000, i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    // The simulator's actual pattern: a small pending population of
    // near-future events advancing through time (hold model), with a
    // thin far-future tail exercising the calendar queue's overflow
    // path. This is the number the BinaryHeap → calendar-queue swap is
    // judged on; the drain-sorted bench above mostly measures bulk
    // loading.
    c.bench_function("engine/event_queue_steady_state_64k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut x = 0x9e3779b97f4a7c15u64;
            // Seed a plausible pending population.
            for i in 0..48u64 {
                q.schedule(i % 60, i);
            }
            let mut acc = 0u64;
            let mut popped = 0u64;
            while let Some((now, v)) = q.pop() {
                acc = acc.wrapping_add(v);
                popped += 1;
                if popped >= 65_536 {
                    break;
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Mostly cache/crossbar/DRAM-scale deltas, one far
                // event (deep channel backlog) per ~100 pops.
                q.schedule(now + 1 + x % 60, v);
                if x.is_multiple_of(101) {
                    q.schedule(now + 4000 + x % 2000, v);
                }
            }
            black_box(acc)
        })
    });
    // Reference: the same steady-state loop over a plain binary heap
    // (the pre-calendar-queue implementation), kept as a permanent
    // side-by-side so the calendar queue's advantage — or a regression
    // — is visible in any bench run, not only across checkouts.
    c.bench_function("engine/event_queue_steady_state_64k_heap_ref", |b| {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        b.iter(|| {
            let mut q: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut x = 0x9e3779b97f4a7c15u64;
            for i in 0..48u64 {
                seq += 1;
                q.push(Reverse((i % 60, seq, i)));
            }
            let mut acc = 0u64;
            let mut popped = 0u64;
            while let Some(Reverse((now, _, v))) = q.pop() {
                acc = acc.wrapping_add(v);
                popped += 1;
                if popped >= 65_536 {
                    break;
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                seq += 1;
                q.push(Reverse((now + 1 + x % 60, seq, v)));
                if x.is_multiple_of(101) {
                    seq += 1;
                    q.push(Reverse((now + 4000 + x % 2000, seq, v)));
                }
            }
            black_box(acc)
        })
    });
}

fn bench_cache_array(c: &mut Criterion) {
    c.bench_function("mem/cache_array_probe_1k", |b| {
        let mut arr = CacheArray::new(1024, 16);
        for i in 0..8192u64 {
            arr.insert(BlockAddr(i), LineState::Shared);
        }
        b.iter(|| {
            let mut hits = 0;
            for i in 0..1000u64 {
                if arr.lookup(BlockAddr(i * 13 % 16384)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn bench_pim_directory(c: &mut Criterion) {
    c.bench_function("core/pim_directory_acquire_release_1k", |b| {
        b.iter(|| {
            let mut dir = PimDirectory::new(2048, false);
            let mut granted = Vec::new();
            for i in 0..1000u64 {
                dir.acquire(ReqId(i), BlockAddr(i % 512), i % 3 == 0);
            }
            for i in 0..1000u64 {
                dir.release(ReqId(i), &mut granted);
                black_box(granted.len());
                granted.clear();
            }
        })
    });
}

fn bench_locality_monitor(c: &mut Criterion) {
    c.bench_function("core/locality_monitor_mixed_1k", |b| {
        let mut mon = LocalityMonitor::new(1024, 16, 10, false);
        b.iter(|| {
            let mut hits = 0;
            for i in 0..1000u64 {
                if i % 3 == 0 {
                    mon.on_l3_access(BlockAddr(i % 4096));
                } else if mon.query(BlockAddr(i % 4096)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn bench_pim_op_apply(c: &mut Criterion) {
    c.bench_function("core/apply_fadd_1k", |b| {
        let mut mem = BackingStore::new();
        let a = mem.alloc_block();
        b.iter(|| {
            for _ in 0..1000 {
                pei_core::ops::apply(PimOpKind::AddF64, a, &OperandValue::F64(0.5), &mut mem);
            }
            black_box(mem.read_f64(a))
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    c.bench_function("system/1k_pei_increments_end_to_end", |b| {
        b.iter(|| {
            let mut store = BackingStore::new();
            let targets: Vec<Addr> = (0..256).map(|_| store.alloc_block()).collect();
            let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
            let mut sys = System::new(cfg, store);
            let ops: Vec<Op> = (0..1000)
                .map(|i| Op::pei(PimOpKind::IncU64, targets[i % 256], OperandValue::None))
                .chain([Op::Pfence])
                .collect();
            sys.add_workload(Box::new(VecPhases::single(ops)), vec![0]);
            black_box(sys.run(u64::MAX).cycles)
        })
    });
}

/// Decoding one daemon result frame, the client's cost per job: the
/// frame carries the stats report of a PR cell on the scaled machine
/// (about 9 KB) as one JSON string.
fn bench_json_decode(c: &mut Criterion) {
    c.bench_function("types/json_decode_result_frame", |b| {
        let spec = CaptureSpec {
            workload: Workload::Pr,
            size: InputSize::Small,
            pei_budget: Some(500),
            ..CaptureSpec::default()
        };
        let line = Response::Result(result_frame(1, &spec.to_run_spec().run(), None)).encode();
        b.iter(|| black_box(Response::decode(black_box(&line)).is_ok()))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_cache_array,
    bench_pim_directory,
    bench_locality_monitor,
    bench_pim_op_apply,
    bench_end_to_end,
    bench_json_decode
);
criterion_main!(benches);
