//! The paper's figures (§7) as one suite over one batch.
//!
//! Each figure is a plan function: it pushes the [`RunSpec`]s of its
//! grid into the shared `Plan` and returns the closure that prints
//! its section from the batch's results. [`run`] plans every named
//! figure into one [`Batch`], runs it once and prints each section
//! under a `===== <name> =====` header.
//!
//! Equal specs share one slot ([`Batch::push`]), so a cell that several
//! figures read runs once: Figs. 6, 7 and 12 read one {S, M, L} × ten
//! workloads grid, Fig. 2's cells are Fig. 8's, and Fig. 10, Fig. 11,
//! §7.6 and the ablations reuse grid cells as baselines. A section
//! depends only on its own cells, so it prints the same bytes whichever
//! figures share its batch and at any `--jobs`.

use crate::runner::{Batch, RunSpec};
use crate::{geomean, nine_graphs, print_cols, print_row, print_title, ExpOptions, Scale};
use pei_core::DispatchPolicy;
use pei_engine::SimRng;
use pei_system::{MachineConfig, RunResult};
use pei_workloads::{InputSize, Workload, WorkloadParams};

/// Prints one figure's section from the batch's results.
type Section = Box<dyn FnOnce(&[RunResult])>;

/// Pushes a figure's cells and returns its section printer.
type PlanFn = fn(&ExpOptions, &mut Plan) -> Section;

/// Every figure, in `figures all` order.
const FIGURES: [(&str, PlanFn); 10] = [
    ("fig2", fig2),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("pmu_overhead", pmu_overhead),
    ("ablations", ablations),
];

/// The figures a command-line name selects: itself, or every figure
/// (in `figures all` order) for `all`. `None` for an unknown name.
pub fn select(name: &str) -> Option<Vec<&'static str>> {
    let chosen: Vec<_> = FIGURES
        .iter()
        .map(|&(n, _)| n)
        .filter(|&n| name == "all" || n == name)
        .collect();
    (!chosen.is_empty()).then_some(chosen)
}

/// One batch being planned, and the figures that read each of its slots.
#[derive(Default)]
struct Plan {
    batch: Batch,
    /// The figures that read each slot, in slot order.
    users: Vec<Vec<&'static str>>,
    /// Specs pushed, repeats included.
    pushes: usize,
    /// The figure being planned.
    figure: &'static str,
}

impl Plan {
    /// Queues `spec` for the figure being planned and returns its slot.
    fn push(&mut self, spec: RunSpec) -> usize {
        let slot = self.batch.push(spec);
        self.pushes += 1;
        self.users.resize_with(self.batch.len(), Vec::new);
        if !self.users[slot].contains(&self.figure) {
            self.users[slot].push(self.figure);
        }
        slot
    }
}

/// Plans the named figures into one batch, returning it with each
/// figure's section printer.
fn plan(names: &[&'static str], opts: &ExpOptions) -> (Plan, Vec<(&'static str, Section)>) {
    let mut plan = Plan::default();
    let sections = names
        .iter()
        .map(|&name| {
            let &(_, plan_fn) = FIGURES
                .iter()
                .find(|(n, _)| *n == name)
                .expect("figure names come from `select`");
            plan.figure = name;
            (name, plan_fn(opts, &mut plan))
        })
        .collect();
    (plan, sections)
}

/// Plans the named figures into one batch, runs it once (`--jobs`,
/// `--check`; a failed cell's warning names every figure that reads
/// it) and prints each figure's section under a `===== <name> =====`
/// header, in the order named.
pub fn run(names: &[&'static str], opts: &ExpOptions) {
    let (plan, sections) = plan(names, opts);
    let results = plan.batch.run_for(opts, &plan.users);
    for (name, print) in sections {
        println!("===== {name} =====");
        print(&results);
    }
}

/// The {S, M, L} × ten-workload grid of Figs. 6, 7 and 12: per (size,
/// workload), the slots of its cells on each of `machines`.
fn grid<const N: usize>(
    opts: &ExpOptions,
    plan: &mut Plan,
    machines: [MachineConfig; N],
) -> Vec<(InputSize, Workload, [usize; N])> {
    let params = opts.workload_params();
    let mut cells = Vec::new();
    for size in InputSize::ALL {
        for w in Workload::ALL {
            let slots = machines.map(|cfg| plan.push(RunSpec::sized(cfg, params, w, size)));
            cells.push((size, w, slots));
        }
    }
    cells
}

/// Per-column geometric means of `rows` (a table's GM row).
fn column_geomeans<const N: usize>(rows: &[[f64; N]]) -> [f64; N] {
    std::array::from_fn(|c| geomean(&rows.iter().map(|row| row[c]).collect::<Vec<_>>()))
}

/// The Ideal-Host, Host-Only, PIM-Only and Locality-Aware machines.
fn four_machines(opts: &ExpOptions) -> [MachineConfig; 4] {
    [
        opts.ideal_machine(),
        opts.machine(DispatchPolicy::HostOnly),
        opts.machine(DispatchPolicy::PimOnly),
        opts.machine(DispatchPolicy::LocalityAware),
    ]
}

/// PageRank on the nine-graph series of Figs. 2 and 8: the graphs, and
/// per graph the slots of its cells under each of `policies`.
fn nine_graph_cells<const N: usize>(
    opts: &ExpOptions,
    plan: &mut Plan,
    policies: [DispatchPolicy; N],
) -> (Vec<(&'static str, usize)>, Vec<[usize; N]>) {
    let params = opts.workload_params();
    let graphs = nine_graphs(params.l3_bytes);
    let cells = graphs
        .iter()
        .map(|&(_, n)| {
            policies.map(|policy| {
                let cfg = opts.machine(policy);
                plan.push(RunSpec::on_graph(
                    cfg,
                    params,
                    Workload::Pr,
                    n,
                    10,
                    params.seed ^ n as u64,
                ))
            })
        })
        .collect();
    (graphs, cells)
}

/// Figure 2: performance improvement with an in-memory atomic addition
/// operation used for PageRank, across nine graphs of increasing size.
///
/// Paper shape: memory-side addition *loses* (up to ~20 %) on the
/// small, cache-resident graphs and *wins* (up to ~53 %) on the large
/// ones.
fn fig2(opts: &ExpOptions, plan: &mut Plan) -> Section {
    let policies = [DispatchPolicy::HostOnly, DispatchPolicy::PimOnly];
    let (graphs, cells) = nine_graph_cells(opts, plan, policies);
    Box::new(move |results| {
        print_title("Fig. 2 — PageRank speedup of memory-side atomic addition vs host-side");
        print_cols("graph", &["vertices", "host_cyc", "pim_cyc", "speedup"]);
        for (&(name, n), [host, pim]) in graphs.iter().zip(&cells) {
            let (host, pim) = (&results[*host], &results[*pim]);
            let speedup = host.cycles as f64 / pim.cycles as f64;
            print_row(
                name,
                &[n as f64, host.cycles as f64, pim.cycles as f64, speedup],
            );
        }
        println!("\nspeedup > 1: memory-side addition wins (expected for large graphs)");
    })
}

/// Figure 6: speedup of Host-Only / PIM-Only / Locality-Aware,
/// normalized to Ideal-Host, for all ten workloads under
/// small/medium/large inputs (plus the geometric mean).
///
/// Paper shape: PIM-Only wins big on large inputs (~+44 % GM) but loses
/// on small ones (~−20 % GM); Locality-Aware tracks the better of the
/// two and beats both on medium graph inputs.
fn fig6(opts: &ExpOptions, plan: &mut Plan) -> Section {
    let cells = grid(opts, plan, four_machines(opts));
    Box::new(move |results| {
        for size in InputSize::ALL {
            print_title(&format!("Fig. 6 ({size}) — speedup over Ideal-Host"));
            print_cols("workload", &["host-only", "pim-only", "loc-aware", "pim%"]);
            let mut rows = Vec::new();
            for (_, w, [ideal, host, pim, la]) in cells.iter().filter(|(s, ..)| *s == size) {
                let row = [host, pim, la]
                    .map(|i| results[*ideal].cycles as f64 / results[*i].cycles as f64);
                let [h, p, l] = row;
                print_row(w.label(), &[h, p, l, 100.0 * results[*la].pim_fraction]);
                rows.push(row);
            }
            let [h, p, l] = column_geomeans(&rows);
            print_row("GM", &[h, p, l, f64::NAN]);
        }
    })
}

/// Figure 7: total off-chip transfer of Host-Only and PIM-Only,
/// normalized to Ideal-Host, for all workloads and input sizes.
///
/// Paper shape: PIM-Only slashes off-chip traffic for large inputs and
/// *inflates* it enormously for small, cache-resident inputs (up to
/// 502× in SC).
fn fig7(opts: &ExpOptions, plan: &mut Plan) -> Section {
    let [ideal, host, pim, _] = four_machines(opts);
    let cells = grid(opts, plan, [ideal, host, pim]);
    Box::new(move |results| {
        for size in InputSize::ALL {
            print_title(&format!(
                "Fig. 7 ({size}) — off-chip bytes normalized to Ideal-Host"
            ));
            print_cols("workload", &["host-only", "pim-only"]);
            for (_, w, [ideal, host, pim]) in cells.iter().filter(|(s, ..)| *s == size) {
                let base = results[*ideal].offchip_bytes.max(1) as f64;
                print_row(
                    w.label(),
                    &[
                        results[*host].offchip_bytes as f64 / base,
                        results[*pim].offchip_bytes as f64 / base,
                    ],
                );
            }
        }
    })
}

/// Figure 8: PageRank across the nine-graph series — Host-Only,
/// PIM-Only and Locality-Aware speedups (normalized to Host-Only) plus
/// the fraction of PEIs the Locality-Aware machine offloads to memory
/// ("PIM %").
///
/// Paper shape: the PIM % climbs from ~0.3 % on the smallest graph to
/// ~87 % on the largest, and Locality-Aware tracks (or beats) the
/// better of the two static policies everywhere.
fn fig8(opts: &ExpOptions, plan: &mut Plan) -> Section {
    let policies = [
        DispatchPolicy::HostOnly,
        DispatchPolicy::PimOnly,
        DispatchPolicy::LocalityAware,
    ];
    let (graphs, cells) = nine_graph_cells(opts, plan, policies);
    Box::new(move |results| {
        print_title("Fig. 8 — PageRank vs graph size (normalized to Host-Only)");
        print_cols("graph", &["host-only", "pim-only", "loc-aware", "pim%"]);
        for (&(name, _), [host, pim, la]) in graphs.iter().zip(&cells) {
            let base = results[*host].cycles as f64;
            print_row(
                name,
                &[
                    1.0,
                    base / results[*pim].cycles as f64,
                    base / results[*la].cycles as f64,
                    100.0 * results[*la].pim_fraction,
                ],
            );
        }
    })
}

/// Figure 9: multiprogrammed workloads — random pairs of applications
/// (each spawning half the cores' worth of threads, with input sizes
/// drawn uniformly at random), comparing Locality-Aware and PIM-Only
/// against Host-Only on the sum-of-IPCs throughput metric (§7.3).
///
/// Paper shape: Locality-Aware beats both baselines for the
/// overwhelming majority of the 200 mixes.
fn fig9(opts: &ExpOptions, plan: &mut Plan) -> Section {
    let mixes = match opts.scale {
        Scale::Quick => 30,
        Scale::Full => 200,
    };

    // All randomness is drawn here, before any simulation: each mix's
    // workloads, sizes, and input seed are fixed in the specs, so the
    // table is independent of --jobs (EXPERIMENTS.md, determinism
    // contract).
    let mut rng = SimRng::seed_from(opts.seed ^ 0xf19);
    let drawn: Vec<([(Workload, InputSize); 2], u64)> = (0..mixes)
        .map(|_| {
            let pick = |rng: &mut SimRng| {
                let w = Workload::ALL[rng.gen_range(Workload::ALL.len() as u64) as usize];
                let s = InputSize::ALL[rng.gen_range(3) as usize];
                (w, s)
            };
            let mix = [pick(&mut rng), pick(&mut rng)];
            (mix, rng.next_u64())
        })
        .collect();

    let cells: Vec<[usize; 3]> = drawn
        .iter()
        .map(|&(mix, seed)| {
            [
                DispatchPolicy::HostOnly,
                DispatchPolicy::LocalityAware,
                DispatchPolicy::PimOnly,
            ]
            .map(|policy| {
                let cfg = opts.machine(policy);
                let base_params = WorkloadParams {
                    threads: cfg.cores / 2,
                    seed,
                    pei_budget: opts.workload_params().pei_budget / 4,
                    ..opts.workload_params()
                };
                // Disjoint heaps: workload B allocates far above A.
                let params_b = WorkloadParams {
                    heap_base: 0x40_0000_0000,
                    seed: seed ^ 0xb,
                    ..base_params
                };
                plan.push(RunSpec::mix(cfg, base_params, params_b, mix[0], mix[1]))
            })
        })
        .collect();
    Box::new(move |results| {
        print_title("Fig. 9 — multiprogrammed mixes (sum-of-IPCs vs Host-Only)");
        print_cols("mix", &["loc-aware", "pim-only"]);
        let mut la_beats_host = 0;
        let mut la_beats_both = 0;
        for ((mix, _), [host, la, pim]) in drawn.iter().zip(&cells) {
            let la_n = results[*la].ipc() / results[*host].ipc();
            let pim_n = results[*pim].ipc() / results[*host].ipc();
            if la_n >= 0.999 {
                la_beats_host += 1;
            }
            if la_n >= 0.999 && la_n >= pim_n - 1e-3 {
                la_beats_both += 1;
            }
            print_row(
                &format!(
                    "{}-{}/{}-{}",
                    mix[0].0,
                    mix[0].1.label(),
                    mix[1].0,
                    mix[1].1.label()
                ),
                &[la_n, pim_n],
            );
        }
        println!(
            "\nLocality-Aware >= Host-Only in {la_beats_host}/{mixes} mixes; >= both baselines in {la_beats_both}/{mixes}"
        );
    })
}

/// Figure 10: balanced dispatch (§7.4) — PIM-Only, Locality-Aware, and
/// Locality-Aware + balanced dispatch on the read-dominated SC and SVM
/// workloads with large inputs, normalized to PIM-Only.
///
/// Paper shape: balanced dispatch adds up to ~25 % on top of
/// Locality-Aware by steering some locality-miss PEIs to the host when
/// that balances request/response link bandwidth.
fn fig10(opts: &ExpOptions, plan: &mut Plan) -> Section {
    let params = opts.workload_params();
    let workloads = [Workload::Sc, Workload::Svm];
    let cells = workloads.map(|w| {
        [
            DispatchPolicy::PimOnly,
            DispatchPolicy::LocalityAware,
            DispatchPolicy::LocalityAwareBalanced,
        ]
        .map(|policy| {
            plan.push(RunSpec::sized(
                opts.machine(policy),
                params,
                w,
                InputSize::Large,
            ))
        })
    });
    Box::new(move |results| {
        print_title("Fig. 10 — balanced dispatch on SC / SVM (large), normalized to PIM-Only");
        print_cols(
            "workload",
            &["pim-only", "loc-aware", "la+bd", "bd-overrides"],
        );
        for (w, [pim, la, bd]) in workloads.iter().zip(&cells) {
            let base = results[*pim].cycles as f64;
            print_row(
                w.label(),
                &[
                    1.0,
                    base / results[*la].cycles as f64,
                    base / results[*bd].cycles as f64,
                    results[*bd].stats.expect("pmu.balanced_overrides"),
                ],
            );
        }
        println!("\nla+bd > loc-aware indicates balanced dispatch paying off (§7.4)");
    })
}

/// Figure 11: PCU design-space exploration — (a) operand-buffer size
/// sweep {1, 2, 4, 8, 16} and (b) execution-width sweep {1, 2, 4},
/// under Locality-Aware dispatch, normalized to the default (4 entries,
/// width 1), which both sweeps share.
///
/// Paper shape: performance saturates at 4 operand-buffer entries
/// (> 30 % over a single entry); execution width has a negligible
/// effect because PEI execution time is dominated by memory access.
fn fig11(opts: &ExpOptions, plan: &mut Plan) -> Section {
    // One workload per op class keeps the sweep fast while spanning
    // writer/reader and small/large-operand PEIs.
    const SWEEP: [Workload; 4] = [Workload::Pr, Workload::Bfs, Workload::Hj, Workload::Sc];
    const ENTRIES: [usize; 5] = [1, 2, 4, 8, 16];
    const WIDTHS: [usize; 3] = [1, 2, 4];

    let params = opts.workload_params();
    let cells = SWEEP.map(|w| {
        let mut slot = |entries, width| {
            let mut cfg = opts.machine(DispatchPolicy::LocalityAware);
            cfg.pcu.operand_entries = entries;
            cfg.pcu.exec_width = width;
            plan.push(RunSpec::sized(cfg, params, w, InputSize::Medium))
        };
        (ENTRIES.map(|e| slot(e, 1)), WIDTHS.map(|wd| slot(4, wd)))
    });
    // Speedup of each cell over its row's cell in column `base` (the
    // default point both sweeps share), per workload row, with a GM row.
    fn sweep<const N: usize>(
        results: &[RunResult],
        cols: [&str; N],
        base: usize,
        rows: impl Iterator<Item = [usize; N]>,
    ) {
        print_cols("workload", &cols);
        let mut table = Vec::new();
        for (w, row) in SWEEP.iter().zip(rows) {
            let baseline = results[row[base]].cycles as f64;
            let speedups = row.map(|cell| baseline / results[cell].cycles as f64);
            print_row(w.label(), &speedups);
            table.push(speedups);
        }
        print_row("GM", &column_geomeans(&table));
    }
    Box::new(move |results| {
        print_title("Fig. 11a — operand-buffer size sweep (speedup vs 4 entries)");
        sweep(
            results,
            ["1", "2", "4", "8", "16"],
            2,
            cells.iter().map(|c| c.0),
        );
        print_title("Fig. 11b — execution-width sweep (speedup vs width 1)");
        sweep(results, ["1", "2", "4"], 0, cells.iter().map(|c| c.1));
    })
}

/// Figure 12: memory-hierarchy energy of Host-Only, PIM-Only and
/// Locality-Aware, normalized to Ideal-Host, with the per-component
/// breakdown (caches / DRAM / off-chip links / TSVs / PCUs / PMU).
///
/// Paper shape: Locality-Aware consumes the least energy at every input
/// size — for small inputs PIM-Only blows up DRAM and link energy; for
/// large inputs Host-Only pays in off-chip traffic and runtime. The
/// memory-side PCUs stay a tiny fraction (~1.4 %) of HMC energy.
fn fig12(opts: &ExpOptions, plan: &mut Plan) -> Section {
    let cells = grid(opts, plan, four_machines(opts));
    Box::new(move |results| {
        for size in InputSize::ALL {
            print_title(&format!(
                "Fig. 12 ({size}) — memory-hierarchy energy normalized to Ideal-Host"
            ));
            print_cols(
                "workload",
                &["host-only", "pim-only", "loc-aware", "mpcu/hmc%"],
            );
            let mut rows = Vec::new();
            let mut share_all = Vec::new();
            for (_, w, [ideal, host, pim, la]) in cells.iter().filter(|(s, ..)| *s == size) {
                let row = [host, pim, la]
                    .map(|i| results[*i].energy.total() / results[*ideal].energy.total());
                let pim = &results[*pim].energy;
                let share = if pim.hmc_total() > 0.0 {
                    100.0 * pim.pcu_mem_share() / pim.hmc_total()
                } else {
                    0.0
                };
                if share > 0.0 {
                    share_all.push(share);
                }
                let [h, p, l] = row;
                print_row(w.label(), &[h, p, l, share]);
                rows.push(row);
            }
            let [h, p, l] = column_geomeans(&rows);
            print_row("GM", &[h, p, l, geomean(&share_all)]);
        }
        println!("\nmpcu/hmc% = memory-side PCU share of HMC energy under PIM-Only (§7.7: ~1.4%)");
    })
}

/// §7.6: performance overhead of the PMU — compares the real PIM
/// directory (2048 tag-less entries, 2-cycle latency) and the real
/// locality monitor (10-bit partial tags, 3-cycle latency) against
/// their idealized versions (infinite storage, zero latency, full
/// tags).
///
/// Paper result: idealizing buys only ~0.13 % (directory) and ~0.31 %
/// (monitor) — the cost-reduced structures are essentially free.
fn pmu_overhead(opts: &ExpOptions, plan: &mut Plan) -> Section {
    let params = opts.workload_params();
    // Four PMU variants per workload: (ideal_dir, ideal_mon) in
    // {(f,f), (t,f), (f,t), (t,t)}.
    let cells = Workload::ALL.map(|w| {
        [(false, false), (true, false), (false, true), (true, true)].map(
            |(ideal_dir, ideal_mon)| {
                let mut cfg = opts.machine(DispatchPolicy::LocalityAware);
                cfg.ideal_dir = ideal_dir;
                cfg.ideal_mon = ideal_mon;
                plan.push(RunSpec::sized(cfg, params, w, InputSize::Medium))
            },
        )
    });
    Box::new(move |results| {
        print_title(
            "§7.6 — speedup from idealizing PMU structures (Locality-Aware, medium inputs)",
        );
        print_cols("workload", &["ideal-dir", "ideal-mon", "ideal-both"]);
        let mut rows = Vec::new();
        for (w, [real, idir, imon, both]) in Workload::ALL.iter().zip(&cells) {
            let real = results[*real].cycles as f64;
            let row = [idir, imon, both].map(|i| real / results[*i].cycles as f64);
            print_row(w.label(), &row);
            rows.push(row);
        }
        print_row("GM", &column_geomeans(&rows));
        println!("\nvalues ≈ 1.00 mean the real PMU structures cost almost nothing (§7.6)");
    })
}

/// Ablation studies beyond the paper's explicit figures, probing the
/// design choices DESIGN.md calls out:
///
/// 0. DRAM policies: PR large under PIM-Only with open pages and
///    refresh (the default), without refresh, and with closed pages.
/// 1. PIM-directory size sweep (the paper fixes 2048 entries) — how
///    much false-positive serialization does a smaller directory cause?
/// 2. Locality-monitor partial-tag width sweep (the paper fixes 10
///    bits).
/// 3. The ignore-bit filter on/off (the paper motivates it
///    qualitatively in §4.3): "off" clears `mon_ignore_bit`, so a
///    monitor entry that PIM execution allocates counts its first hit.
/// 4. Monitor realism: the real locality monitor against an ideal one
///    with full tags.
fn ablations(opts: &ExpOptions, plan: &mut Plan) -> Section {
    const DIR_ENTRIES: [usize; 5] = [64, 256, 1024, 2048, 8192];
    const TAG_BITS: [u32; 5] = [4, 6, 8, 10, 14];
    const IGNORE_BIT_CASES: [(Workload, InputSize); 4] = [
        (Workload::Atf, InputSize::Small),
        (Workload::Pr, InputSize::Medium),
        (Workload::Sc, InputSize::Large),
        (Workload::Hj, InputSize::Medium),
    ];
    const MON_REALISM: [Workload; 4] = [Workload::Pr, Workload::Atf, Workload::Hj, Workload::Sc];

    let params = opts.workload_params();
    let la_slot = |plan: &mut Plan, w, size, f: &dyn Fn(&mut MachineConfig)| {
        let mut cfg = opts.machine(DispatchPolicy::LocalityAware);
        f(&mut cfg);
        plan.push(RunSpec::sized(cfg, params, w, size))
    };

    // Ablation 0: the default (open pages + refresh) is both the
    // baseline and a variant.
    let dram_cells = [(false, true), (false, false), (true, true)].map(|(page_closed, refresh)| {
        let mut cfg = opts.machine(DispatchPolicy::PimOnly);
        if page_closed {
            cfg.hmc.page_policy = pei_hmc::PagePolicy::Closed;
        }
        if !refresh {
            cfg.hmc.refresh = None;
        }
        plan.push(RunSpec::sized(cfg, params, Workload::Pr, InputSize::Large))
    });

    // Ablations 1 + 2 share the Locality-Aware PR-medium default
    // baseline.
    let pr_medium = |plan: &mut Plan, f: &dyn Fn(&mut MachineConfig)| {
        la_slot(plan, Workload::Pr, InputSize::Medium, f)
    };
    let la_base = pr_medium(plan, &|_| {});
    let dir_cells = DIR_ENTRIES.map(|entries| pr_medium(plan, &|c| c.dir_entries = entries));
    let tag_cells = TAG_BITS.map(|bits| pr_medium(plan, &|c| c.mon_tag_bits = bits));
    let ignore_cells = IGNORE_BIT_CASES.map(|(w, size)| {
        [
            la_slot(plan, w, size, &|_| {}),
            la_slot(plan, w, size, &|c| c.mon_ignore_bit = false),
        ]
    });
    let mon_cells = MON_REALISM.map(|w| {
        [
            la_slot(plan, w, InputSize::Medium, &|_| {}),
            la_slot(plan, w, InputSize::Medium, &|c| c.ideal_mon = true),
        ]
    });

    Box::new(move |results| {
        print_title("Ablation 0 — DRAM policies (PR large, PIM-Only, cycles vs default)");
        print_cols("variant", &["cycles_norm", "row_hit%", "refresh_delays"]);
        let dram_base = &results[dram_cells[0]];
        for (name, cell) in ["open+refresh", "open, no refresh", "closed+refresh"]
            .iter()
            .zip(&dram_cells)
        {
            let r = &results[*cell];
            let hits = r.stats.expect("dram.row_hits");
            print_row(
                name,
                &[
                    r.cycles as f64 / dram_base.cycles as f64,
                    100.0 * hits / r.dram_accesses as f64,
                    r.stats.expect("dram.refresh_delays"),
                ],
            );
        }

        print_title("Ablation 1 — PIM-directory entries (PR medium, cycles vs 2048)");
        print_cols("entries", &["cycles_norm", "queued", "peak_q"]);
        let base = &results[la_base];
        for (entries, cell) in DIR_ENTRIES.iter().zip(&dir_cells) {
            let r = &results[*cell];
            print_row(
                &entries.to_string(),
                &[
                    r.cycles as f64 / base.cycles as f64,
                    r.stats.expect("pmu.dir.queued"),
                    r.stats.expect("pmu.dir.peak_queue"),
                ],
            );
        }

        print_title("Ablation 2 — locality-monitor partial-tag bits (PR medium)");
        print_cols("tag_bits", &["cycles_norm", "aliases", "pim%"]);
        for (bits, cell) in TAG_BITS.iter().zip(&tag_cells) {
            let r = &results[*cell];
            print_row(
                &bits.to_string(),
                &[
                    r.cycles as f64 / base.cycles as f64,
                    r.stats.expect("pmu.mon.partial_tag_aliases"),
                    100.0 * r.pim_fraction,
                ],
            );
        }

        print_title("Ablation 3 — ignore bit on/off (Locality-Aware, several workloads)");
        print_cols(
            "workload",
            &["with(cyc)", "without/with", "pim%with", "pim%without"],
        );
        for ((w, size), [on, off]) in IGNORE_BIT_CASES.iter().zip(&ignore_cells) {
            let (on, off) = (&results[*on], &results[*off]);
            print_row(
                &format!("{w}-{}", size.label()),
                &[
                    on.cycles as f64,
                    off.cycles as f64 / on.cycles as f64,
                    100.0 * on.pim_fraction,
                    100.0 * off.pim_fraction,
                ],
            );
        }

        print_title("Ablation 4 — monitor realism (real vs ideal full tags, several workloads)");
        print_cols("workload", &["real", "ideal_mon"]);
        for (w, [real, ideal]) in MON_REALISM.iter().zip(&mon_cells) {
            let (real, ideal) = (&results[*real], &results[*ideal]);
            print_row(w.label(), &[1.0, real.cycles as f64 / ideal.cycles as f64]);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::failure_warnings;
    use pei_system::{FaultKind, FaultPlan};

    /// Slots and pushes of the named figures' batch at quick scale.
    fn planned(names: &[&'static str]) -> (usize, usize) {
        let (plan, _) = plan(names, &ExpOptions::default());
        (plan.batch.len(), plan.pushes)
    }

    /// Plans only; simulates nothing.
    #[test]
    fn figures_that_read_a_cell_share_its_slot() {
        assert_eq!(planned(&select("all").unwrap()), (307, 573));
        assert_eq!(planned(&["fig6"]), (120, 120));
        let grid = ["fig6", "fig7", "fig12"];
        assert_eq!(planned(&grid).0, 120);
        let with = |name| planned(&[grid[0], grid[1], grid[2], name]).0;
        assert_eq!(with("fig10"), 122);
        assert_eq!(with("fig11"), 144);
        assert_eq!(with("pmu_overhead"), 150);
        assert_eq!(with("ablations"), 138);
        // The ablations' four ideal-monitor cells are §7.6 cells.
        assert_eq!(planned(&["fig6", "pmu_overhead", "ablations"]).0, 164);
        assert_eq!(planned(&["fig2", "fig8"]), (27, 45));
        // Within one figure too: fig11's sweeps share their default
        // point, and five ablation cells repeat the ablations' own.
        assert_eq!(planned(&["fig11"]), (28, 32));
        assert_eq!(planned(&["ablations"]), (25, 30));
    }

    #[test]
    fn a_failed_cell_is_reported_once_naming_every_figure_that_reads_it() {
        let opts = ExpOptions {
            seed: 0x5a3d,
            jobs: 2,
            ..ExpOptions::default()
        };
        let mut params = opts.workload_params();
        params.pei_budget = 2_000;
        let cell = |policy| {
            RunSpec::sized(
                opts.machine(policy),
                params,
                Workload::Atf,
                InputSize::Small,
            )
        };
        let mut wedged = cell(DispatchPolicy::LocalityAware);
        let mut faults = FaultPlan::new(43);
        for _ in 0..4 {
            faults = faults.with(FaultKind::WedgeVault);
        }
        wedged.fault = Some(faults);

        let healthy = cell(DispatchPolicy::HostOnly);
        let mut plan = Plan::default();
        for figure in ["fig6", "fig12"] {
            plan.figure = figure;
            plan.push(wedged.clone());
        }
        plan.push(healthy.clone());
        assert_eq!(plan.batch.len(), 2);
        let results = plan.batch.run_for(&opts, &plan.users);
        assert!(!results[0].ok() && results[1].ok());
        let warnings = failure_warnings(&[wedged, healthy], &results, &plan.users);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(
            warnings[0].starts_with("warning: cell failed: Atf/Small on LocalityAware")
                && warnings[0].contains("(used by fig6, fig12): "),
            "{}",
            warnings[0]
        );
    }
}
