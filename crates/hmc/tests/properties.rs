//! Property-based tests of the HMC model: every queued access is
//! eventually served exactly once, FR-FCFS never reorders across
//! correctness boundaries (there are none — accesses are independent —
//! so the property is completeness), and link accounting is conserved.

use pei_hmc::{CtrlIn, HmcConfig, HmcController, Vault, VaultIn, VaultOut};
use pei_types::{BlockAddr, ReqId, FLIT_BYTES};
use proptest::prelude::*;

/// Drains a vault to completion, returning completion times by id.
fn drive(v: &mut Vault, reqs: &[(u64, VaultIn)]) -> Vec<(ReqId, u64)> {
    let mut done = Vec::new();
    let mut wakes: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    for &(t, r) in reqs {
        v.handle_access(t, r, &mut out);
    }
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 1_000_000, "vault drain did not converge");
        for o in out.drain(..) {
            match o {
                VaultOut::Done { id, at, .. } => done.push((id, at)),
                VaultOut::Wake { at } => wakes.push(at),
            }
        }
        wakes.sort_unstable();
        match wakes.first().copied() {
            Some(t) => {
                wakes.remove(0);
                v.wake(t, &mut out);
            }
            None => break,
        }
    }
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every access is served exactly once, never before it arrived, and
    /// the vault ends idle.
    #[test]
    fn vault_serves_everything_exactly_once(
        reqs in proptest::collection::vec((0u64..500, 0u64..4096, any::<bool>()), 1..60)
    ) {
        let cfg = HmcConfig::scaled();
        let mut v = Vault::new(&cfg);
        let inputs: Vec<(u64, VaultIn)> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(t, blk, write))| {
                (
                    t,
                    VaultIn {
                        id: ReqId(i as u64),
                        block: BlockAddr(blk),
                        write,
                    },
                )
            })
            .collect();
        let done = drive(&mut v, &inputs);
        prop_assert_eq!(done.len(), inputs.len());
        let mut ids: Vec<u64> = done.iter().map(|(id, _)| id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), inputs.len(), "duplicate completions");
        for (id, at) in &done {
            let (arrived, _) = inputs[id.0 as usize];
            prop_assert!(*at > arrived, "completion before arrival");
        }
        prop_assert_eq!(v.backlog(), 0);
        prop_assert_eq!(v.accesses(), inputs.len() as u64);
    }

    /// Row hits are never slower than row misses for back-to-back
    /// same-bank accesses.
    #[test]
    fn row_hit_no_slower_than_conflict(row_a in 0u64..8, row_b in 0u64..8) {
        let cfg = HmcConfig::scaled();
        let blocks_per_row = (cfg.row_bytes / 64) as u64;
        let stride = (cfg.total_vaults() * cfg.banks_per_vault) as u64;
        // Same vault (0), same bank (0), chosen row.
        let block_of = |row: u64| BlockAddr(row * blocks_per_row * stride);
        let time = |rows: [u64; 2]| {
            let mut v = Vault::new(&cfg);
            let reqs: Vec<(u64, VaultIn)> = rows
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    (
                        0,
                        VaultIn {
                            id: ReqId(i as u64),
                            block: block_of(r),
                            write: false,
                        },
                    )
                })
                .collect();
            drive(&mut v, &reqs).iter().map(|&(_, at)| at).max().unwrap()
        };
        let same = time([row_a, row_a]);
        let diff = time([row_a, row_b]);
        if row_a == row_b {
            prop_assert_eq!(same, diff);
        } else {
            prop_assert!(same <= diff, "row hit slower than conflict");
        }
    }

    /// Controller flit accounting: total wire bytes equal the sum of the
    /// per-packet costs, independent of interleaving.
    #[test]
    fn controller_conserves_flits(ops in proptest::collection::vec((0u64..10_000, any::<bool>()), 1..50)) {
        let cfg = HmcConfig::scaled();
        let mut ctrl = HmcController::new(&cfg);
        let mut out = Vec::new();
        let mut expect_req = 0u64;
        for &(blk, write) in &ops {
            if write {
                ctrl.handle_host(0, CtrlIn::Write { block: BlockAddr(blk) }, &mut out);
                expect_req += 5; // 80-byte write request
            } else {
                ctrl.handle_host(
                    0,
                    CtrlIn::Read {
                        id: ReqId(blk),
                        block: BlockAddr(blk),
                    },
                    &mut out,
                );
                expect_req += 1; // 16-byte read request
            }
        }
        let (req, res) = ctrl.total_flits();
        prop_assert_eq!(req, expect_req);
        prop_assert_eq!(res, 0, "no responses yet");
        prop_assert_eq!(ctrl.total_bytes(), expect_req * FLIT_BYTES as u64);
    }
}
