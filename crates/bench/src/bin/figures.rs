//! Prints the paper's figures from one batch of simulations, each
//! named figure's section under a `===== <name> =====` header (see
//! `pei_bench::figures`):
//!
//! ```text
//! cargo run -p pei-bench --release --bin figures -- <name>… | all \
//!     [--scale quick|full] [--paper] [--seed N] [--jobs N] [--check]
//! ```

use pei_bench::cli::{self, Shared::*};
use pei_bench::{figures, ExpOptions};

const USAGE: &str = "usage: figures <name>… | all [--scale quick|full] [--paper] [--seed N] \
                     [--jobs N] [--check]
names: fig2 fig6 fig7 fig8 fig9 fig10 fig11 fig12 pmu_overhead ablations";

fn main() {
    let mut opts = ExpOptions::default();
    let mut names: Vec<&'static str> = Vec::new();
    let shared = [Scale, Paper, Seed, Jobs, Check];
    cli::parse_env(USAGE, &shared, &mut opts, |arg, _| {
        if arg.starts_with('-') {
            return Ok(false);
        }
        for name in figures::select(arg).ok_or_else(|| format!("unknown figure `{arg}`"))? {
            if !names.contains(&name) {
                names.push(name);
            }
        }
        Ok(true)
    });
    if names.is_empty() {
        cli::fail(&format!("no figure named\n\n{USAGE}"));
    }
    figures::run(&names, &opts);
}
