//! Compares two `.petr` event traces record by record, reporting the
//! first divergence (DESIGN.md §8). The regression workflow: capture a
//! trace before a change and one after (same spec, same seed), then
//!
//! ```text
//! trace_diff before.petr after.petr
//! ```
//!
//! Identical traces exit 0; the first divergent record — its index,
//! cycle, component, kind, and payload on both sides — exits 1, turning
//! "the figures moved" into "the first difference is at cycle N in
//! vault3". Comparison resolves interned names, so two captures with
//! differently ordered string tables still compare equal if they
//! describe the same event stream. Usage errors and unreadable traces
//! print `error: …` and exit 2.

use pei_bench::cli::{self, fail};
use pei_bench::ExpOptions;
use pei_trace::Trace;

const USAGE: &str = "usage: trace_diff <left.petr> <right.petr>";

fn load(path: &str) -> Trace {
    Trace::load(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(&format!("cannot load trace {path}: {e}")))
}

fn main() {
    let mut paths = Vec::new();
    cli::parse_env(USAGE, &[], &mut ExpOptions::default(), |arg, _| {
        paths.push(arg.to_owned());
        Ok(!arg.starts_with('-')) // a flag is an unknown argument
    });
    let [left, right] = paths.as_slice() else {
        fail(&format!("expected two trace paths\n\n{USAGE}"));
    };
    let a = load(left);
    let b = load(right);
    println!(
        "{left}: {} records ({} dropped)  vs  {right}: {} records ({} dropped)",
        a.records.len(),
        a.dropped,
        b.records.len(),
        b.dropped
    );
    match pei_trace::diff(&a, &b) {
        None => println!("traces identical"),
        Some(d) => {
            println!("DIVERGED: {d}");
            std::process::exit(1);
        }
    }
}
