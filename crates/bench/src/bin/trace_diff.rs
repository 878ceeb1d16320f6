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

use pei_trace::Trace;

fn load(path: &str) -> Trace {
    Trace::load(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("error: cannot load trace {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [left, right] = args.as_slice() else {
        eprintln!("error: expected two trace paths\n\nusage: trace_diff <left.petr> <right.petr>");
        std::process::exit(2);
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
