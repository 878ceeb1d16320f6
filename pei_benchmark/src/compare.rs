//! `--compare A.json B.json`: judges set B against set A with the
//! bounds in BENCHMARK.json, per workload and end-to-end metric.

use crate::stats::{median, spread};
use crate::WORKLOADS;
use pei_types::json::Json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Either set's quartile spread exceeds the bound, so a change of
    /// that size could be noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for a metric with `bound` (share of `a`'s
/// median) in direction `lower_is_better`. Within-bound spreads compare
/// medians; wider spreads are unresolved unless every run of `b` beats
/// every run of `a`.
pub fn judge(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    if spread(a) > bound || spread(b) > bound {
        let worst_b = b.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
        let best_a = a.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
        return if worst_b < best_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = sign * (median(b) - median(a)) / median(a).abs();
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Why metric `metric` of `workload` is not judged on its own, if it is
/// not: it restates another metric of the same pass, or the workload's
/// fixed arrival schedule pins it. Such rows are shown but take no
/// verdict, so one noisy timing does not count as several.
pub fn derived(workload: &str, metric: &str) -> Option<&'static str> {
    let grid = crate::grid::NAMES.contains(&workload);
    let open = workload == "serve-open";
    match metric {
        "latency_mean_ms" | "latency_p90_ms" if grid => Some("wall_s x 1000"),
        "sim_mips" | "throughput_per_s" if !open => Some("fixed work / wall_s"),
        "wall_s" | "sim_mips" | "throughput_per_s" if open => Some("the arrival schedule"),
        _ => None,
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Values of `metric` over the runs of `workload` in trace mode `trace`.
fn values(set: &Json, workload: &str, trace: u64, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_u64) == Some(trace)
        })
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn field<'a>(m: &'a Json, k: &str) -> &'a Json {
    m.get(k)
        .unwrap_or_else(|| panic!("BENCHMARK.json metric lacks `{k}`"))
}

pub fn run(a_path: &Path, b_path: &Path, out: Option<&Path>) -> bool {
    let docs = (|| {
        Ok::<_, String>((
            load(a_path)?,
            load(b_path)?,
            load(&crate::bench_dir().join("../BENCHMARK.json"))?,
        ))
    })();
    let (a, b, spec) = match docs {
        Ok(d) => d,
        Err(e) => {
            eprintln!("pei_benchmark --compare: {e}");
            return false;
        }
    };
    let section = |k: &str| {
        spec.get(k)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec()
    };
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "change", "IQR A", "IQR B"
    );
    for w in WORKLOADS {
        for m in section("end_to_end") {
            let name = field(&m, "name").as_str().unwrap_or_default();
            let bound = field(&m, "bound").as_f64().unwrap_or(0.0);
            let lower = field(&m, "better").as_str() == Some("lower");
            let (va, vb) = (values(&a, w, 0, name), values(&b, w, 0, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = match derived(w, name) {
                Some(from) => format!("derived from {from}"),
                None => {
                    let v = judge(&va, &vb, bound, lower);
                    ok &= matches!(v, Verdict::Better | Verdict::Same);
                    v.name().to_owned()
                }
            };
            let change = median(&vb) / median(&va) - 1.0;
            println!(
                "{w:<20} {name:<18} {:>12.6} {:>12.6} {:>+7.2}% {:>7.2}% {:>7.2}%  {verdict}",
                median(&va),
                median(&vb),
                change * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
            );
            rows.push(Json::Obj(vec![
                ("workload".to_owned(), Json::from(w)),
                ("metric".to_owned(), Json::from(name)),
                ("median_a".to_owned(), Json::from(median(&va))),
                ("median_b".to_owned(), Json::from(median(&vb))),
                ("spread_a".to_owned(), Json::from(spread(&va))),
                ("spread_b".to_owned(), Json::from(spread(&vb))),
                ("bound".to_owned(), Json::from(bound)),
                ("verdict".to_owned(), Json::from(verdict.as_str())),
            ]));
        }
        // Simulated-work counts repeat exactly for one seed; any change
        // means the simulation itself changed.
        for m in section("per_layer") {
            if field(&m, "unit").as_str() != Some("count") {
                continue;
            }
            let name = field(&m, "name").as_str().unwrap_or_default();
            let mut all = values(&a, w, 1, name);
            all.extend(values(&b, w, 1, name));
            if all.iter().any(|x| *x != all[0]) {
                ok = false;
                println!("{w:<20} {name:<18} count differs between runs: {all:?}");
                rows.push(Json::Obj(vec![
                    ("workload".to_owned(), Json::from(w)),
                    ("metric".to_owned(), Json::from(name)),
                    ("verdict".to_owned(), Json::from("count-differs")),
                ]));
            }
        }
    }
    println!(
        "verdict: {}",
        if ok {
            "no judged metric worse or unresolved; every count identical"
        } else {
            "see worse / unresolved / count-differs rows"
        }
    );
    if let Some(path) = out {
        let doc = Json::Obj(vec![
            ("a".to_owned(), a),
            ("b".to_owned(), b),
            ("verdict".to_owned(), Json::Arr(rows)),
            ("ok".to_owned(), Json::from(ok)),
        ]);
        if let Err(e) = std::fs::write(path, doc.encode() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(&a, &[10.2, 10.1, 10.3, 10.2, 10.25], 0.1, true),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &[11.5, 11.6, 11.4, 11.5, 11.55], 0.1, true),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[11.5, 11.6, 11.4, 11.5, 11.55], 0.1, false),
            Verdict::Better
        );
        // A noisy set cannot be judged unless it is wholly better.
        let noisy = [8.0, 12.0, 9.0, 13.0, 10.0];
        assert_eq!(judge(&a, &noisy, 0.1, true), Verdict::Unresolved);
        assert_eq!(
            judge(&noisy, &[5.0, 5.1, 5.2, 5.0, 5.1], 0.1, true),
            Verdict::Better
        );
    }

    #[test]
    fn each_workload_keeps_a_judged_timing() {
        for w in WORKLOADS {
            let judged: Vec<&str> = crate::END_TO_END
                .iter()
                .map(|m| m.0)
                .filter(|m| derived(w, m).is_none())
                .collect();
            assert!(judged.contains(&"setup_s") && judged.contains(&"peak_rss_mb"));
            let timing = if w == "serve-open" {
                "latency_p90_ms"
            } else {
                "wall_s"
            };
            assert!(judged.contains(&timing), "{w}: {judged:?}");
        }
    }
}
