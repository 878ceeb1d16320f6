//! Chrome `trace_event` JSON export, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The export maps the simulator onto the trace-event model as one
//! process ("pei-sim") with one thread per component: thread metadata
//! events name each component, and every record becomes a
//! thread-scoped instant event whose timestamp is the simulated cycle
//! (the viewer's microsecond axis therefore reads as cycles). Record
//! payloads and the trace's metadata table travel in `args`, so nothing
//! captured is lost in export.
//!
//! On top of the instants, PEI request *lifetimes* export as duration
//! ("B"/"E") spans: a span opens at the `pmu.request` record of each
//! request id and closes at its `pmu.host_release` or `pmu.mem_result`
//! record, so in-flight PEIs render as bars rather than dots.
//! Concurrent requests would violate B/E nesting on a single thread,
//! so spans are packed onto synthetic "pei-lane" threads by greedy
//! interval coloring — each lane holds non-overlapping spans only, and
//! the lane count reads as the peak number of in-flight PEIs.

use crate::recorder::Trace;

/// Escapes a string for inclusion inside a JSON string literal.
fn escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// One PEI request lifetime: opened by `pmu.request`, closed by the
/// matching `pmu.host_release` or `pmu.mem_result`.
struct PeiSpan {
    begin: u64,
    end: u64,
    id: u64,
}

/// Extracts PEI request lifetimes from a trace by matching each
/// `pmu.request` record to the first later completion record
/// (`pmu.host_release` or `pmu.mem_result`) with the same id payload.
/// Requests still in flight when the capture ends are dropped.
fn pei_spans(t: &Trace) -> Vec<PeiSpan> {
    let find = |name: &str| {
        t.kinds
            .iter()
            .position(|k| k == name)
            .map(|i| crate::record::KindId(i as u16))
    };
    let (Some(req), Some(rel), Some(mem)) = (
        find("pmu.request"),
        find("pmu.host_release"),
        find("pmu.mem_result"),
    ) else {
        return Vec::new();
    };
    let mut open: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut spans = Vec::new();
    for r in &t.records {
        if r.kind == req {
            open.entry(r.payload).or_insert(r.cycle);
        } else if (r.kind == rel || r.kind == mem) && open.contains_key(&r.payload) {
            let begin = open.remove(&r.payload).expect("checked above");
            spans.push(PeiSpan {
                begin,
                end: r.cycle,
                id: r.payload,
            });
        }
    }
    spans.sort_by_key(|s| (s.begin, s.end, s.id));
    spans
}

/// Assigns each span the lowest-numbered lane free at its begin cycle
/// (greedy interval coloring), so no lane holds overlapping spans.
/// Returns `(lane, span)` pairs plus the number of lanes used.
fn pack_lanes(spans: Vec<PeiSpan>) -> (Vec<(usize, PeiSpan)>, usize) {
    // `lanes[i]` is the end cycle of the last span placed on lane i; a
    // span whose begin is >= that end may reuse the lane (B/E pairs at
    // equal ts stay well-nested because each pair closes before the
    // next opens in emission order).
    let mut lanes: Vec<u64> = Vec::new();
    let mut placed = Vec::with_capacity(spans.len());
    for s in spans {
        let lane = match lanes.iter().position(|&busy_until| s.begin >= busy_until) {
            Some(i) => i,
            None => {
                lanes.push(0);
                lanes.len() - 1
            }
        };
        lanes[lane] = s.end.max(s.begin) + 1;
        placed.push((lane, s));
    }
    let n = lanes.len();
    (placed, n)
}

/// Renders a trace as a Chrome `trace_event` JSON array.
///
/// One "M" (metadata) event names the process and one names each
/// component thread; each record becomes an "i" (instant) event with
/// `ts` = cycle, `tid` = component id, and the payload in `args`.
/// Trace metadata is attached to the process-name event's `args`.
/// PEI request lifetimes additionally export as "B"/"E" duration spans
/// on synthetic `pei-lane<N>` threads (tids after the components).
pub fn chrome_trace_json(t: &Trace) -> String {
    // Rough sizing: ~120 bytes per record row.
    let mut out = String::with_capacity(256 + t.records.len() * 120);
    out.push_str("[\n");

    // Process metadata, carrying the trace's meta table.
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"pei-sim\"",
    );
    for (k, v) in &t.meta {
        out.push_str(",\"");
        escape(k, &mut out);
        out.push_str("\":\"");
        escape(v, &mut out);
        out.push('"');
    }
    out.push_str("}}");

    // One named thread per component; tid is the interned comp id.
    for (tid, name) in t.comps.iter().enumerate() {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\""
        ));
        escape(name, &mut out);
        out.push_str("\"}}");
    }

    // PEI request lifetimes as B/E spans on synthetic lanes, named and
    // numbered after the component threads.
    let (placed, n_lanes) = pack_lanes(pei_spans(t));
    let lane_base = t.comps.len();
    for lane in 0..n_lanes {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"pei-lane{lane}\"}}}}",
            lane_base + lane
        ));
    }
    for (lane, s) in &placed {
        out.push_str(&format!(
            ",\n{{\"name\":\"pei\",\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{},\
             \"args\":{{\"id\":{}}}}},\n\
             {{\"name\":\"pei\",\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
            s.begin,
            s.id,
            s.end,
            tid = lane_base + lane,
        ));
    }

    for r in &t.records {
        out.push_str(",\n{\"name\":\"");
        escape(t.kind_name(r.kind), &mut out);
        out.push_str(&format!(
            "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\
             \"args\":{{\"payload\":{}}}}}",
            r.comp.0, r.cycle, r.payload
        ));
    }

    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn export_names_threads_and_orders_records() {
        let mut rec = Recorder::new();
        rec.meta("spec.workload", "atf");
        let c0 = rec.comp("core0");
        let v = rec.comp("vault1");
        let k = rec.kind("vault.access");
        rec.record(7, c0, k, 1);
        rec.record(9, v, k, 2);
        let json = chrome_trace_json(&rec.to_trace());
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"name\":\"pei-sim\""));
        assert!(json.contains("\"spec.workload\":\"atf\""));
        assert!(json.contains("\"name\":\"core0\""));
        assert!(json.contains("\"name\":\"vault1\""));
        assert!(json.contains("\"ts\":7"));
        assert!(json.contains("\"ts\":9"));
        assert!(json.trim_end().ends_with(']'));
        // Every record row carries its payload.
        assert!(json.contains("\"payload\":1"));
        assert!(json.contains("\"payload\":2"));
    }

    #[test]
    fn pei_lifetimes_export_as_nested_be_spans() {
        let mut rec = Recorder::new();
        let pmu = rec.comp("pmu");
        let req = rec.kind("pmu.request");
        let rel = rec.kind("pmu.host_release");
        let mem = rec.kind("pmu.mem_result");
        // Two overlapping requests (ids 1 and 2) and one later request
        // that can reuse a freed lane.
        rec.record(5, pmu, req, 1);
        rec.record(6, pmu, req, 2);
        rec.record(9, pmu, mem, 1);
        rec.record(12, pmu, rel, 2);
        rec.record(20, pmu, req, 3);
        rec.record(25, pmu, mem, 3);
        let t = rec.to_trace();
        let json = chrome_trace_json(&t);
        // Overlap forces two lanes; the third span reuses lane 0.
        assert!(json.contains("\"name\":\"pei-lane0\""));
        assert!(json.contains("\"name\":\"pei-lane1\""));
        assert!(!json.contains("\"name\":\"pei-lane2\""));
        // Lane tids start after the component table.
        let lane0 = t.comps.len();
        assert!(json.contains(&format!("\"ph\":\"B\",\"pid\":1,\"tid\":{lane0},\"ts\":5")));
        assert!(json.contains(&format!("\"ph\":\"E\",\"pid\":1,\"tid\":{lane0},\"ts\":9")));
        assert!(json.contains(&format!(
            "\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":6",
            lane0 + 1
        )));
        assert!(json.contains(&format!("\"ph\":\"B\",\"pid\":1,\"tid\":{lane0},\"ts\":20")));
        assert!(json.contains("\"args\":{\"id\":3}"));
    }

    #[test]
    fn unmatched_requests_produce_no_spans() {
        let mut rec = Recorder::new();
        let pmu = rec.comp("pmu");
        let req = rec.kind("pmu.request");
        rec.record(5, pmu, req, 1);
        let json = chrome_trace_json(&rec.to_trace());
        assert!(!json.contains("\"ph\":\"B\""));
        assert!(!json.contains("pei-lane"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut rec = Recorder::new();
        rec.meta("note", "a\"b\\c\nd");
        let c = rec.comp("comp\t1");
        let k = rec.kind("k");
        rec.record(1, c, k, 0);
        let json = chrome_trace_json(&rec.to_trace());
        assert!(json.contains("a\\\"b\\\\c\\nd"));
        assert!(json.contains("comp\\t1"));
    }
}
