//! Flamegraph export: collapse span-tree JSONL into the folded-stack format
//! (the `obs flamegraph` command) and a flat top-N self-time table
//! (`obs report --top N`).
//!
//! The folded ("collapsed stack") format is one line per unique name path,
//! `root;child;leaf <weight>`, where the weight here is the aggregated *self*
//! time in nanoseconds (a span's duration minus its direct children's
//! durations). Any stock renderer — `flamegraph.pl`, speedscope, inferno —
//! turns that file into an interactive flamegraph, so every `--trace-out`
//! artifact from serve or campaign is one command away from a profile.
//!
//! Parenting mirrors [`crate::report::aggregate`]: spans whose parent id is
//! absent from the input (cross-thread work, still-open parents) start a new
//! root path, and children that ran on two threads at once (a helper lane's
//! adopted spans) add both threads' time, so a path's weight can exceed its
//! root's wall time. Output lines are sorted by path, so identical span sets produce
//! byte-identical files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::fmt_ns;
use crate::trace::SpanRecord;

/// Frame names feed a `;`-separated format; keep them one token per frame.
fn frame(name: &str) -> String {
    name.replace([';', '\n', '\r'], ":").replace(' ', "_")
}

/// Aggregated self time and span count per unique name path.
fn fold(spans: &[SpanRecord]) -> BTreeMap<Vec<String>, (u64, u64)> {
    let by_id: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // Direct-children duration per span id, for the self-time subtraction.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if span.parent != 0 && by_id.contains_key(&span.parent) {
            *child_ns.entry(span.parent).or_insert(0) += span.dur_ns;
        }
    }
    let mut folded: BTreeMap<Vec<String>, (u64, u64)> = BTreeMap::new();
    for span in spans {
        let self_ns = span
            .dur_ns
            .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        // Walk up to the root to build the path (bounded by the span count, in
        // case a malformed export contains a parent cycle).
        let mut path = vec![frame(&span.name)];
        let mut parent = span.parent;
        let mut hops = 0usize;
        while parent != 0 && hops <= spans.len() {
            let Some(&index) = by_id.get(&parent) else {
                break;
            };
            path.push(frame(&spans[index].name));
            parent = spans[index].parent;
            hops += 1;
        }
        path.reverse();
        let slot = folded.entry(path).or_insert((0, 0));
        slot.0 += self_ns;
        slot.1 += 1;
    }
    folded
}

/// Render spans as a folded-stack file: one `root;child;leaf self_ns` line per
/// unique name path (zero-self paths are skipped — renderers reconstruct the
/// ancestry from the leaf lines). Deterministic: lines are path-sorted.
pub fn render_folded(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for (path, (self_ns, _)) in fold(spans) {
        if self_ns == 0 {
            continue;
        }
        let _ = writeln!(out, "{} {self_ns}", path.join(";"));
    }
    out
}

/// Render the flat top-`n` span names by aggregated self time: self time, its
/// share of the total, span count, and the name. Complements the indented
/// tree in `obs report` when the profile is deep.
pub fn render_top(spans: &[SpanRecord], n: usize) -> String {
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let by_id: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if span.parent != 0 && by_id.contains_key(&span.parent) {
            *child_ns.entry(span.parent).or_insert(0) += span.dur_ns;
        }
    }
    let mut total_self = 0u64;
    for span in spans {
        let self_ns = span
            .dur_ns
            .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        let slot = by_name.entry(&span.name).or_insert((0, 0));
        slot.0 += self_ns;
        slot.1 += 1;
        total_self += self_ns;
    }
    let mut rows: Vec<(&str, u64, u64)> = by_name
        .into_iter()
        .map(|(name, (self_ns, count))| (name, self_ns, count))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows.truncate(n);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "top {} by self time ({} total)",
        rows.len(),
        fmt_ns(total_self)
    );
    let _ = writeln!(out, "{:>10}  {:>6}  {:>7}  span", "SELF", "SHARE", "COUNT");
    for (name, self_ns, count) in rows {
        let share = if total_self == 0 {
            0.0
        } else {
            self_ns as f64 / total_self as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "{:>10}  {share:>5.1}%  {count:>7}  {name}",
            fmt_ns(self_ns)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            thread: 1,
            name: name.to_string(),
            start_ns: 0,
            dur_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn folded_weights_are_self_time() {
        // flow(1000) -> sa(600) -> eval(200), flow -> verify(100).
        let spans = vec![
            span(1, 0, "flow", 1000),
            span(2, 1, "sa", 600),
            span(3, 2, "eval", 200),
            span(4, 1, "verify", 100),
        ];
        let text = render_folded(&spans);
        assert_eq!(
            text,
            "flow 300\nflow;sa 400\nflow;sa;eval 200\nflow;verify 100\n"
        );
    }

    #[test]
    fn folded_merges_identical_paths_and_skips_zero_self() {
        let spans = vec![
            span(1, 0, "flow", 500),
            span(2, 1, "sa", 500), // flow has zero self -> no "flow" line
            span(3, 0, "flow", 200),
            span(4, 3, "sa", 100),
        ];
        let text = render_folded(&spans);
        assert_eq!(text, "flow 100\nflow;sa 600\n");
    }

    #[test]
    fn orphans_root_new_stacks_and_names_are_sanitized() {
        let spans = vec![span(7, 99, "trace window;x", 50)];
        assert_eq!(render_folded(&spans), "trace_window:x 50\n");
    }

    #[test]
    fn top_table_sorts_by_self_and_truncates() {
        let spans = vec![
            span(1, 0, "flow", 1000),
            span(2, 1, "sa", 900),
            span(3, 0, "flow", 10),
        ];
        let text = render_top(&spans, 1);
        assert!(text.contains("top 1 by self time"), "{text}");
        let first_row = text.lines().nth(2).unwrap();
        assert!(first_row.ends_with("sa"), "{first_row}");
        assert!(!text.contains("flow"), "{text}");
    }

    #[test]
    fn empty_input_renders_header_only() {
        let text = render_top(&[], 5);
        assert!(text.contains("top 0"), "{text}");
        assert_eq!(render_folded(&[]), "");
    }
}
