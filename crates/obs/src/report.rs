//! Span-tree reporting: JSONL export/import of [`SpanRecord`]s and an aggregated
//! self/total-time tree renderer (the `obs report` command).
//!
//! The JSONL format is one flat object per line:
//!
//! ```json
//! {"id":7,"parent":3,"thread":1,"name":"sa_epoch","start_ns":1200,"dur_ns":880,"counters":{"evaluations":4800}}
//! ```
//!
//! [`aggregate`] folds the records into a tree keyed by name *path* (root span
//! name, then child name, …): each node carries the number of spans on that path,
//! their total wall-clock time, the *self* time (total minus the direct
//! children's total), and the summed span counters. [`render_tree`] prints it
//! flamegraph-style, children sorted by self time, so the hottest leaf of a
//! campaign or sca run is the first deeply indented line you read.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::trace::SpanRecord;

/// Encode spans as JSONL (one object per line, trailing newline).
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for span in spans {
        let counters = span
            .counters
            .iter()
            .map(|(key, value)| (key.clone(), Json::UInt(*value)))
            .collect();
        let line = Json::Obj(vec![
            ("id".into(), Json::UInt(span.id)),
            ("parent".into(), Json::UInt(span.parent)),
            ("thread".into(), Json::UInt(span.thread)),
            ("name".into(), Json::Str(span.name.clone())),
            ("start_ns".into(), Json::UInt(span.start_ns)),
            ("dur_ns".into(), Json::UInt(span.dur_ns)),
            ("counters".into(), Json::Obj(counters)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

/// Parse a JSONL span export back into records. Keys outside the span schema
/// are rejected; a malformed line aborts with a message naming its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut spans = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let span = parse_span(line).map_err(|e| format!("line {}: {e}", index + 1))?;
        spans.push(span);
    }
    Ok(spans)
}

fn parse_span(line: &str) -> Result<SpanRecord, String> {
    let Json::Obj(members) = Json::parse(line).map_err(|e| e.to_string())? else {
        return Err("a span line is not a JSON object".to_string());
    };
    let mut span = SpanRecord {
        id: 0,
        parent: 0,
        thread: 0,
        name: String::new(),
        start_ns: 0,
        dur_ns: 0,
        counters: Vec::new(),
    };
    let count = |key: &str, value: &Json| {
        value
            .as_u64()
            .ok_or_else(|| format!("'{key}' is not a non-negative integer"))
    };
    for (key, value) in members {
        match (key.as_str(), value) {
            ("id", value) => span.id = count(&key, &value)?,
            ("parent", value) => span.parent = count(&key, &value)?,
            ("thread", value) => span.thread = count(&key, &value)?,
            ("start_ns", value) => span.start_ns = count(&key, &value)?,
            ("dur_ns", value) => span.dur_ns = count(&key, &value)?,
            ("name", Json::Str(name)) => span.name = name,
            ("counters", Json::Obj(counters)) => {
                for (counter, value) in counters {
                    let value = count(&counter, &value)?;
                    span.counters.push((counter, value));
                }
            }
            ("name" | "counters", _) => return Err(format!("'{key}' has the wrong type")),
            (other, _) => return Err(format!("unknown key '{other}'")),
        }
    }
    if span.id == 0 {
        return Err("span object has no id".to_string());
    }
    Ok(span)
}

/// One node of the aggregated span tree (all spans sharing a name path).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// Span name at this path position.
    pub name: String,
    /// Number of spans aggregated into this node.
    pub count: u64,
    /// Summed wall-clock duration of those spans, in nanoseconds.
    pub total_ns: u64,
    /// Total minus the direct children's total (clamped at 0), in nanoseconds.
    pub self_ns: u64,
    /// Summed span counters.
    pub counters: BTreeMap<String, u64>,
    /// Child nodes, sorted by descending self time.
    pub children: Vec<TreeNode>,
}

/// Aggregate finished spans into name-path trees. Spans whose parent id is
/// absent from the input (cross-thread work, still-open parents) become roots.
/// Roots are returned sorted by descending self time.
pub fn aggregate(spans: &[SpanRecord]) -> Vec<TreeNode> {
    let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children_of: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (index, span) in spans.iter().enumerate() {
        if span.parent != 0 && known.contains(&span.parent) {
            children_of.entry(span.parent).or_default().push(index);
        } else {
            roots.push(index);
        }
    }
    build_level(spans, &children_of, &roots)
}

fn build_level(
    spans: &[SpanRecord],
    children_of: &BTreeMap<u64, Vec<usize>>,
    members: &[usize],
) -> Vec<TreeNode> {
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &index in members {
        groups.entry(&spans[index].name).or_default().push(index);
    }
    let mut nodes: Vec<TreeNode> = groups
        .into_iter()
        .map(|(name, group)| {
            let mut counters: BTreeMap<String, u64> = BTreeMap::new();
            let mut total_ns = 0u64;
            let mut child_members: Vec<usize> = Vec::new();
            for &index in &group {
                let span = &spans[index];
                total_ns += span.dur_ns;
                for (key, value) in &span.counters {
                    *counters.entry(key.clone()).or_insert(0) += value;
                }
                if let Some(kids) = children_of.get(&span.id) {
                    child_members.extend_from_slice(kids);
                }
            }
            let children = build_level(spans, children_of, &child_members);
            let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
            TreeNode {
                name: name.to_string(),
                count: group.len() as u64,
                total_ns,
                self_ns: total_ns.saturating_sub(child_total),
                counters,
                children,
            }
        })
        .collect();
    sort_by_self(&mut nodes);
    nodes
}

fn sort_by_self(nodes: &mut [TreeNode]) {
    nodes.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
}

/// Format nanoseconds with a human-readable unit (`ns`, `µs`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

/// Render the aggregated tree as the `obs report` table: one line per node with
/// total time, self time, span count, and the indented name plus its counters.
pub fn render_tree(roots: &[TreeNode]) -> String {
    let mut out = String::new();
    let total: u64 = roots.iter().map(|r| r.total_ns).sum();
    let count: u64 = roots.iter().map(count_spans).sum();
    let _ = writeln!(out, "{count} spans, {} total", fmt_ns(total));
    let _ = writeln!(out, "{:>10}  {:>10}  {:>7}  span", "TOTAL", "SELF", "COUNT");
    for root in roots {
        render_node(&mut out, root, 0);
    }
    out
}

fn count_spans(node: &TreeNode) -> u64 {
    node.count + node.children.iter().map(count_spans).sum::<u64>()
}

fn render_node(out: &mut String, node: &TreeNode, depth: usize) {
    let mut label = format!("{}{}", "  ".repeat(depth), node.name);
    if !node.counters.is_empty() {
        let counters: Vec<String> = node
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = write!(label, " [{}]", counters.join(", "));
    }
    let _ = writeln!(
        out,
        "{:>10}  {:>10}  {:>7}  {label}",
        fmt_ns(node.total_ns),
        fmt_ns(node.self_ns),
        node.count
    );
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

/// Render a per-span-name latency summary: count, p50/p95/p99 duration
/// quantiles (estimated via [`crate::metrics::Histogram::quantile`] over
/// power-of-two nanosecond buckets), and the max observed duration. Names are
/// sorted by descending p99. This is the second table `obs report` prints.
pub fn render_quantiles(spans: &[SpanRecord]) -> String {
    // Power-of-two bounds from 1µs to ~1100s: quantiles resolve to within a
    // factor of two, which is plenty for a "where is the tail" summary.
    let bounds: Vec<f64> = (0..31).map(|i| 1e3 * f64::from(1u32 << i)).collect();
    let mut stats: BTreeMap<&str, (crate::metrics::Histogram, u64)> = BTreeMap::new();
    for span in spans {
        let (histogram, max_ns) = stats
            .entry(&span.name)
            .or_insert_with(|| (crate::metrics::Histogram::with_bounds(&bounds), 0));
        histogram.observe(span.dur_ns as f64);
        *max_ns = (*max_ns).max(span.dur_ns);
    }
    let mut rows: Vec<(&str, &(crate::metrics::Histogram, u64))> =
        stats.iter().map(|(name, stat)| (*name, stat)).collect();
    rows.sort_by(|a, b| {
        b.1 .0
            .quantile(0.99)
            .total_cmp(&a.1 .0.quantile(0.99))
            .then(a.0.cmp(b.0))
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>7}  {:>10}  {:>10}  {:>10}  {:>10}  span",
        "COUNT", "P50", "P95", "P99", "MAX"
    );
    for (name, (histogram, max_ns)) in rows {
        let q = |q: f64| fmt_ns(histogram.quantile(q) as u64);
        let _ = writeln!(
            out,
            "{:>7}  {:>10}  {:>10}  {:>10}  {:>10}  {name}",
            histogram.count(),
            q(0.50),
            q(0.95),
            q(0.99),
            fmt_ns(*max_ns)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            thread: 1,
            name: name.to_string(),
            start_ns,
            dur_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let mut a = span(1, 0, "flow", 10, 500);
        a.counters.push(("evaluations".to_string(), 4800));
        let b = span(2, 1, "weird \"name\"\n\\", 20, 30);
        let text = spans_to_jsonl(&[a.clone(), b.clone()]);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, vec![a, b]);
    }

    #[test]
    fn parse_rejects_garbage_with_line_number() {
        let err = parse_jsonl("{\"id\":1,\"name\":\"x\"}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn parse_rejects_unknown_keys_and_ill_typed_fields() {
        let err = parse_jsonl("{\"id\":1,\"extra\":2}").unwrap_err();
        assert!(err.contains("unknown key 'extra'"), "{err}");
        let err = parse_jsonl("{\"id\":1,\"dur_ns\":-3}").unwrap_err();
        assert!(err.contains("'dur_ns'"), "{err}");
        let err = parse_jsonl("{\"id\":1,\"name\":7}").unwrap_err();
        assert!(err.contains("'name'"), "{err}");
        assert!(parse_jsonl("{\"parent\":1}").is_err(), "a span needs an id");
    }

    #[test]
    fn jsonl_bytes_match_the_documented_format() {
        let mut a = span(7, 3, "sa_epoch", 1200, 880);
        a.counters.push(("evaluations".to_string(), 4800));
        assert_eq!(
            spans_to_jsonl(&[a]),
            "{\"id\":7,\"parent\":3,\"thread\":1,\"name\":\"sa_epoch\",\"start_ns\":1200,\
             \"dur_ns\":880,\"counters\":{\"evaluations\":4800}}\n"
        );
    }

    #[test]
    fn aggregate_computes_self_time_and_sorts() {
        // flow(1000) -> [sa(600), verify(100)], plus a second flow(500) -> sa(200).
        let spans = vec![
            span(1, 0, "flow", 0, 1000),
            span(2, 1, "sa", 10, 600),
            span(3, 1, "verify", 700, 100),
            span(4, 0, "flow", 2000, 500),
            span(5, 4, "sa", 2010, 200),
        ];
        let roots = aggregate(&spans);
        assert_eq!(roots.len(), 1);
        let flow = &roots[0];
        assert_eq!(
            (flow.name.as_str(), flow.count, flow.total_ns),
            ("flow", 2, 1500)
        );
        assert_eq!(flow.self_ns, 1500 - 800 - 100);
        assert_eq!(flow.children[0].name, "sa"); // 800 self > verify's 100
        assert_eq!(flow.children[0].count, 2);
        assert_eq!(flow.children[1].name, "verify");
    }

    #[test]
    fn orphan_spans_become_roots() {
        // Parent id 99 is not in the set (e.g. recorded on another thread).
        let spans = vec![span(1, 99, "trace_window", 0, 100)];
        let roots = aggregate(&spans);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "trace_window");
    }

    #[test]
    fn render_is_indented_and_counts() {
        let spans = vec![
            span(1, 0, "flow", 0, 2_000_000),
            span(2, 1, "sa", 0, 1_500_000),
        ];
        let text = render_tree(&aggregate(&spans));
        assert!(text.contains("2 spans"), "{text}");
        assert!(text.contains("flow"), "{text}");
        assert!(text.contains("  sa"), "{text}");
    }
}
