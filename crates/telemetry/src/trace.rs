//! Assembling spans into a query trace tree and rendering it.
//!
//! Spans record only their parent id; this module recovers the tree shape
//! and renders it in the `EXPLAIN ANALYZE` style every engine operator
//! display descends from: one line per operator showing estimated vs actual
//! rows, q-error, cost-clock timings, grants and spills. Spans with no
//! parent are roots (a trace may have several — POP rounds, rejected eddy
//! probes), rendered in open order.

use crate::span::SpanSnapshot;
use std::fmt::Write as _;

/// A trace tree node: one span plus its children.
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// The span at this node.
    pub span: SpanSnapshot,
    /// Child operators, in span-open order.
    pub children: Vec<TraceNode>,
}

/// The assembled trace of one query execution.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// Root operators, in span-open order.
    pub roots: Vec<TraceNode>,
}

impl TraceTree {
    /// Build the tree from a span list (as produced by
    /// [`Tracer::snapshot`](crate::span::Tracer::snapshot)). Spans whose
    /// parent id is missing from the list are treated as roots.
    pub fn assemble(spans: &[SpanSnapshot]) -> TraceTree {
        // children[i] = indices of spans whose parent is spans[i].
        let index_of = |id: usize| spans.iter().position(|s| s.id == id);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent.and_then(index_of) {
                Some(p) if p != i => children[p].push(i),
                _ => roots.push(i),
            }
        }
        fn build(i: usize, spans: &[SpanSnapshot], children: &[Vec<usize>]) -> TraceNode {
            TraceNode {
                span: spans[i].clone(),
                children: children[i].iter().map(|&c| build(c, spans, children)).collect(),
            }
        }
        TraceTree { roots: roots.into_iter().map(|r| build(r, spans, &children)).collect() }
    }

    /// Total number of spans in the tree.
    pub fn len(&self) -> usize {
        fn count(n: &TraceNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Largest q-error across all spans with an estimate (NaN when none).
    pub fn max_q_error(&self) -> f64 {
        fn walk(n: &TraceNode, best: &mut f64) {
            let q = n.span.q_error();
            if !q.is_nan() && (best.is_nan() || q > *best) {
                *best = q;
            }
            n.children.iter().for_each(|c| walk(c, best));
        }
        let mut best = f64::NAN;
        self.roots.iter().for_each(|r| walk(r, &mut best));
        best
    }

    /// Render the tree `EXPLAIN ANALYZE`-style: one line per operator with
    /// box-drawing indentation, estimated vs actual rows, q-error, the
    /// self-time window on the cost clock, grants and spills.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let multi_root = self.roots.len() > 1;
        for root in &self.roots {
            render_node(root, if multi_root { "* " } else { "" }, true, true, &mut out);
        }
        out
    }
}

fn render_node(node: &TraceNode, prefix: &str, last: bool, is_root: bool, out: &mut String) {
    let s = &node.span;
    let connector = if is_root {
        prefix.to_string()
    } else if last {
        format!("{prefix}└─ ")
    } else {
        format!("{prefix}├─ ")
    };
    let mut line = format!("{connector}{}", s.kind);
    if !s.detail.is_empty() {
        let _ = write!(line, " [{}]", s.detail);
    }
    if s.est_rows.is_nan() {
        let _ = write!(line, "  rows={}", s.rows_out);
    } else {
        let _ = write!(
            line,
            "  rows={} (est={:.0}, q={:.2})",
            s.rows_out,
            s.est_rows,
            s.q_error()
        );
    }
    let _ = write!(line, "  open@{:.2}", s.opened_at);
    if !s.closed_at.is_nan() {
        let _ = write!(line, " close@{:.2}", s.closed_at);
    }
    if s.mem_granted > 0.0 {
        let _ = write!(line, "  grant={:.0}", s.mem_granted);
    }
    if s.spill_events > 0 {
        let _ = write!(line, "  spilled={:.0} rows/{} ev", s.spilled_rows, s.spill_events);
    }
    out.push_str(&line);
    out.push('\n');
    let child_prefix = if is_root {
        " ".repeat(prefix.chars().count())
    } else if last {
        format!("{prefix}   ")
    } else {
        format!("{prefix}│  ")
    };
    let n = node.children.len();
    for (i, child) in node.children.iter().enumerate() {
        render_node(child, &child_prefix, i + 1 == n, false, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;
    use rqp_common::{rule, CostClock};

    fn sample_spans() -> Vec<SpanSnapshot> {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let join = tracer.open("hash_join", &clock);
        join.set_est_rows(500.0);
        let scan_l = tracer.open("table_scan", &clock);
        scan_l.set_detail("lineitem");
        scan_l.set_parent(join.id());
        scan_l.set_est_rows(1000.0);
        let scan_r = tracer.open("table_scan", &clock);
        scan_r.set_detail("orders");
        scan_r.set_parent(join.id());
        for _ in 0..100 {
            scan_l.produced(&clock);
        }
        for _ in 0..40 {
            scan_r.produced(&clock);
            join.produced(&clock);
        }
        clock.charge(&rule::scan(7.0, 0.0));
        scan_l.close(&clock);
        scan_r.close(&clock);
        join.close(&clock);
        tracer.snapshot()
    }

    #[test]
    fn assembles_parent_links_into_a_tree() {
        let tree = TraceTree::assemble(&sample_spans());
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.len(), 3);
        let root = &tree.roots[0];
        assert_eq!(root.span.kind, "hash_join");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].span.detail, "lineitem");
        assert_eq!(root.children[1].span.detail, "orders");
        // est 500 vs actual 40 on the join dominates (q = 12.5 > 10).
        assert!((tree.max_q_error() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn renders_explain_analyze_style() {
        let tree = TraceTree::assemble(&sample_spans());
        let text = tree.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("hash_join"), "{text}");
        assert!(lines[0].contains("rows=40 (est=500, q=12.50)"), "{text}");
        assert!(lines[1].contains("├─ table_scan [lineitem]"), "{text}");
        assert!(lines[2].contains("└─ table_scan [orders]"), "{text}");
        assert!(lines[2].contains("rows=40"), "{text}");
    }

    #[test]
    fn orphans_and_multiple_roots_render() {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let a = tracer.open("round_0", &clock);
        let b = tracer.open("round_1", &clock);
        b.set_parent(9999); // Parent never collected: treated as a root.
        let c = tracer.open("scan", &clock);
        c.set_parent(a.id());
        let tree = TraceTree::assemble(&tracer.snapshot());
        assert_eq!(tree.roots.len(), 2);
        assert_eq!(tree.len(), 3);
        let text = tree.render();
        assert!(text.contains("* round_0"), "{text}");
        assert!(text.contains("* round_1"), "{text}");
    }

    #[test]
    fn self_parent_does_not_loop() {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let a = tracer.open("weird", &clock);
        a.set_parent(a.id());
        let tree = TraceTree::assemble(&tracer.snapshot());
        assert_eq!(tree.len(), 1);
    }
}
