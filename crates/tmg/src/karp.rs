//! Karp's algorithm for the maximum cycle *mean*.
//!
//! Karp's dynamic program solves the special case of the cycle-ratio
//! problem in which every edge contributes exactly one token — i.e. the
//! classical maximum mean cycle. The crate keeps it as an independent
//! O(V·E) cross-check for the general solvers on unit-token graphs, in the
//! spirit of the algorithm study the paper cites (Dasdan–Irani–Gupta).

use crate::ratio::Ratio;
use crate::ratio_graph::RatioGraph;
use crate::scc::tarjan;

/// Maximum mean cycle (mean = Σdelay / edge count) over the whole graph,
/// computed with Karp's theorem per strongly connected component.
///
/// Returns `None` if the graph is acyclic. Edge token counts are ignored —
/// this is only meaningful as a cross-check on graphs where every token
/// count is 1.
#[must_use]
pub(crate) fn max_cycle_mean_karp(graph: &RatioGraph) -> Option<Ratio> {
    let scc = tarjan(graph);
    let groups = scc.groups();
    let mut best: Option<Ratio> = None;
    for c in 0..groups.len() {
        if let Some(mean) = karp_on_component(graph, &scc.component, groups.group(c)) {
            if best.is_none_or(|b| mean > b) {
                best = Some(mean);
            }
        }
    }
    best
}

fn karp_on_component(graph: &RatioGraph, component: &[usize], members: &[u32]) -> Option<Ratio> {
    let k = members.len();
    let comp = component[members[0] as usize];
    let mut local = vec![usize::MAX; graph.node_count];
    for (i, &v) in members.iter().enumerate() {
        local[v as usize] = i;
    }
    let internal: Vec<_> = graph
        .edges
        .iter()
        .filter(|e| component[e.from] == comp && component[e.to] == comp)
        .collect();
    if internal.is_empty() {
        return None;
    }

    const NEG_INF: i64 = i64::MIN / 4;
    // dp[k][v] = maximum delay of a walk with exactly k edges from the
    // source (member 0) to v.
    let mut dp = vec![vec![NEG_INF; k]; k + 1];
    dp[0][0] = 0;
    for step in 1..=k {
        for e in &internal {
            let u = local[e.from];
            let v = local[e.to];
            if dp[step - 1][u] > NEG_INF {
                let cand = dp[step - 1][u] + e.delay;
                if cand > dp[step][v] {
                    dp[step][v] = cand;
                }
            }
        }
    }

    // Karp: max over v of min over 0<=j<k of (dp[k][v] - dp[j][v])/(k - j),
    // restricted to v with dp[k][v] finite.
    let mut best: Option<Ratio> = None;
    for v in 0..k {
        if dp[k][v] <= NEG_INF {
            continue;
        }
        let mut v_min: Option<Ratio> = None;
        for (j, row) in dp.iter().enumerate().take(k) {
            if row[v] <= NEG_INF {
                continue;
            }
            let num = dp[k][v] - row[v];
            let den = (k - j) as i64;
            // Walk means can be negative in general graphs, but delays are
            // non-negative here so the difference is too.
            let mean = Ratio::new(num.max(0), den);
            if v_min.is_none_or(|m| mean < m) {
                v_min = Some(mean);
            }
        }
        if let Some(m) = v_min {
            if best.is_none_or(|b| m > b) {
                best = Some(m);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_cycle() {
        let mut g = RatioGraph::with_nodes(2);
        g.add_edge(0, 1, 3, 1, None);
        g.add_edge(1, 0, 5, 1, None);
        // Mean = (3 + 5) / 2 = 4.
        assert_eq!(max_cycle_mean_karp(&g), Some(Ratio::new(4, 1)));
    }

    #[test]
    fn picks_the_heavier_loop() {
        let mut g = RatioGraph::with_nodes(3);
        g.add_edge(0, 1, 1, 1, None);
        g.add_edge(1, 0, 1, 1, None); // mean 1
        g.add_edge(1, 2, 10, 1, None);
        g.add_edge(2, 1, 2, 1, None); // mean 6
        assert_eq!(max_cycle_mean_karp(&g), Some(Ratio::new(6, 1)));
    }

    #[test]
    fn acyclic_returns_none() {
        let mut g = RatioGraph::with_nodes(3);
        g.add_edge(0, 1, 1, 1, None);
        g.add_edge(1, 2, 1, 1, None);
        assert_eq!(max_cycle_mean_karp(&g), None);
    }

    #[test]
    fn self_loop_mean_is_its_delay() {
        let mut g = RatioGraph::with_nodes(1);
        g.add_edge(0, 0, 9, 1, None);
        assert_eq!(max_cycle_mean_karp(&g), Some(Ratio::new(9, 1)));
    }

    #[test]
    fn multiple_components() {
        let mut g = RatioGraph::with_nodes(4);
        g.add_edge(0, 1, 2, 1, None);
        g.add_edge(1, 0, 2, 1, None); // mean 2
        g.add_edge(2, 3, 8, 1, None);
        g.add_edge(3, 2, 4, 1, None); // mean 6
        g.add_edge(1, 2, 100, 1, None); // bridge, not on any cycle
        assert_eq!(max_cycle_mean_karp(&g), Some(Ratio::new(6, 1)));
    }
}
