//! System-level performance analysis of a timed marked graph.
//!
//! This is the entry point ERMES calls instead of simulating (Section 3 of
//! the paper): it classifies the graph as deadlocked (token-free cycle),
//! live (finite cycle time with a critical cycle), or acyclic, using
//! Howard's algorithm per strongly connected component, with the
//! parametric solver as a per-component fallback should policy iteration
//! hit its iteration cap.

use crate::deadlock::find_token_free_cycle;
use crate::graph::Tmg;
use crate::howard::{solve_component, with_thread_scratch, CycleRatioResult, PolicyHint};
use crate::ids::{PlaceId, TransitionId};
use crate::parametric::max_cycle_ratio_parametric;
use crate::ratio::Ratio;
use crate::ratio_graph::RatioGraph;
use crate::scc::tarjan;

/// A critical cycle: the cycle whose delay-to-token ratio equals the cycle
/// time of the graph. Improving the system requires shortening a delay on
/// this cycle (Section 5's timing optimization targets exactly these
/// transitions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalCycle {
    /// Places along the cycle, in traversal order.
    pub places: Vec<PlaceId>,
    /// Transitions along the cycle (the consumers of `places`), in the
    /// same order.
    pub transitions: Vec<TransitionId>,
    /// Total transition delay around the cycle.
    pub delay_sum: u64,
    /// Total tokens around the cycle (strictly positive for live graphs).
    pub token_sum: u64,
}

/// Outcome of [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A token-free cycle exists: the system will deadlock regardless of
    /// timing. Carries the witness cycle's places.
    Deadlock {
        /// Places of one token-free cycle.
        witness: Vec<PlaceId>,
    },
    /// Every cycle carries tokens: the system runs forever with the given
    /// cycle time (Definition 2) achieved on the critical cycle.
    Live {
        /// The cycle time π(G): average time between consecutive firings
        /// of any transition (strongly connected graphs).
        cycle_time: Ratio,
        /// One cycle achieving the minimum cycle mean.
        critical: CriticalCycle,
    },
    /// The graph has no cycles; steady-state throughput is unconstrained
    /// by feedback. (Does not occur for the paper's process networks, whose
    /// processes always loop.)
    Acyclic,
}

impl Verdict {
    /// The cycle time, if the system is live.
    #[must_use]
    pub fn cycle_time(&self) -> Option<Ratio> {
        match self {
            Verdict::Live { cycle_time, .. } => Some(*cycle_time),
            _ => None,
        }
    }

    /// True when the verdict is [`Verdict::Deadlock`].
    #[must_use]
    pub fn is_deadlock(&self) -> bool {
        matches!(self, Verdict::Deadlock { .. })
    }

    /// The throughput 1/π(G), if the system is live and π(G) > 0.
    #[must_use]
    pub fn throughput(&self) -> Option<Ratio> {
        self.cycle_time().and_then(Ratio::recip)
    }
}

/// Analyzes a timed marked graph: deadlock check, then exact cycle time
/// with a critical-cycle witness.
///
/// # Examples
///
/// ```
/// use tmg::{analyze, TmgBuilder, Verdict, Ratio};
/// let mut b = TmgBuilder::new();
/// let a = b.add_transition("producer", 3);
/// let c = b.add_transition("consumer", 2);
/// b.add_place(a, c, 1);
/// b.add_place(c, a, 0);
/// let g = b.build()?;
/// match analyze(&g) {
///     Verdict::Live { cycle_time, .. } => assert_eq!(cycle_time, Ratio::new(5, 1)),
///     other => panic!("expected live, got {other:?}"),
/// }
/// # Ok::<(), tmg::TmgError>(())
/// ```
#[must_use]
pub fn analyze(graph: &Tmg) -> Verdict {
    analyze_with_jobs(graph, 1)
}

/// [`analyze`] with the per-SCC Howard solves spread over up to `jobs`
/// worker threads (`0` = all hardware threads, `1` = inline/serial).
///
/// Strongly connected components share no cycles, so each is solved
/// independently; the per-component results are then reduced **in
/// component order** with the same strictly-greater comparison as the
/// serial loop. The verdict — cycle time *and* critical-cycle witness —
/// is therefore bit-identical at any thread count.
#[must_use]
pub fn analyze_with_jobs(graph: &Tmg, jobs: usize) -> Verdict {
    analyze_with_hint(graph, jobs, None, &mut PolicyHint::new())
        .expect("no cancel token, cannot be cancelled")
}

/// [`analyze_with_jobs`], but cooperatively cancellable: every per-SCC
/// Howard solve polls `cancel` between policy-improvement rounds, so a
/// fired token stops the analysis within one round per in-flight
/// component rather than at solve completion.
///
/// On the `Ok` path the verdict is bit-identical to
/// [`analyze_with_jobs`] at any thread count.
///
/// # Errors
///
/// [`Cancelled`](parx::Cancelled) when the token fired before the
/// analysis finished. A cancelled analysis never falls back to the
/// (uncancellable) parametric solver.
pub fn analyze_with_cancel(
    graph: &Tmg,
    jobs: usize,
    cancel: &parx::CancelToken,
) -> Result<Verdict, parx::Cancelled> {
    analyze_with_hint(graph, jobs, Some(cancel), &mut PolicyHint::new())
}

/// The one analysis path: [`analyze_with_cancel`] with Howard warm-started
/// from `hint`, which is then updated to this graph's converged policies.
///
/// A caller that analyzes a sequence of closely related graphs (an
/// exploration run re-analyzing after each selection change) threads one
/// hint through the sequence so that each solve starts from the previous
/// optimum. The hint changes only how many policy-improvement rounds each
/// solve takes: the verdict, witness included, is bit-identical to
/// [`analyze_with_jobs`] for any hint (see [`PolicyHint`]). The plain
/// entry points are this path with an empty hint.
///
/// # Errors
///
/// [`Cancelled`](parx::Cancelled) when `cancel` fired before the analysis
/// finished; `hint` then keeps whatever it held before.
pub fn analyze_with_hint(
    graph: &Tmg,
    jobs: usize,
    cancel: Option<&parx::CancelToken>,
    hint: &mut PolicyHint,
) -> Result<Verdict, parx::Cancelled> {
    let _span = trace::span("analysis");
    if let Some(witness) = find_token_free_cycle(graph) {
        return Ok(Verdict::Deadlock { witness });
    }
    let rg = RatioGraph::from_tmg(graph);
    let scc = tarjan(&rg);
    let groups = scc.groups();
    trace::attr("sccs", groups.len());
    // Fan the per-component solves out by index over the flat grouping —
    // one id array instead of one `Vec` per component. Each worker thread
    // reuses its thread-local Howard scratch arena across every component
    // it drains from the queue, and hands back the converged policy so the
    // hint is updated once the fan-out joins.
    let indices: Vec<u32> = (0..groups.len() as u32).collect();
    let start: &PolicyHint = hint;
    let solved = parx::par_map(jobs, &indices, |i, &c| {
        let _span = trace::span("howard");
        trace::attr("scc", i);
        let members = groups.group(c as usize);
        trace::attr("nodes", members.len());
        with_thread_scratch(|scratch| {
            let result = solve_component(scratch, &rg, &scc, members, start, cancel)?;
            let heads: Option<Vec<u32>> = scratch.policy_heads(members).map(Iterator::collect);
            Ok((result, heads))
        })
    });
    let solved: Vec<_> = solved.into_iter().collect::<Result<_, _>>()?;
    let mut best: Option<CycleRatioResult> = None;
    for (c, (result, heads)) in solved.into_iter().enumerate() {
        if let Some(heads) = heads {
            hint.record(groups.group(c), heads);
        }
        if let Some(r) = result {
            if best.as_ref().is_none_or(|b| r.ratio > b.ratio) {
                best = Some(r);
            }
        }
    }
    Ok(match best {
        None => Verdict::Acyclic,
        Some(result) => live_verdict(graph, &rg, &result),
    })
}

/// The live verdict for a winning component result: maps the witness's
/// ratio-graph edges back to places and transitions.
pub(crate) fn live_verdict(graph: &Tmg, rg: &RatioGraph, result: &CycleRatioResult) -> Verdict {
    let places: Vec<PlaceId> = result
        .cycle_edges
        .iter()
        .map(|&e| rg.edges[e].place.expect("edge lowered from a place"))
        .collect();
    let transitions: Vec<TransitionId> =
        places.iter().map(|&p| graph.place(p).consumer()).collect();
    let delay_sum = transitions
        .iter()
        .map(|&t| graph.transition(t).delay())
        .sum();
    let token_sum = places
        .iter()
        .map(|&p| graph.place(p).initial_tokens())
        .sum();
    Verdict::Live {
        cycle_time: result.ratio,
        critical: CriticalCycle {
            places,
            transitions,
            delay_sum,
            token_sum,
        },
    }
}

/// Exact cycle time computed with the parametric baseline solver instead
/// of Howard's algorithm. Exposed for cross-validation and benchmarking.
#[must_use]
pub fn analyze_parametric(graph: &Tmg) -> Verdict {
    if let Some(witness) = find_token_free_cycle(graph) {
        return Verdict::Deadlock { witness };
    }
    let rg = RatioGraph::from_tmg(graph);
    if crate::parametric::find_any_cycle(&rg).is_none() {
        return Verdict::Acyclic;
    }
    let result = max_cycle_ratio_parametric(&rg).expect("graph is cyclic");
    live_verdict(graph, &rg, &result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TmgBuilder;

    #[test]
    fn deadlock_wins_over_cycle_time() {
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 1);
        let c = b.add_transition("c", 1);
        b.add_place(a, c, 0);
        b.add_place(c, a, 0);
        // A live self-loop elsewhere does not mask the deadlock.
        let d = b.add_transition("d", 5);
        b.add_place(d, d, 1);
        let g = b.build().expect("valid");
        assert!(analyze(&g).is_deadlock());
    }

    #[test]
    fn live_ring_reports_exact_cycle_time_and_critical_cycle() {
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 3);
        let c = b.add_transition("c", 2);
        b.add_place(a, c, 1);
        b.add_place(c, a, 0);
        let g = b.build().expect("valid");
        match analyze(&g) {
            Verdict::Live {
                cycle_time,
                critical,
            } => {
                assert_eq!(cycle_time, Ratio::new(5, 1));
                assert_eq!(critical.delay_sum, 5);
                assert_eq!(critical.token_sum, 1);
                assert_eq!(critical.places.len(), 2);
            }
            other => panic!("expected live, got {other:?}"),
        }
    }

    #[test]
    fn acyclic_graph() {
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 3);
        let c = b.add_transition("c", 2);
        b.add_place(a, c, 1);
        let g = b.build().expect("valid");
        assert_eq!(analyze(&g), Verdict::Acyclic);
    }

    #[test]
    fn throughput_is_reciprocal() {
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 4);
        b.add_place(a, a, 2);
        let g = b.build().expect("valid");
        let v = analyze(&g);
        assert_eq!(v.cycle_time(), Some(Ratio::new(2, 1)));
        assert_eq!(v.throughput(), Some(Ratio::new(1, 2)));
    }

    #[test]
    fn parametric_agrees_with_howard() {
        let mut b = TmgBuilder::new();
        let t: Vec<_> = (0..5)
            .map(|i| b.add_transition(format!("t{i}"), (i as u64) * 3 + 1))
            .collect();
        for i in 0..5 {
            b.add_place(t[i], t[(i + 1) % 5], u64::from(i == 0));
        }
        b.add_place(t[2], t[0], 1);
        b.add_place(t[0], t[2], 1);
        let g = b.build().expect("valid");
        assert_eq!(
            analyze(&g).cycle_time(),
            analyze_parametric(&g).cycle_time()
        );
    }

    #[test]
    fn parallel_analysis_is_bit_identical() {
        // A dozen disjoint rings of distinct sizes/delays → a dozen SCCs
        // with distinct ratios, plus cross-SCC edges to keep Tarjan busy.
        let mut b = TmgBuilder::new();
        let mut firsts = Vec::new();
        for k in 0..12u64 {
            let n = 3 + (k as usize % 4);
            let t: Vec<_> = (0..n)
                .map(|i| b.add_transition(format!("r{k}_{i}"), k + i as u64 + 1))
                .collect();
            for i in 0..n {
                b.add_place(t[i], t[(i + 1) % n], u64::from(i == 0) + k % 2);
            }
            firsts.push(t[0]);
        }
        for pair in firsts.windows(2) {
            b.add_place(pair[0], pair[1], 1);
        }
        let g = b.build().expect("valid");
        let serial = analyze_with_jobs(&g, 1);
        assert!(serial.cycle_time().is_some(), "rings are live");
        for jobs in [2, 3, 4, 8, 0] {
            assert_eq!(analyze_with_jobs(&g, jobs), serial, "jobs = {jobs}");
        }
        assert_eq!(analyze(&g), serial);
    }

    #[test]
    fn cancellable_analysis_matches_plain_analysis_when_live() {
        use parx::{CancelReason, CancelToken};
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 3);
        let c = b.add_transition("c", 2);
        b.add_place(a, c, 1);
        b.add_place(c, a, 0);
        let g = b.build().expect("valid");
        let token = CancelToken::new();
        let verdict = analyze_with_cancel(&g, 1, &token).expect("token is live");
        assert_eq!(verdict, analyze(&g), "same verdict, bit-identical");
        token.cancel(CancelReason::Deadline);
        let err = analyze_with_cancel(&g, 1, &token).expect_err("token fired");
        assert_eq!(err.reason, CancelReason::Deadline);
    }

    #[test]
    fn capped_component_hands_off_alone_and_keeps_the_verdict() {
        use crate::howard::FORCE_CAP_AT_NODES;
        use crate::karp::max_cycle_mean_karp;
        // Two components, every place holding one token (so Karp's cycle
        // mean is the cycle time): a 2-ring with mean 3 and the critical
        // 3-ring with a chord, mean 7. Capping the 3-vertex component used
        // to drop its ratio and report the 2-ring's.
        let mut b = TmgBuilder::new();
        let a0 = b.add_transition("a0", 2);
        let a1 = b.add_transition("a1", 4);
        b.add_place(a0, a1, 1);
        b.add_place(a1, a0, 1);
        let c: Vec<_> = (0..3)
            .map(|i| b.add_transition(format!("c{i}"), [5, 9, 1][i]))
            .collect();
        for i in 0..3 {
            b.add_place(c[i], c[(i + 1) % 3], 1);
        }
        b.add_place(c[1], c[0], 1);
        b.add_place(a1, c[2], 1);
        let g = b.build().expect("valid");
        let uncapped = analyze(&g);
        let karp = max_cycle_mean_karp(&RatioGraph::from_tmg(&g));
        assert_eq!(uncapped.cycle_time(), karp);
        assert_eq!(karp, Some(Ratio::new(7, 1)));

        let before = crate::howard_stats();
        FORCE_CAP_AT_NODES.with(|cap| cap.set(Some(3)));
        let capped = analyze(&g);
        let mut inc = crate::IncrementalAnalysis::new(&g);
        FORCE_CAP_AT_NODES.with(|cap| cap.set(None));
        assert!(crate::howard_stats().delta_since(&before).capped >= 2);
        assert_eq!(capped.cycle_time(), karp);
        assert_eq!(
            capped, uncapped,
            "the fallback witness is the canonical one"
        );
        assert_eq!(inc.verdict(), &uncapped);
        inc.reprice(&g, &[], None).expect("not cancelled");
        assert_eq!(inc.verdict(), &uncapped);
    }

    #[test]
    fn critical_cycle_is_closed() {
        let mut b = TmgBuilder::new();
        let t: Vec<_> = (0..4)
            .map(|i| b.add_transition(format!("t{i}"), 2 * (i as u64) + 1))
            .collect();
        for i in 0..4 {
            b.add_place(t[i], t[(i + 1) % 4], u64::from(i % 2 == 0));
        }
        let g = b.build().expect("valid");
        match analyze(&g) {
            Verdict::Live { critical, .. } => {
                for (i, &p) in critical.places.iter().enumerate() {
                    let next = critical.places[(i + 1) % critical.places.len()];
                    assert_eq!(g.place(p).consumer(), g.place(next).producer());
                }
            }
            other => panic!("expected live, got {other:?}"),
        }
    }
}
