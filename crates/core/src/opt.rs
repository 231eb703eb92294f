//! IP-selection optimization: area recovery and timing optimization.
//!
//! Section 5 of the paper. Given the performance slack `sp = TCT − CT`:
//!
//! - **Area recovery** (`sp > 0`): re-select implementations to maximize
//!   the cumulative area gain, subject to the cumulative latency increase
//!   of the processes on the critical cycle staying within the slack — a
//!   multiple-choice knapsack, formulated as a 0/1 ILP.
//! - **Timing optimization** (`sp ≤ 0`): re-select implementations of the
//!   critical-cycle processes to maximize the cumulative latency gain.
//!
//! Both formulations carry *no-good cuts* that "discard the
//! configurations already optimized" (the paper's termination device),
//! and both exist in two strategies: the exact solve (the paper's GLPK
//! ILP, here the multiple-choice knapsack engine of [`ilp::Mckp`], which
//! these functions feed one class per process directly) and a greedy
//! frontier walk for the 10,000-process scalability benchmarks.

use crate::design::Design;
use crate::error::ErmesError;
use hlsim::MicroArch;
use ilp::{McItem, Mckp, Row};
use sysgraph::ProcessId;

/// A proposed re-selection of implementations.
#[derive(Debug, Clone, PartialEq)]
pub struct IpSelection {
    /// New implementation index per process.
    pub selection: Vec<usize>,
    /// Objective value (cumulative area gain or latency gain).
    pub objective: f64,
}

/// Solver strategy for the selection problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptStrategy {
    /// Exact multiple-choice knapsack ([`ilp::Mckp::solve`]).
    Exact,
    /// Greedy frontier walk (used for very large designs).
    Greedy,
    /// [`OptStrategy::Exact`] up to 400 decision variables, then
    /// [`OptStrategy::Greedy`].
    #[default]
    Auto,
}

const AUTO_EXACT_LIMIT: usize = 400;

fn resolve(strategy: OptStrategy, variables: usize) -> OptStrategy {
    match strategy {
        OptStrategy::Auto => {
            if variables <= AUTO_EXACT_LIMIT {
                OptStrategy::Exact
            } else {
                OptStrategy::Greedy
            }
        }
        s => s,
    }
}

/// Area recovery: maximize total area gain while the critical-cycle
/// latency increase stays within `slack`. Returns `None` when no
/// configuration with a positive area gain exists (outside `forbidden`).
///
/// When `target_cycle_time` is given, implementations whose latency would
/// push the process's own loop (computation plus incident channel
/// latencies — a lower bound on any cycle through it) past the target are
/// excluded up front; this is the paper's "maintaining CT < TCT" side
/// condition on the knapsack.
///
/// # Errors
///
/// Propagates solver failures as [`ErmesError::Ilp`].
pub fn area_recovery(
    design: &Design,
    critical: &[ProcessId],
    slack: i64,
    forbidden: &[Vec<usize>],
    target_cycle_time: Option<u64>,
    strategy: OptStrategy,
) -> Result<Option<IpSelection>, ErmesError> {
    let variables: usize = design
        .system()
        .process_ids()
        .map(|p| design.pareto(p).len())
        .sum();
    let caps = latency_caps(design, target_cycle_time);
    match resolve(strategy, variables) {
        OptStrategy::Greedy => Ok(area_recovery_greedy(
            design, critical, slack, forbidden, &caps,
        )),
        _ => area_recovery_exact(design, critical, slack, forbidden, &caps),
    }
}

/// Per-process latency cap implied by the target cycle time: the cycle
/// time of the whole system is at least `latency(p) + Σ incident channel
/// latencies` for every process `p`, so implementations exceeding
/// `TCT − overhead(p)` can never be part of a target-meeting design.
fn latency_caps(design: &Design, target_cycle_time: Option<u64>) -> Vec<u64> {
    let sys = design.system();
    let mut overhead = vec![0u64; sys.process_count()];
    for c in sys.channel_ids() {
        let ch = sys.channel(c);
        overhead[ch.from().index()] += ch.latency();
        overhead[ch.to().index()] += ch.latency();
    }
    match target_cycle_time {
        None => vec![u64::MAX; sys.process_count()],
        Some(tct) => overhead.iter().map(|&o| tct.saturating_sub(o)).collect(),
    }
}

fn is_critical(design: &Design, critical: &[ProcessId]) -> Vec<bool> {
    let mut v = vec![false; design.system().process_count()];
    for &p in critical {
        v[p.index()] = true;
    }
    v
}

/// An [`Mckp`] over some of the design's processes, with the Pareto
/// index behind every item so solutions map back to selections.
struct SelectionProblem<'a> {
    design: &'a Design,
    /// Per process: the Pareto index of each item of its class, or empty
    /// when the process has no class (its selection stays).
    points: Vec<Vec<usize>>,
    problem: Mckp,
}

impl<'a> SelectionProblem<'a> {
    fn new(design: &'a Design, row: Row) -> Self {
        SelectionProblem {
            design,
            points: Vec::with_capacity(design.system().process_count()),
            problem: Mckp {
                classes: Vec::new(),
                row,
                forbidden: Vec::new(),
            },
        }
    }

    /// Adds `p`'s class (processes come in index order): one item per
    /// Pareto index in `points`, in order.
    fn push(&mut self, p: ProcessId, points: Vec<usize>, item: impl Fn(&MicroArch) -> McItem) {
        debug_assert_eq!(p.index(), self.points.len());
        let set = self.design.pareto(p);
        self.problem
            .classes
            .push(points.iter().map(|&i| item(&set.points()[i])).collect());
        self.points.push(points);
    }

    /// Skips a process that keeps its current selection.
    fn skip(&mut self) {
        self.points.push(Vec::new());
    }

    /// Forbids each full selection in `forbidden` that agrees with the
    /// current one on every process without a class; one naming an
    /// excluded implementation can never be produced and is dropped.
    fn forbid(&mut self, forbidden: &[Vec<usize>]) {
        if self.problem.classes.is_empty() {
            return;
        }
        let current = self.design.selection();
        for f in forbidden {
            let mut items = Vec::with_capacity(self.problem.classes.len());
            let expressible = f.iter().enumerate().all(|(p, &s)| {
                if self.points[p].is_empty() {
                    return s == current[p];
                }
                match self.points[p].iter().position(|&i| i == s) {
                    Some(j) => {
                        items.push(j);
                        true
                    }
                    None => false,
                }
            });
            if expressible {
                self.problem.forbidden.push(items);
            }
        }
    }

    fn solve(self) -> Result<Option<IpSelection>, ErmesError> {
        let solution = match self.problem.solve() {
            Ok(s) => s,
            Err(ilp::SolveError::Infeasible) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut choices = solution.choices.into_iter();
        let selection = self
            .points
            .iter()
            .zip(self.design.selection())
            .map(|(points, &current)| {
                if points.is_empty() {
                    current
                } else {
                    points[choices.next().expect("one choice per class")]
                }
            })
            .collect();
        Ok(Some(IpSelection {
            selection,
            objective: solution.value,
        }))
    }
}

fn area_recovery_exact(
    design: &Design,
    critical: &[ProcessId],
    slack: i64,
    forbidden: &[Vec<usize>],
    caps: &[u64],
) -> Result<Option<IpSelection>, ErmesError> {
    let crit = is_critical(design, critical);
    let row = if crit.contains(&true) {
        Row::AtMost(slack)
    } else {
        Row::None
    };
    let mut problem = SelectionProblem::new(design, row);
    for p in design.system().process_ids() {
        let current_latency = design.latency(p);
        let current_area = design.process_area(p);
        // Implementations that provably bust the target are excluded,
        // except the current one (to keep the problem feasible).
        let points = design.pareto(p).points();
        let kept = (0..points.len())
            .filter(|&i| points[i].latency <= caps[p.index()] || i == design.selected(p))
            .collect();
        problem.push(p, kept, |m| McItem {
            value: current_area - m.area,
            // Latency *increase* consumes slack.
            weight: if crit[p.index()] {
                m.latency as i64 - current_latency as i64
            } else {
                0
            },
        });
    }
    problem.forbid(forbidden);
    Ok(problem.solve()?.filter(|s| s.objective > 1e-9))
}

fn area_recovery_greedy(
    design: &Design,
    critical: &[ProcessId],
    slack: i64,
    forbidden: &[Vec<usize>],
    caps: &[u64],
) -> Option<IpSelection> {
    let sys = design.system();
    let crit = is_critical(design, critical);
    let mut selection: Vec<usize> = design.selection().to_vec();
    let mut budget = slack;
    let mut gain = 0.0;
    // Candidate moves: (gain per unit cost, process, new index).
    // Non-critical moves cost nothing: take the smallest implementation.
    for p in sys.process_ids() {
        let set = design.pareto(p);
        if !crit[p.index()] {
            // The smallest implementation that respects the latency cap.
            let best = set
                .points()
                .iter()
                .enumerate()
                .filter(|(_, m)| m.latency <= caps[p.index()])
                .max_by_key(|(i, _)| *i)
                .map(|(i, _)| i);
            if let Some(best) = best {
                if set.points()[best].area < design.process_area(p) - 1e-12 {
                    gain += design.process_area(p) - set.points()[best].area;
                    selection[p.index()] = best;
                }
            }
        }
    }
    // Critical moves: walk each frontier greedily by area-gain per cycle.
    loop {
        let mut best: Option<(f64, usize, usize, i64, f64)> = None; // (ratio, p, idx, cost, dgain)
        for p in sys.process_ids() {
            if !crit[p.index()] {
                continue;
            }
            let set = design.pareto(p);
            let cur_idx = selection[p.index()];
            let cur = &set.points()[cur_idx];
            for (i, m) in set.points().iter().enumerate().skip(cur_idx + 1) {
                let cost = m.latency as i64 - cur.latency as i64;
                let dgain = cur.area - m.area;
                if dgain <= 1e-12 || cost > budget || m.latency > caps[p.index()] {
                    continue;
                }
                let ratio = dgain / (cost.max(1) as f64);
                if best.as_ref().is_none_or(|b| ratio > b.0) {
                    best = Some((ratio, p.index(), i, cost, dgain));
                }
            }
        }
        let Some((_, pidx, i, cost, dgain)) = best else {
            break;
        };
        budget -= cost;
        gain += dgain;
        selection[pidx] = i;
    }
    if gain <= 1e-9 || forbidden.contains(&selection) || selection == design.selection() {
        return None;
    }
    Some(IpSelection {
        selection,
        objective: gain,
    })
}

/// Timing optimization: re-select implementations of the critical-cycle
/// processes to close a cycle-time `deficit` (CT − TCT), per the paper's
/// "minimize the difference CT − TCT". The primary formulation is the
/// dual the paper alludes to: **minimize the area increase subject to a
/// cumulative latency gain of at least `deficit`**; when the deficit is
/// unreachable it falls back to maximizing the latency gain outright.
/// Non-critical selections stay fixed. Returns `None` when no
/// configuration strictly reduces the critical latency.
///
/// # Errors
///
/// Propagates ILP failures as [`ErmesError::Ilp`].
pub fn timing_optimization(
    design: &Design,
    critical: &[ProcessId],
    deficit: i64,
    forbidden: &[Vec<usize>],
    strategy: OptStrategy,
) -> Result<Option<IpSelection>, ErmesError> {
    let variables: usize = critical.iter().map(|&p| design.pareto(p).len()).sum();
    match resolve(strategy, variables) {
        OptStrategy::Greedy => Ok(timing_optimization_greedy(
            design, critical, deficit, forbidden,
        )),
        _ => timing_optimization_exact(design, critical, deficit, forbidden),
    }
}

fn timing_optimization_exact(
    design: &Design,
    critical: &[ProcessId],
    deficit: i64,
    forbidden: &[Vec<usize>],
) -> Result<Option<IpSelection>, ErmesError> {
    let crit = is_critical(design, critical);
    // Primary: minimize the area increase (maximize the area gain)
    // subject to a latency gain of at least the deficit.
    if deficit > 0 {
        let dual = timing_problem(design, &crit, Row::AtLeast(deficit), forbidden, |m, p| {
            McItem {
                value: design.process_area(p) - m.area,
                weight: design.latency(p) as i64 - m.latency as i64,
            }
        });
        if let Some(sel) = dual.solve()? {
            if sel.selection != design.selection() {
                return Ok(Some(sel));
            }
        }
    }
    // Fallback: the deficit is unreachable — buy all the speed there is.
    let max_gain = timing_problem(design, &crit, Row::None, forbidden, |m, p| McItem {
        value: design.latency(p) as f64 - m.latency as f64,
        weight: 0,
    });
    Ok(max_gain.solve()?.filter(|s| s.objective > 1e-9))
}

/// A timing problem: one class per critical process over all of its
/// implementations; the other processes keep their selection.
fn timing_problem<'a>(
    design: &'a Design,
    crit: &[bool],
    row: Row,
    forbidden: &[Vec<usize>],
    item: impl Fn(&MicroArch, ProcessId) -> McItem,
) -> SelectionProblem<'a> {
    let mut problem = SelectionProblem::new(design, row);
    for p in design.system().process_ids() {
        if crit[p.index()] {
            problem.push(p, (0..design.pareto(p).len()).collect(), |m| item(m, p));
        } else {
            problem.skip();
        }
    }
    problem.forbid(forbidden);
    problem
}

fn timing_optimization_greedy(
    design: &Design,
    critical: &[ProcessId],
    deficit: i64,
    forbidden: &[Vec<usize>],
) -> Option<IpSelection> {
    let mut selection = design.selection().to_vec();
    let mut gain = 0.0f64;
    if deficit > 0 {
        // Buy speed cheapest-first (area per cycle gained) until the
        // deficit is covered.
        let mut remaining = deficit as f64;
        loop {
            if remaining <= 0.0 {
                break;
            }
            let mut best: Option<(f64, usize, usize, f64)> = None; // (cost ratio, p, idx, dgain)
            for &p in critical {
                let set = design.pareto(p);
                let cur_idx = selection[p.index()];
                let cur = &set.points()[cur_idx];
                for (i, m) in set.points().iter().enumerate().take(cur_idx) {
                    let dgain = cur.latency as f64 - m.latency as f64;
                    if dgain <= 0.0 {
                        continue;
                    }
                    let cost = (m.area - cur.area).max(0.0);
                    let ratio = cost / dgain;
                    if best.as_ref().is_none_or(|b| ratio < b.0) {
                        best = Some((ratio, p.index(), i, dgain));
                    }
                }
            }
            let Some((_, pidx, i, dgain)) = best else {
                break;
            };
            remaining -= dgain;
            gain += dgain;
            selection[pidx] = i;
        }
    } else {
        for &p in critical {
            let cur = design.latency(p);
            let fastest = design.pareto(p).fastest().latency;
            if fastest < cur {
                gain += (cur - fastest) as f64;
                selection[p.index()] = 0;
            }
        }
    }
    if gain <= 1e-9 || forbidden.contains(&selection) || selection == design.selection() {
        return None;
    }
    Some(IpSelection {
        selection,
        objective: gain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsim::{HlsKnobs, MicroArch, ParetoSet};
    use sysgraph::SystemGraph;

    fn pareto(points: &[(u64, f64)]) -> ParetoSet {
        ParetoSet::from_candidates(
            points
                .iter()
                .map(|&(latency, area)| MicroArch {
                    knobs: HlsKnobs::baseline(),
                    latency,
                    area,
                })
                .collect(),
        )
    }

    /// Two processes in a pipeline, both on the critical cycle.
    fn design() -> Design {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 5);
        let b = sys.add_process("b", 8);
        sys.add_channel("x", a, b, 1).expect("valid");
        Design::new(
            sys,
            vec![
                pareto(&[(5, 3.0), (9, 2.0), (15, 1.0)]),
                pareto(&[(8, 4.0), (12, 2.5)]),
            ],
        )
        .expect("sizes match")
    }

    fn all_processes(d: &Design) -> Vec<ProcessId> {
        d.system().process_ids().collect()
    }

    #[test]
    fn area_recovery_respects_slack() {
        let d = design();
        // Slack 4: can afford a -> (9, 2.0) [cost 4] or b -> (12, 2.5)
        // [cost 4], not both. Best single move: b gains 1.5, a gains 1.0.
        let crit = all_processes(&d);
        let sel = area_recovery(&d, &crit, 4, &[], None, OptStrategy::Exact)
            .expect("solver ok")
            .expect("gain exists");
        assert!((sel.objective - 1.5).abs() < 1e-6, "got {}", sel.objective);
        assert_eq!(sel.selection, vec![0, 1]);
    }

    #[test]
    fn area_recovery_with_large_slack_takes_everything() {
        let d = design();
        let crit = all_processes(&d);
        let sel = area_recovery(&d, &crit, 100, &[], None, OptStrategy::Exact)
            .expect("solver ok")
            .expect("gain exists");
        assert_eq!(sel.selection, vec![2, 1]);
        assert!((sel.objective - 3.5).abs() < 1e-6);
    }

    #[test]
    fn area_recovery_none_when_no_gain() {
        let mut d = design();
        d.select_smallest();
        let crit = all_processes(&d);
        assert_eq!(
            area_recovery(&d, &crit, 100, &[], None, OptStrategy::Exact).expect("solver ok"),
            None
        );
    }

    #[test]
    fn no_good_cut_excludes_best() {
        let d = design();
        let crit = all_processes(&d);
        let best = area_recovery(&d, &crit, 100, &[], None, OptStrategy::Exact)
            .expect("ok")
            .expect("gain");
        let second = area_recovery(
            &d,
            &crit,
            100,
            std::slice::from_ref(&best.selection),
            None,
            OptStrategy::Exact,
        )
        .expect("ok")
        .expect("still gains");
        assert_ne!(second.selection, best.selection);
        assert!(second.objective < best.objective + 1e-9);
    }

    #[test]
    fn timing_optimization_picks_fastest_on_critical() {
        let mut d = design();
        d.select_smallest();
        let crit = all_processes(&d);
        let sel = timing_optimization(&d, &crit, 0, &[], OptStrategy::Exact)
            .expect("ok")
            .expect("gain exists");
        assert_eq!(sel.selection, vec![0, 0]);
        // Gains: (15-5) + (12-8) = 14.
        assert!((sel.objective - 14.0).abs() < 1e-6);
    }

    #[test]
    fn timing_optimization_only_touches_critical() {
        let mut d = design();
        d.select_smallest();
        let only_b = vec![ProcessId::from_index(1)];
        let sel = timing_optimization(&d, &only_b, 0, &[], OptStrategy::Exact)
            .expect("ok")
            .expect("gain exists");
        assert_eq!(sel.selection[0], 2, "non-critical process untouched");
        assert_eq!(sel.selection[1], 0);
    }

    #[test]
    fn timing_optimization_none_when_already_fastest() {
        let mut d = design();
        d.select_fastest();
        let crit = all_processes(&d);
        assert_eq!(
            timing_optimization(&d, &crit, 0, &[], OptStrategy::Exact).expect("ok"),
            None
        );
    }

    #[test]
    fn greedy_matches_exact_on_simple_cases() {
        let d = design();
        let crit = all_processes(&d);
        for slack in [0i64, 4, 7, 100] {
            let exact = area_recovery(&d, &crit, slack, &[], None, OptStrategy::Exact).expect("ok");
            let greedy =
                area_recovery(&d, &crit, slack, &[], None, OptStrategy::Greedy).expect("ok");
            match (exact, greedy) {
                (None, None) => {}
                (Some(e), Some(g)) => {
                    assert!(g.objective <= e.objective + 1e-9, "greedy beat exact?");
                    assert!(g.objective > 0.0);
                }
                (e, g) => panic!("divergence at slack {slack}: exact {e:?} greedy {g:?}"),
            }
        }
    }

    #[test]
    fn auto_uses_exact_for_small_problems() {
        let d = design();
        let crit = all_processes(&d);
        let auto = area_recovery(&d, &crit, 4, &[], None, OptStrategy::Auto).expect("ok");
        let exact = area_recovery(&d, &crit, 4, &[], None, OptStrategy::Exact).expect("ok");
        assert_eq!(auto, exact);
    }

    /// The exploration loop's usage pattern: each step forbids the
    /// previous answers. The chain must never repeat a selection, never
    /// improve on an earlier optimum, and end.
    #[test]
    fn cut_chain_never_repeats_and_never_improves() {
        let d = design();
        let crit = all_processes(&d);
        let mut forbidden: Vec<Vec<usize>> = Vec::new();
        let mut last = f64::INFINITY;
        while let Some(sel) =
            area_recovery(&d, &crit, 100, &forbidden, None, OptStrategy::Exact).expect("ok")
        {
            assert!(!forbidden.contains(&sel.selection));
            assert!(sel.objective <= last);
            last = sel.objective;
            forbidden.push(sel.selection);
        }
        // Every selection but the current one gains area.
        assert_eq!(forbidden.len(), 5);
    }

    #[test]
    fn timing_cut_chain_never_repeats() {
        let mut d = design();
        d.select_smallest();
        let crit = all_processes(&d);
        let mut forbidden: Vec<Vec<usize>> = Vec::new();
        while let Some(sel) =
            timing_optimization(&d, &crit, 3, &forbidden, OptStrategy::Exact).expect("ok")
        {
            assert!(!forbidden.contains(&sel.selection));
            assert_ne!(sel.selection, d.selection());
            forbidden.push(sel.selection);
        }
        // Every faster selection is proposed once: 3 x 2 - 1.
        assert_eq!(forbidden.len(), 5);
    }
}
