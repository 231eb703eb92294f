//! Exact multiple-choice knapsack (MCKP) by branch & bound over the
//! convex-hull LP relaxation.
//!
//! Every selection problem of the exploration loop picks exactly one
//! item (implementation) per class (process), maximizing total value
//! under at most one integer latency row, with some full selections
//! forbidden (the paper's no-good cuts). [`Mckp`] states that problem
//! directly; [`Mckp::solve`] solves it exactly:
//!
//! 1. **Presolve** drops strictly dominated items (see
//!    `crate::presolve`) and fixes classes left with one candidate.
//! 2. **LP bound.** With the row normalized to `Σ w ≤ cap`, each free
//!    class starts at its lightest item and may climb the upper convex
//!    hull of its (weight, value) points. A greedy pass over all hull
//!    segments by decreasing slope — the Dyer–Zemel / Sinha–Zoltners
//!    relaxation — fills the capacity; at most one class ends between
//!    two hull points. Segments are sorted once per solve, so a node
//!    costs one linear scan, no tableau.
//! 3. **Branching** happens only on that fractional class (Pisinger's
//!    core idea): one child per candidate item, hull or not, so non-hull
//!    points stay reachable. An integral LP solution is the optimum of
//!    its subtree; when it is forbidden it is rejected lazily and the
//!    lowest-index free class is branched on instead. Nodes are explored
//!    best-bound first.
//!
//! # Determinism and the tie rule
//!
//! A candidate's objective is always `Σ x_j · v_j` over every item in
//! class-then-item order with exact 0/1 `x_j`, so equal selections give
//! equal bits. Which optimum is returned is a property of the problem,
//! not of the search: among the feasible, non-forbidden selections that
//! attain the maximal objective (compared as computed, bit for bit),
//! the **lexicographically greatest** (class order, then item index)
//! wins. With Pareto points listed fastest first, that prefers the
//! slower, smaller implementation on the lower-numbered process. The
//! search first finds the optimum, then fixes the classes one by one in
//! order to the largest item index for which a selection attaining it
//! still exists, each probe being the same branch & bound stopped at its
//! first qualifying leaf. (A strictly dominated item is never returned;
//! it could only tie when the value it loses vanishes in rounding.)

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::knapsack::{McItem, McSelection};
use crate::presolve::presolve;
use crate::stats;

/// Rounding slack for LP bounds when probing for a known objective: a
/// probe prunes only nodes whose bound is this far below the target, so
/// a bound rounded a few ulps low never hides a qualifying leaf.
const BOUND_SLACK: f64 = 1e-9;
/// Marks a class the node leaves free.
const FREE: usize = usize::MAX;

/// The latency row of a selection problem, over the items' weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Row {
    /// No row: weights are ignored (the timing max-gain fallback).
    #[default]
    None,
    /// `Σ weight <= bound` (area recovery: latency increase within the
    /// slack).
    AtMost(i64),
    /// `Σ weight >= bound` (timing optimization: latency gain covering
    /// the deficit).
    AtLeast(i64),
}

/// A multiple-choice knapsack: choose one item per class, maximizing the
/// total value subject to [`Mckp::row`], never returning a selection
/// listed in [`Mckp::forbidden`].
///
/// # Examples
///
/// ```
/// use ilp::{McItem, Mckp, Row};
/// let item = |value, weight| McItem { value, weight };
/// let mut p = Mckp {
///     classes: vec![
///         vec![item(0.0, 0), item(0.7, 4)], // keep, or trade 4 cycles for 0.7
///         vec![item(0.0, 0), item(0.5, 2)],
///     ],
///     row: Row::AtMost(5),
///     forbidden: vec![],
/// };
/// assert_eq!(p.solve()?.choices, vec![1, 0]);
/// // A no-good cut excludes that selection.
/// p.forbidden.push(vec![1, 0]);
/// assert_eq!(p.solve()?.choices, vec![0, 1]);
/// # Ok::<(), ilp::SolveError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mckp {
    /// The items of each class; exactly one is chosen per class.
    pub classes: Vec<Vec<McItem>>,
    /// The latency row.
    pub row: Row,
    /// Selections (one item index per class) that must not be returned.
    pub forbidden: Vec<Vec<usize>>,
}

/// Errors returned by [`Mckp::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// No selection satisfies the row without being forbidden (or some
    /// class has no items).
    Infeasible,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
        }
    }
}

impl std::error::Error for SolveError {}

impl Mckp {
    /// Solves the problem exactly; `value` is the objective and `weight`
    /// the selection's row total.
    ///
    /// Among the allowed selections attaining the maximal objective, the
    /// lexicographically greatest (class order, then item index) is
    /// returned, whatever the search order.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when no allowed selection exists.
    pub fn solve(&self) -> Result<McSelection, SolveError> {
        let _span = trace::span("ilp");
        trace::attr("vars", self.classes.iter().map(Vec::len).sum::<usize>());
        stats::record_solve();
        let mut nodes = 0;
        let result = self.solve_counted(&mut nodes);
        trace::attr("bb_nodes", nodes);
        stats::record_nodes(nodes);
        result
    }

    fn solve_counted(&self, nodes: &mut u64) -> Result<McSelection, SolveError> {
        if self.classes.iter().any(Vec::is_empty) {
            return Err(SolveError::Infeasible);
        }
        let search = Search::new(self);
        let (optimum, mut witness) = search.run(vec![FREE; search.free.len()], None, nodes)?;
        // Tie rule: pin each class in turn to the largest index that
        // still attains the optimum.
        let mut fix = vec![FREE; search.free.len()];
        for c in 0..fix.len() {
            for pos in (witness[c] + 1..search.free[c].items.len()).rev() {
                let mut trial = fix.clone();
                trial[c] = pos;
                if let Ok((_, w)) = search.run(trial, Some(optimum), nodes) {
                    witness = w;
                    break;
                }
            }
            fix[c] = witness[c];
        }
        let choices = search.choices(&witness);
        Ok(McSelection {
            value: self.objective(&choices),
            weight: choices
                .iter()
                .zip(&self.classes)
                .fold(0i64, |w, (&j, items)| w.saturating_add(items[j].weight)),
            choices,
        })
    }

    /// The classes with the row normalized to `Σ weight <= cap`, and
    /// `cap` (no row: all weights and the capacity zero).
    pub(crate) fn normalized(&self) -> (Vec<Vec<McItem>>, i64) {
        let (sign, cap) = match self.row {
            Row::None => (0, 0),
            Row::AtMost(b) => (1, b),
            Row::AtLeast(b) => (-1, b.saturating_neg()),
        };
        let classes = self
            .classes
            .iter()
            .map(|items| {
                items
                    .iter()
                    .map(|i| McItem {
                        value: i.value,
                        weight: i.weight.saturating_mul(sign),
                    })
                    .collect()
            })
            .collect();
        (classes, cap)
    }

    /// `Σ x_j · v_j` over every item in class-then-item order: the one
    /// expression every candidate is scored with.
    fn objective(&self, choices: &[usize]) -> f64 {
        self.classes
            .iter()
            .zip(choices)
            .flat_map(|(items, &s)| {
                items
                    .iter()
                    .enumerate()
                    .map(move |(j, item)| f64::from(u8::from(j == s)) * item.value)
            })
            .sum()
    }
}

/// One step of a class's upper hull, ending at candidate `to`.
struct Segment {
    class: usize,
    to: usize,
    dw: i64,
    dv: f64,
}

/// A free class: its surviving candidates and its lightest start point.
struct FreeClass {
    index: usize,
    items: Vec<usize>,
    weight: Vec<i64>,
    value: Vec<f64>,
    base: usize,
}

/// A node awaiting branching: best bound first, then creation order.
struct Open {
    bound: f64,
    seq: u64,
    fix: Vec<usize>,
    class: usize,
}

impl Ord for Open {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Open {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Open {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Open {}

/// How a node's LP relaxation came out.
enum Relaxed {
    Infeasible,
    /// Integral at these candidate positions: the subtree's optimum.
    Integral(Vec<usize>),
    /// `class` ends between two hull points; `bound` is the LP value.
    Fractional {
        bound: f64,
        class: usize,
    },
}

/// The presolved problem over its free classes.
struct Search<'a> {
    problem: &'a Mckp,
    /// Item per class for classes the presolve fixed; `FREE` otherwise.
    fixed: Vec<usize>,
    free: Vec<FreeClass>,
    /// Capacity left once the fixed classes are charged.
    cap: i64,
    /// Value of the fixed classes.
    fixed_value: f64,
    segments: Vec<Segment>,
    /// Forbidden selections, as candidate positions of the free classes.
    forbidden: Vec<Vec<usize>>,
}

impl<'a> Search<'a> {
    fn new(problem: &'a Mckp) -> Self {
        let (classes, mut cap) = problem.normalized();
        let pre = presolve(&classes, &problem.forbidden);
        stats::record_presolve_fixed(pre.eliminated as u64);
        trace::attr("presolve_fixed", pre.eliminated);

        let mut fixed = vec![FREE; classes.len()];
        let mut fixed_value = 0.0;
        let mut free = Vec::new();
        for (c, items) in pre.candidates.into_iter().enumerate() {
            if let [only] = items[..] {
                fixed[c] = only;
                cap = cap.saturating_sub(classes[c][only].weight);
                fixed_value += classes[c][only].value;
                continue;
            }
            let weight: Vec<i64> = items.iter().map(|&j| classes[c][j].weight).collect();
            let value: Vec<f64> = items.iter().map(|&j| classes[c][j].value).collect();
            let base = (0..items.len())
                .min_by(|&a, &b| {
                    weight[a]
                        .cmp(&weight[b])
                        .then(value[b].total_cmp(&value[a]))
                })
                .expect("presolve never empties a class");
            free.push(FreeClass {
                index: c,
                items,
                weight,
                value,
                base,
            });
        }

        // Upper hull of each free class by gift wrapping from its base:
        // the steepest next point (farthest on ties) until value stops
        // rising. Sorting all steps by slope gives the greedy LP order;
        // within a class slopes decrease, so its steps stay in order.
        let mut segments = Vec::new();
        for (c, class) in free.iter().enumerate() {
            let mut at = class.base;
            loop {
                let (w0, v0) = (class.weight[at], class.value[at]);
                let next = (0..class.items.len())
                    .filter(|&j| class.weight[j] > w0 && class.value[j] > v0)
                    .max_by(|&a, &b| {
                        let lhs = (class.value[a] - v0) * class.weight[b].saturating_sub(w0) as f64;
                        let rhs = (class.value[b] - v0) * class.weight[a].saturating_sub(w0) as f64;
                        lhs.total_cmp(&rhs)
                            .then(class.weight[a].cmp(&class.weight[b]))
                    });
                let Some(to) = next else { break };
                segments.push(Segment {
                    class: c,
                    to,
                    dw: class.weight[to].saturating_sub(w0),
                    dv: class.value[to] - v0,
                });
                at = to;
            }
        }
        segments.sort_by(|a, b| {
            (b.dv / b.dw as f64)
                .total_cmp(&(a.dv / a.dw as f64))
                .then(a.class.cmp(&b.class))
        });

        // A forbidden selection disagreeing with a fixed class, or using
        // a dominated item, can never be produced.
        let forbidden = problem
            .forbidden
            .iter()
            .filter(|f| f.len() == fixed.len())
            .filter(|f| fixed.iter().zip(*f).all(|(&x, &j)| x == FREE || x == j))
            .filter_map(|f| {
                free.iter()
                    .map(|class| class.items.iter().position(|&j| j == f[class.index]))
                    .collect()
            })
            .collect();
        Search {
            problem,
            fixed,
            free,
            cap,
            fixed_value,
            segments,
            forbidden,
        }
    }

    /// The full selection behind candidate positions of the free classes.
    fn choices(&self, positions: &[usize]) -> Vec<usize> {
        let mut choices = self.fixed.clone();
        for (class, &pos) in self.free.iter().zip(positions) {
            choices[class.index] = class.items[pos];
        }
        choices
    }

    /// LP relaxation of the node pinning each free class `c` with
    /// `fix[c] != FREE` to that candidate.
    fn relax(&self, fix: &[usize]) -> Relaxed {
        let mut rem = self.cap;
        let mut value = self.fixed_value;
        let mut at = Vec::with_capacity(fix.len());
        for (class, &f) in self.free.iter().zip(fix) {
            let pos = if f == FREE { class.base } else { f };
            rem = rem.saturating_sub(class.weight[pos]);
            value += class.value[pos];
            at.push(pos);
        }
        if rem < 0 {
            return Relaxed::Infeasible;
        }
        for s in &self.segments {
            if fix[s.class] != FREE {
                continue;
            }
            if s.dw <= rem {
                rem -= s.dw;
                value += s.dv;
                at[s.class] = s.to;
            } else if rem == 0 {
                break;
            } else {
                return Relaxed::Fractional {
                    bound: value + s.dv * (rem as f64 / s.dw as f64),
                    class: s.class,
                };
            }
        }
        Relaxed::Integral(at)
    }

    /// Best-bound branch & bound under `fix`. Without a `floor` it
    /// returns the optimum; with one, the first allowed leaf whose
    /// objective reaches `floor`, pruning every node whose bound cannot.
    fn run(
        &self,
        root: Vec<usize>,
        floor: Option<f64>,
        nodes: &mut u64,
    ) -> Result<(f64, Vec<usize>), SolveError> {
        let mut best: Option<(f64, Vec<usize>)> = None;
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut pending = vec![root];
        let beaten = |bound: f64, best: &Option<(f64, Vec<usize>)>| match floor {
            Some(floor) => bound < floor - BOUND_SLACK,
            None => best.as_ref().is_some_and(|b| bound <= b.0),
        };
        loop {
            for fix in pending.drain(..) {
                *nodes += 1;
                let (bound, class) = match self.relax(&fix) {
                    Relaxed::Infeasible => continue,
                    Relaxed::Fractional { bound, class } => (bound, class),
                    Relaxed::Integral(at) => {
                        let objective = self.problem.objective(&self.choices(&at));
                        if !self.forbidden.contains(&at) {
                            match floor {
                                Some(floor) if objective >= floor => return Ok((objective, at)),
                                None if !beaten(objective, &best) => best = Some((objective, at)),
                                _ => {}
                            }
                            continue;
                        }
                        // Lazy rejection: split the first free class.
                        match fix.iter().position(|&f| f == FREE) {
                            Some(class) => (objective, class),
                            None => continue,
                        }
                    }
                };
                if !beaten(bound, &best) {
                    seq += 1;
                    heap.push(Open {
                        bound,
                        seq,
                        fix,
                        class,
                    });
                }
            }
            let Some(open) = heap.pop() else {
                return best.ok_or(SolveError::Infeasible);
            };
            if beaten(open.bound, &best) {
                continue;
            }
            for pos in 0..self.free[open.class].items.len() {
                let mut child = open.fix.clone();
                child[open.class] = pos;
                pending.push(child);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knapsack::solve_multiple_choice_knapsack;

    fn class(items: &[(f64, i64)]) -> Vec<McItem> {
        items
            .iter()
            .map(|&(value, weight)| McItem { value, weight })
            .collect()
    }

    #[test]
    fn knapsack_matches_oracle() {
        let classes = vec![
            class(&[(6.0, 4), (0.0, 0)]),
            class(&[(5.0, 3), (0.0, 0)]),
            class(&[(4.0, 2), (0.0, 0)]),
            class(&[(3.0, 2), (1.5, 1), (0.0, 0)]),
        ];
        let p = Mckp {
            classes: classes.clone(),
            row: Row::AtMost(6),
            forbidden: vec![],
        };
        let s = p.solve().expect("feasible");
        let dp = solve_multiple_choice_knapsack(&classes, 6).expect("feasible");
        assert_eq!(s.value, dp.value);
        assert!(s.weight <= 6);
    }

    #[test]
    fn multiple_choice_structure_matches_oracle() {
        let p = Mckp {
            classes: vec![
                class(&[(9.0, 5), (5.0, 3), (1.0, 1)]),
                class(&[(8.0, 5), (4.0, 2), (0.5, 1)]),
            ],
            row: Row::AtMost(7),
            forbidden: vec![],
        };
        let s = p.solve().expect("feasible");
        // 9 + 4 at weight 7 beats 9 + 0.5 (weight 6) and 5 + 4 (weight 5).
        assert_eq!((s.choices, s.value, s.weight), (vec![0, 1], 13.0, 7));
    }

    #[test]
    fn infeasible_integer_problem() {
        let p = Mckp {
            classes: vec![class(&[(1.0, 1), (2.0, 2)]), class(&[(1.0, 0)])],
            row: Row::AtLeast(3),
            forbidden: vec![],
        };
        assert_eq!(p.solve(), Err(SolveError::Infeasible));
        // Reachable, but the only reaching selection is forbidden.
        let p = Mckp {
            row: Row::AtLeast(2),
            forbidden: vec![vec![1, 0]],
            ..p
        };
        assert_eq!(p.solve(), Err(SolveError::Infeasible));
        let empty = Mckp {
            classes: vec![vec![]],
            ..Mckp::default()
        };
        assert_eq!(empty.solve(), Err(SolveError::Infeasible));
    }

    #[test]
    fn errors_are_well_behaved() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<SolveError>();
        assert_eq!(SolveError::Infeasible.to_string(), "problem is infeasible");
    }

    #[test]
    fn negative_objective_prefers_zero() {
        let p = Mckp {
            classes: vec![class(&[(-5.0, 0), (0.0, 0)])],
            ..Mckp::default()
        };
        let s = p.solve().expect("feasible");
        assert_eq!((s.choices, s.value), (vec![1], 0.0));
    }

    #[test]
    fn tie_rule_picks_the_lexicographically_greatest_optimum() {
        // Every selection of two classes with items {1, 1, 0} over
        // weights {0, 1, 0} ties at 2 when the row allows it.
        let items = class(&[(1.0, 0), (1.0, 1), (0.0, 0)]);
        let mut p = Mckp {
            classes: vec![items.clone(), items],
            row: Row::AtMost(2),
            forbidden: vec![],
        };
        assert_eq!(p.solve().expect("feasible").choices, vec![1, 1]);
        p.row = Row::AtMost(1);
        assert_eq!(p.solve().expect("feasible").choices, vec![1, 0]);
        p.forbidden = vec![vec![1, 0], vec![0, 1]];
        assert_eq!(p.solve().expect("feasible").choices, vec![0, 0]);
        // Forbidding every optimum drops to the next value level.
        p.forbidden.push(vec![0, 0]);
        let s = p.solve().expect("feasible");
        assert_eq!((s.choices, s.value), (vec![2, 1], 1.0));
    }

    #[test]
    fn relaxation_bounds_integer_optimum() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..300 {
            let classes: Vec<Vec<McItem>> = (0..next(5) + 1)
                .map(|_| {
                    (0..next(4) + 1)
                        .map(|_| McItem {
                            value: next(40) as f64 / 4.0 - 3.0,
                            weight: next(13) as i64 - 4,
                        })
                        .collect()
                })
                .collect();
            let cap = next(24) as i64 - 4;
            let p = Mckp {
                classes: classes.clone(),
                row: Row::AtMost(cap),
                forbidden: vec![],
            };
            let Ok(dp) = solve_multiple_choice_knapsack(&classes, cap) else {
                assert_eq!(p.solve(), Err(SolveError::Infeasible));
                continue;
            };
            let search = Search::new(&p);
            let bound = match search.relax(&vec![FREE; search.free.len()]) {
                Relaxed::Infeasible => panic!("the DP found a selection"),
                Relaxed::Integral(at) => p.objective(&search.choices(&at)),
                Relaxed::Fractional { bound, .. } => bound,
            };
            assert!(bound >= dp.value - 1e-9, "{bound} < {}", dp.value);
            assert_eq!(p.solve().expect("feasible").value, dp.value);
        }
    }
}
