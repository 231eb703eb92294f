//! From-scratch exact selection for ERMES: one multiple-choice knapsack
//! engine.
//!
//! The DAC'14 ERMES methodology formulates its IP-selection steps — *area
//! recovery* and *timing optimization* over the processes of the critical
//! cycle (Section 5) — as small integer programs, solved in the original
//! work with GLPK. Every one of them is a multiple-choice knapsack
//! (MCKP): each process adopts exactly one Pareto-optimal implementation,
//! under at most one latency row, with previously visited selections
//! excluded by no-good cuts. This crate solves exactly that structure:
//!
//! - [`Mckp::solve`]: branch & bound over the convex-hull LP relaxation
//!   (a greedy pass over incremental slopes, no tableau), branching only
//!   on the fractional class, with no-good cuts as lazy rejections and a
//!   strict-dominance presolve. Among tied optima it returns the
//!   lexicographically greatest selection, a rule stated on the problem
//!   rather than on the search order;
//! - [`solve_multiple_choice_knapsack`]: a pseudo-polynomial DP for the
//!   same structure without cuts, kept as an independent oracle for the
//!   differential tests.
//!
//! Process-wide counters (solves, nodes, presolve eliminations) are
//! exported via [`stats`] for ermesd `/metrics` and the CLI trace
//! summary.
//!
//! # Examples
//!
//! A one-implementation-per-process selection under a latency budget:
//!
//! ```
//! use ilp::{McItem, Mckp, Row};
//!
//! // Process A: keep the fast-but-big implementation (no gain, no
//! // latency), or recover 0.7 area units for 4 cycles of slack.
//! let a = vec![McItem { value: 0.0, weight: 0 }, McItem { value: 0.7, weight: 4 }];
//! let p = Mckp { classes: vec![a], row: Row::AtMost(5), forbidden: vec![] };
//! let s = p.solve()?;
//! assert_eq!(s.choices, vec![1]);
//! # Ok::<(), ilp::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod knapsack;
mod mckp;
mod presolve;
mod stats;

/// Runs the dominance presolve alone and returns the number of items it
/// decided. Exists for the `flatgraph` criterion suite, which times the
/// pass at soc:1k and soc:10k scale; not part of the supported API.
#[doc(hidden)]
#[must_use]
pub fn presolve_eliminated(problem: &Mckp) -> usize {
    presolve::presolve(&problem.normalized().0, &problem.forbidden).eliminated
}

pub use knapsack::{solve_multiple_choice_knapsack, KnapsackError, McItem, McSelection};
pub use mckp::{Mckp, Row, SolveError};
pub use stats::{stats, IlpStats};
