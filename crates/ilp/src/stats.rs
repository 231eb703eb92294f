//! Process-wide solver counters.
//!
//! Selection is the hot path of the MPEG-2 exploration loop (warm sweeps
//! spend most of their wall time here — EXPERIMENTS E13), so the solver
//! keeps a handful of cheap atomic counters that ermesd exports on
//! `/metrics` (`ermes_ilp_nodes_total`) and the CLI prints after
//! `--trace-summary`. Counters are cumulative for the process; callers
//! that want per-run numbers snapshot [`stats`] before and after and
//! subtract with [`IlpStats::delta_since`].

use std::sync::atomic::{AtomicU64, Ordering};

static SOLVES: AtomicU64 = AtomicU64::new(0);
static NODES: AtomicU64 = AtomicU64::new(0);
static PRESOLVE_FIXED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide solver counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpStats {
    /// Selection problems solved.
    pub solves: u64,
    /// Branch & bound nodes whose LP relaxation was evaluated, roots
    /// included, across all solves.
    pub nodes: u64,
    /// Always 0: the MCKP engine carries no simplex basis between
    /// nodes or solves. Kept so existing readers of the struct build.
    pub warmstart_hits: u64,
    /// Always 0, like [`IlpStats::warmstart_hits`].
    pub warmstart_misses: u64,
    /// Items decided by the dominance presolve before search started.
    pub presolve_fixed: u64,
}

impl IlpStats {
    /// Counter increments between `earlier` and `self` (both from
    /// [`stats`], with `self` taken later).
    #[must_use]
    pub fn delta_since(&self, earlier: &IlpStats) -> IlpStats {
        IlpStats {
            solves: self.solves.saturating_sub(earlier.solves),
            nodes: self.nodes.saturating_sub(earlier.nodes),
            warmstart_hits: 0,
            warmstart_misses: 0,
            presolve_fixed: self.presolve_fixed.saturating_sub(earlier.presolve_fixed),
        }
    }
}

/// Snapshots the process-wide solver counters.
#[must_use]
pub fn stats() -> IlpStats {
    IlpStats {
        solves: SOLVES.load(Ordering::Relaxed),
        nodes: NODES.load(Ordering::Relaxed),
        warmstart_hits: 0,
        warmstart_misses: 0,
        presolve_fixed: PRESOLVE_FIXED.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_solve() {
    SOLVES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_nodes(nodes: u64) {
    NODES.fetch_add(nodes, Ordering::Relaxed);
}

pub(crate) fn record_presolve_fixed(count: u64) {
    if count > 0 {
        PRESOLVE_FIXED.fetch_add(count, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_since_subtracts_fieldwise() {
        let earlier = IlpStats {
            solves: 2,
            nodes: 10,
            presolve_fixed: 4,
            ..IlpStats::default()
        };
        let later = IlpStats {
            solves: 5,
            nodes: 25,
            presolve_fixed: 10,
            ..IlpStats::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!((d.solves, d.nodes, d.presolve_fixed), (3, 15, 6));
        assert_eq!((d.warmstart_hits, d.warmstart_misses), (0, 0));
    }
}
