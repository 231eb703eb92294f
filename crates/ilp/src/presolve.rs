//! Dominance presolve: removes items no optimum can use before the
//! search starts.
//!
//! Within a class, item `k` is **strictly dominated** by item `i` when
//! `i` has a strictly larger value (`v_i > v_k`), a weight that is never
//! worse for the (normalized `≤`) latency row (`w_i <= w_k`), and `i` is
//! a member of no forbidden selection. Swapping `k → i` in any selection
//! then keeps it feasible, cannot make it forbidden (no forbidden
//! selection contains `i`), and strictly raises its value, so `k`
//! appears in no optimum and is dropped. The membership condition is
//! what makes no-good cuts safe: an item the cuts may exclude never
//! shadows the alternatives the search would fall back to.
//!
//! The maximal-value non-member of a class is never dominated, so no
//! class is ever emptied. A class left with a single candidate is fixed
//! to it. In the exploration loop's area-recovery step this collapses
//! every non-critical process (all weights zero) straight to its
//! maximum-gain implementation.

use crate::knapsack::McItem;

/// Outcome of the presolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Presolve {
    /// Surviving item indices per class, ascending.
    pub(crate) candidates: Vec<Vec<usize>>,
    /// Items decided before search: every dominated item, plus the
    /// survivor of each class left with exactly one.
    pub(crate) eliminated: usize,
}

/// Runs the presolve over classes whose weights are already normalized
/// to a `≤` row. Forbidden selections of the wrong length or naming a
/// nonexistent item can never match and mark no members.
pub(crate) fn presolve(classes: &[Vec<McItem>], forbidden: &[Vec<usize>]) -> Presolve {
    let mut member: Vec<Vec<bool>> = classes.iter().map(|c| vec![false; c.len()]).collect();
    for f in forbidden {
        if f.len() == classes.len() && f.iter().zip(classes).all(|(&j, c)| j < c.len()) {
            for (c, &j) in f.iter().enumerate() {
                member[c][j] = true;
            }
        }
    }
    let mut eliminated = 0;
    let candidates = classes
        .iter()
        .zip(&member)
        .map(|(items, member)| {
            let survivors: Vec<usize> = (0..items.len())
                .filter(|&k| {
                    !items.iter().zip(member).any(|(i, &m)| {
                        !m && i.value > items[k].value && i.weight <= items[k].weight
                    })
                })
                .collect();
            eliminated += items.len() - survivors.len() + usize::from(survivors.len() == 1);
            survivors
        })
        .collect();
    Presolve {
        candidates,
        eliminated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(items: &[(f64, i64)]) -> Vec<McItem> {
        items
            .iter()
            .map(|&(value, weight)| McItem { value, weight })
            .collect()
    }

    /// The area-recovery shape: class `a` is critical (its items use
    /// slack), class `b` is not (all weights zero).
    fn two_classes() -> Vec<Vec<McItem>> {
        vec![class(&[(0.5, 1), (0.9, 3)]), class(&[(0.1, 0), (0.7, 0)])]
    }

    #[test]
    fn noncritical_group_collapses_to_max_gain() {
        let pre = presolve(&two_classes(), &[]);
        // b0 is dominated by b1 and b is then fixed; in a, the larger
        // gain costs more slack, so neither item dominates.
        assert_eq!(pre.candidates, vec![vec![0, 1], vec![1]]);
        assert_eq!(pre.eliminated, 2);
    }

    #[test]
    fn equal_objectives_are_never_pruned() {
        let pre = presolve(&[class(&[(0.4, 0), (0.4, 0)])], &[]);
        assert_eq!(pre.candidates, vec![vec![0, 1]]);
        assert_eq!(pre.eliminated, 0);
    }

    #[test]
    fn cut_members_cannot_dominate_outsiders() {
        // Without the cut, b1 dominates b0; once b1 is a member of a
        // forbidden selection, b0 must survive as the fallback.
        let pre = presolve(&two_classes(), &[vec![1, 1]]);
        assert_eq!(pre.candidates[1], vec![0, 1]);
        // A malformed forbidden entry marks nothing.
        let pre = presolve(&two_classes(), &[vec![1, 7], vec![1]]);
        assert_eq!(pre.candidates[1], vec![1]);
    }

    #[test]
    fn dominance_never_exhausts_a_group() {
        let pre = presolve(&[class(&[(1.0, 2), (2.0, 1), (1.5, 1)])], &[vec![0]]);
        assert_eq!(pre.candidates, vec![vec![1]]);
        assert_eq!(pre.eliminated, 3);
    }
}
