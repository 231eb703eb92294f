//! Exact knapsack solvers by dynamic programming.
//!
//! The paper's area-recovery step "is a variant of the knapsack problem"
//! with a multiple-choice structure: every process must adopt exactly one
//! implementation. This module solves that structure exactly by DP over
//! integer weights, independently of the branch & bound engine
//! ([`crate::Mckp`]); it is kept as the engine's oracle in the
//! differential tests.

use std::fmt;

/// An item of a multiple-choice knapsack group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McItem {
    /// Profit when the item is chosen (may be negative).
    pub value: f64,
    /// Integer weight consumed (may be negative: choosing this item frees
    /// capacity).
    pub weight: i64,
}

/// Errors of [`solve_multiple_choice_knapsack`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KnapsackError {
    /// Some group has no items: no assignment picks one from each.
    EmptyGroup {
        /// Index of the offending group.
        group: usize,
    },
    /// No combination of one-item-per-group fits the capacity.
    Infeasible,
}

impl fmt::Display for KnapsackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnapsackError::EmptyGroup { group } => write!(f, "group {group} has no items"),
            KnapsackError::Infeasible => write!(f, "no selection fits the capacity"),
        }
    }
}

impl std::error::Error for KnapsackError {}

/// Result of the multiple-choice knapsack.
#[derive(Debug, Clone, PartialEq)]
pub struct McSelection {
    /// Chosen item index per group.
    pub choices: Vec<usize>,
    /// Total value of the selection.
    pub value: f64,
    /// Total weight of the selection.
    pub weight: i64,
}

/// Solves the multiple-choice knapsack exactly: choose one item per group
/// maximizing total value subject to total weight `<= capacity`.
///
/// Weights may be negative (shifted internally); the DP is pseudo-
/// polynomial in the shifted capacity.
///
/// # Errors
///
/// [`KnapsackError::EmptyGroup`] or [`KnapsackError::Infeasible`].
///
/// # Examples
///
/// ```
/// use ilp::{solve_multiple_choice_knapsack, McItem};
/// let groups = vec![
///     vec![McItem { value: 9.0, weight: 5 }, McItem { value: 5.0, weight: 3 }],
///     vec![McItem { value: 8.0, weight: 5 }, McItem { value: 4.0, weight: 2 }],
/// ];
/// let s = solve_multiple_choice_knapsack(&groups, 7)?;
/// assert_eq!(s.value, 13.0); // 9 + 4 at weight 7
/// assert_eq!(s.choices, vec![0, 1]);
/// # Ok::<(), ilp::KnapsackError>(())
/// ```
pub fn solve_multiple_choice_knapsack(
    groups: &[Vec<McItem>],
    capacity: i64,
) -> Result<McSelection, KnapsackError> {
    for (g, items) in groups.iter().enumerate() {
        if items.is_empty() {
            return Err(KnapsackError::EmptyGroup { group: g });
        }
    }
    // Shift weights so each group's minimum weight is zero.
    let offsets: Vec<i64> = groups
        .iter()
        .map(|items| items.iter().map(|i| i.weight).min().expect("non-empty"))
        .collect();
    let total_offset: i64 = offsets.iter().sum();
    let shifted_cap = capacity - total_offset;
    if shifted_cap < 0 {
        return Err(KnapsackError::Infeasible);
    }
    // Cap the DP width at the largest useful weight.
    let max_extra: i64 = groups
        .iter()
        .zip(&offsets)
        .map(|(items, off)| {
            items
                .iter()
                .map(|i| i.weight - off)
                .max()
                .expect("non-empty")
        })
        .sum();
    let width = usize::try_from(shifted_cap.min(max_extra)).expect("non-negative") + 1;

    const NEG_INF: f64 = f64::NEG_INFINITY;
    // tables[g][w] = (best value, chosen item, predecessor weight) after
    // deciding the first g groups with shifted weight w.
    let mut tables: Vec<Vec<(f64, usize, usize)>> = Vec::with_capacity(groups.len() + 1);
    let mut seed = vec![(NEG_INF, usize::MAX, usize::MAX); width];
    seed[0] = (0.0, usize::MAX, usize::MAX);
    tables.push(seed);
    for (g, items) in groups.iter().enumerate() {
        let prev = tables.last().expect("seeded").clone();
        let mut next = vec![(NEG_INF, usize::MAX, usize::MAX); width];
        for (idx, item) in items.iter().enumerate() {
            let w = usize::try_from(item.weight - offsets[g]).expect("shifted weight >= 0");
            for (old, entry) in prev.iter().enumerate() {
                if entry.0 == NEG_INF {
                    continue;
                }
                let Some(new_w) = old.checked_add(w).filter(|&x| x < width) else {
                    continue;
                };
                let cand = entry.0 + item.value;
                if cand > next[new_w].0 {
                    next[new_w] = (cand, idx, old);
                }
            }
        }
        tables.push(next);
    }

    // Best reachable weight in the final table.
    let final_table = tables.last().expect("seeded");
    let (best_w, &(best_v, _, _)) = final_table
        .iter()
        .enumerate()
        .filter(|(_, &(v, _, _))| v != NEG_INF)
        .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("values are finite"))
        .ok_or(KnapsackError::Infeasible)?;

    let mut choices = vec![0usize; groups.len()];
    let mut w = best_w;
    for g in (0..groups.len()).rev() {
        let (_, idx, prev_w) = tables[g + 1][w];
        choices[g] = idx;
        w = prev_w;
    }
    let weight: i64 = choices
        .iter()
        .enumerate()
        .map(|(g, &i)| groups[g][i].weight)
        .sum();
    Ok(McSelection {
        choices,
        value: best_v,
        weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle.
    fn brute(groups: &[Vec<McItem>], capacity: i64) -> Option<(f64, Vec<usize>)> {
        fn rec(
            groups: &[Vec<McItem>],
            g: usize,
            weight: i64,
            value: f64,
            picks: &mut Vec<usize>,
            capacity: i64,
            best: &mut Option<(f64, Vec<usize>)>,
        ) {
            if g == groups.len() {
                if weight <= capacity && best.as_ref().is_none_or(|(b, _)| value > *b) {
                    *best = Some((value, picks.clone()));
                }
                return;
            }
            for (i, item) in groups[g].iter().enumerate() {
                picks.push(i);
                rec(
                    groups,
                    g + 1,
                    weight + item.weight,
                    value + item.value,
                    picks,
                    capacity,
                    best,
                );
                picks.pop();
            }
        }
        let mut best = None;
        rec(groups, 0, 0, 0.0, &mut Vec::new(), capacity, &mut best);
        best
    }

    fn item(value: f64, weight: i64) -> McItem {
        McItem { value, weight }
    }

    #[test]
    fn two_group_example() {
        let groups = vec![
            vec![item(9.0, 5), item(5.0, 3)],
            vec![item(8.0, 5), item(4.0, 2)],
        ];
        let s = solve_multiple_choice_knapsack(&groups, 7).expect("feasible");
        assert_eq!(s.value, 13.0);
        assert_eq!(s.weight, 7);
    }

    #[test]
    fn negative_weights_free_capacity() {
        // Picking the second item of group 0 frees capacity for group 1.
        let groups = vec![
            vec![item(1.0, 2), item(0.5, -3)],
            vec![item(10.0, 4), item(1.0, 0)],
        ];
        let s = solve_multiple_choice_knapsack(&groups, 1).expect("feasible");
        assert_eq!(s.choices, vec![1, 0]);
        assert_eq!(s.weight, 1);
        assert_eq!(s.value, 10.5);
    }

    #[test]
    fn empty_group_is_an_error() {
        let groups = vec![vec![item(1.0, 1)], vec![]];
        assert_eq!(
            solve_multiple_choice_knapsack(&groups, 5),
            Err(KnapsackError::EmptyGroup { group: 1 })
        );
    }

    #[test]
    fn infeasible_capacity() {
        let groups = vec![vec![item(1.0, 5)], vec![item(1.0, 5)]];
        assert_eq!(
            solve_multiple_choice_knapsack(&groups, 3),
            Err(KnapsackError::Infeasible)
        );
    }

    #[test]
    fn matches_oracle_on_random_family() {
        let mut state = 0xdead_beef_1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _case in 0..60 {
            let n_groups = (next() % 4 + 1) as usize;
            let groups: Vec<Vec<McItem>> = (0..n_groups)
                .map(|_| {
                    (0..(next() % 4 + 1))
                        .map(|_| McItem {
                            value: (next() % 21) as f64 - 5.0,
                            weight: (next() % 13) as i64 - 4,
                        })
                        .collect()
                })
                .collect();
            let capacity = (next() % 15) as i64 - 3;
            let oracle = brute(&groups, capacity);
            let dp = solve_multiple_choice_knapsack(&groups, capacity);
            match (oracle, dp) {
                (None, Err(KnapsackError::Infeasible)) => {}
                (Some((val, _)), Ok(s)) => {
                    assert!(
                        (s.value - val).abs() < 1e-9,
                        "dp {} oracle {}",
                        s.value,
                        val
                    );
                    assert!(s.weight <= capacity);
                }
                (oracle, dp) => panic!("divergence: oracle {oracle:?} dp {dp:?}"),
            }
        }
    }
}
