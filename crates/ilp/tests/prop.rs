//! Differential tests: the MCKP engine against brute force over every
//! selection, and against the knapsack DP when there are no cuts.
//!
//! Brute force scores a selection by summing its values in class order
//! — bit for bit the engine's objective — and applies the tie rule on
//! its own: of the selections attaining the maximum, the
//! lexicographically greatest.

use ilp::{solve_multiple_choice_knapsack, McItem, Mckp, Row, SolveError};
use proptest::prelude::*;

/// Every allowed selection's objective, in lexicographic order.
fn enumerate(p: &Mckp) -> Vec<(f64, Vec<usize>)> {
    let mut out = Vec::new();
    let mut sel = vec![0usize; p.classes.len()];
    loop {
        let weight: i64 = sel.iter().zip(&p.classes).map(|(&j, c)| c[j].weight).sum();
        let fits = match p.row {
            Row::None => true,
            Row::AtMost(b) => weight <= b,
            Row::AtLeast(b) => weight >= b,
        };
        if fits && !p.forbidden.contains(&sel) {
            let value: f64 = sel.iter().zip(&p.classes).map(|(&j, c)| c[j].value).sum();
            out.push((value, sel.clone()));
        }
        // Odometer: the last class turns fastest.
        let Some(c) = (0..sel.len())
            .rev()
            .find(|&c| sel[c] + 1 < p.classes[c].len())
        else {
            return out;
        };
        sel[c] += 1;
        sel[c + 1..].iter_mut().for_each(|s| *s = 0);
    }
}

/// The tie rule's answer by exhaustion.
fn brute(p: &Mckp) -> Option<(f64, Vec<usize>)> {
    enumerate(p)
        .into_iter()
        .reduce(|best, next| if next.0 >= best.0 { next } else { best })
}

/// Random problems of all three row forms, with negative weights, a few
/// random forbidden selections, and then up to three successive optima
/// forbidden the way the exploration loop does (so the unconstrained
/// optimum is often cut off).
fn arb_problem(values: impl Strategy<Value = f64>) -> impl Strategy<Value = Mckp> {
    (
        proptest::collection::vec(proptest::collection::vec((values, -4i64..9), 1..4), 1..5),
        (0u8..3, -6i64..20),
        proptest::collection::vec(proptest::collection::vec(0usize..3, 4), 0..3),
        0usize..4,
    )
        .prop_map(|(classes, (form, bound), random_cuts, optima_cut)| {
            let classes: Vec<Vec<McItem>> = classes
                .into_iter()
                .map(|c| {
                    c.into_iter()
                        .map(|(value, weight)| McItem { value, weight })
                        .collect()
                })
                .collect();
            let forbidden = random_cuts
                .into_iter()
                .map(|cut| {
                    cut.iter()
                        .zip(&classes)
                        .map(|(&j, c)| j % c.len())
                        .collect()
                })
                .collect();
            let row = [Row::None, Row::AtMost(bound), Row::AtLeast(bound)][usize::from(form)];
            let mut p = Mckp {
                classes,
                row,
                forbidden,
            };
            for _ in 0..optima_cut {
                if let Some((_, sel)) = brute(&p) {
                    p.forbidden.push(sel);
                }
            }
            p
        })
}

/// The engine returns exactly the brute-force answer, bits included.
fn check(p: &Mckp) -> Result<(), TestCaseError> {
    match (p.solve(), brute(p)) {
        (Err(SolveError::Infeasible), None) => {}
        (Ok(s), Some((value, choices))) => {
            prop_assert_eq!(&s.choices, &choices, "problem {:?}", p);
            prop_assert_eq!(s.value, value);
        }
        (s, b) => prop_assert!(false, "engine {s:?} vs brute force {b:?} on {p:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Continuous values: ties are rare, so this pins the optimum.
    #[test]
    fn engine_matches_brute_force(p in arb_problem(-5.0f64..15.0)) {
        check(&p)?;
    }

    /// Small integer values: most optima are tied, so this pins the
    /// tie rule.
    #[test]
    fn tie_heavy_instances_match_brute_force(p in arb_problem((0u8..4).prop_map(f64::from))) {
        check(&p)?;
    }

    /// Without cuts the DP oracle agrees on the optimum.
    #[test]
    fn dp_equals_branch_and_bound(p in arb_problem(-5.0f64..15.0)) {
        let cap = match p.row {
            Row::AtMost(b) => b,
            _ => return Ok(()),
        };
        let p = Mckp { forbidden: Vec::new(), ..p };
        match (solve_multiple_choice_knapsack(&p.classes, cap), p.solve()) {
            (Err(_), Err(SolveError::Infeasible)) => {}
            (Ok(d), Ok(b)) => prop_assert!((d.value - b.value).abs() < 1e-9,
                "dp {} vs engine {}", d.value, b.value),
            (d, b) => prop_assert!(false, "feasibility divergence: {d:?} vs {b:?}"),
        }
    }

    /// Returned selections pick one item per class, respect the row, are
    /// not forbidden, and report their own value and weight.
    #[test]
    fn integer_solutions_are_feasible(p in arb_problem(-5.0f64..15.0)) {
        if let Ok(s) = p.solve() {
            prop_assert_eq!(s.choices.len(), p.classes.len());
            prop_assert!(!p.forbidden.contains(&s.choices));
            let weight: i64 = s.choices.iter().zip(&p.classes).map(|(&j, c)| c[j].weight).sum();
            prop_assert_eq!(s.weight, weight);
            match p.row {
                Row::None => {}
                Row::AtMost(b) => prop_assert!(weight <= b),
                Row::AtLeast(b) => prop_assert!(weight >= b),
            }
            let value: f64 = s.choices.iter().zip(&p.classes).map(|(&j, c)| c[j].value).sum();
            prop_assert_eq!(s.value, value);
        }
    }
}

/// Item 1 is strictly dominated by item 0 (more value, same weight), but
/// every selection using item 0 is forbidden: the dominated item is the
/// only way left, so the presolve must keep it.
#[test]
fn only_allowed_optimum_uses_a_dominated_item() {
    let item = |value, weight| McItem { value, weight };
    let p = Mckp {
        classes: vec![
            vec![item(2.0, 1), item(1.0, 1)],
            vec![item(0.0, 0), item(-1.0, 0)],
        ],
        row: Row::AtMost(1),
        forbidden: vec![vec![0, 0], vec![0, 1]],
    };
    let s = p.solve().expect("one allowed optimum");
    assert_eq!((s.choices, s.value), (vec![1, 0], 1.0));
}
