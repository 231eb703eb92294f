//! Regression cases for the MCKP engine on the shapes `core::opt`
//! emits and on the degenerate corners of the hull relaxation: tie-heavy
//! classes, single-point hulls, negative bounds and weights, and
//! infeasibility.

use ilp::{solve_multiple_choice_knapsack, McItem, Mckp, Row, SolveError};

fn class(items: &[(f64, i64)]) -> Vec<McItem> {
    items
        .iter()
        .map(|&(value, weight)| McItem { value, weight })
        .collect()
}

/// Every item has the same value: all selections tie, so the tie rule
/// alone decides, and it must give the same answer however the row and
/// the cuts move the optimum set.
#[test]
fn uniform_objective_ties_are_deterministic() {
    let items = class(&[(0.5, 0), (0.5, 2), (0.5, 1), (0.5, 3)]);
    let mut p = Mckp {
        classes: vec![items.clone(), items.clone(), items],
        row: Row::AtMost(3),
        forbidden: vec![],
    };
    let first = p.solve().expect("feasible");
    assert_eq!(first.choices, vec![3, 0, 0]);
    for _ in 0..5 {
        assert_eq!(p.solve().expect("feasible"), first);
    }
    p.forbidden.push(first.choices);
    assert_eq!(p.solve().expect("feasible").choices, vec![2, 2, 2]);
}

/// Only the exactly-one rows (the max-gain form): every class takes its
/// best item, and a cut on that selection moves exactly one class to its
/// runner-up.
#[test]
fn equality_only_system() {
    let mut p = Mckp {
        classes: vec![
            class(&[(10.0, 0), (4.0, 0), (0.0, 0)]),
            class(&[(6.0, 0), (5.0, 0), (0.0, 0)]),
        ],
        row: Row::None,
        forbidden: vec![],
    };
    assert_eq!(p.solve().expect("feasible").choices, vec![0, 0]);
    p.forbidden.push(vec![0, 0]);
    let s = p.solve().expect("feasible");
    assert_eq!((s.choices, s.value), (vec![0, 1], 15.0));
}

/// Every item of a class has the same weight, so each hull is a single
/// point and the relaxation is integral at once.
#[test]
fn fully_degenerate_vertex_terminates() {
    let p = Mckp {
        classes: (0..8)
            .map(|c| class(&[(1.0, c), (2.0, c), (0.5, c)]))
            .collect(),
        row: Row::AtMost(28),
        forbidden: vec![],
    };
    let s = p.solve().expect("feasible");
    assert_eq!((s.choices, s.value, s.weight), (vec![1; 8], 16.0, 28));
    assert_eq!(
        Mckp {
            row: Row::AtMost(27),
            ..p
        }
        .solve(),
        Err(SolveError::Infeasible)
    );
}

/// The timing-dual shape: a `>=` row over latency gains, with negative
/// gains (slower implementations) and a negative bound, checked against
/// the DP on the negated row.
#[test]
fn mixed_senses_negative_rhs() {
    let classes = vec![
        class(&[(-0.4, 6), (-0.1, 2), (0.0, 0), (0.3, -5)]),
        class(&[(-0.2, 3), (0.0, 0), (0.25, -4)]),
        class(&[(0.0, 0), (0.1, -1)]),
    ];
    for deficit in [-9i64, -4, 0, 3, 7, 9] {
        let p = Mckp {
            classes: classes.clone(),
            row: Row::AtLeast(deficit),
            forbidden: vec![],
        };
        let negated: Vec<Vec<McItem>> = classes
            .iter()
            .map(|c| {
                c.iter()
                    .map(|i| McItem {
                        value: i.value,
                        weight: -i.weight,
                    })
                    .collect()
            })
            .collect();
        match (
            p.solve(),
            solve_multiple_choice_knapsack(&negated, -deficit),
        ) {
            (Ok(s), Ok(d)) => {
                assert!((s.value - d.value).abs() < 1e-12, "deficit {deficit}");
                assert!(s.weight >= deficit);
            }
            (Err(SolveError::Infeasible), Err(_)) => assert!(deficit > 9),
            (s, d) => panic!("deficit {deficit}: engine {s:?} vs dp {d:?}"),
        }
    }
}

/// Infeasibility is reported for an unreachable row, for a class with no
/// items, and when cuts remove every selection that fits.
#[test]
fn infeasibility_detection_matches() {
    let classes = vec![class(&[(1.0, 2), (0.0, 4)]), class(&[(1.0, 1), (0.0, 3)])];
    let p = |row, forbidden| Mckp {
        classes: classes.clone(),
        row,
        forbidden,
    };
    assert_eq!(
        p(Row::AtMost(2), vec![]).solve(),
        Err(SolveError::Infeasible)
    );
    assert_eq!(
        p(Row::AtLeast(8), vec![]).solve(),
        Err(SolveError::Infeasible)
    );
    assert_eq!(
        p(Row::AtMost(3), vec![vec![0, 0]]).solve(),
        Err(SolveError::Infeasible)
    );
    assert!(p(Row::AtMost(3), vec![vec![1, 1]]).solve().is_ok());
    let mut empty = p(Row::None, vec![]);
    empty.classes.push(Vec::new());
    assert_eq!(empty.solve(), Err(SolveError::Infeasible));
}
