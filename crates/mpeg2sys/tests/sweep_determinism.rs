//! Determinism and cache-correctness of the parallel exploration engine
//! on the full MPEG-2 case study (26 processes / 60 channels).
//!
//! The sweep must return bit-identical exact cycle times and areas at
//! any thread count, and the shared cache must not change any result.

use ermes::{
    analyze_design, analyze_design_with_jobs, pareto_sweep_with, EngineCache, ExplorationConfig,
    ExploreOptions, SweepOptions,
};
use mpeg2sys::m2_design;

#[test]
fn mpeg2_analysis_is_bit_identical_across_thread_counts() {
    let (design, _) = m2_design();
    let serial = analyze_design(&design);
    assert!(serial.cycle_time().is_some(), "M2 is live");
    for jobs in [2, 4, 0] {
        assert_eq!(
            analyze_design_with_jobs(&design, jobs),
            serial,
            "jobs = {jobs}"
        );
    }
}

#[test]
fn mpeg2_sweep_is_bit_identical_and_caches() {
    let (design, _) = m2_design();
    let base = analyze_design(&design)
        .cycle_time()
        .expect("M2 is live")
        .to_f64();
    // A short ladder bracketing the M2 cycle time.
    let targets: Vec<u64> = [0.5, 0.9, 1.1, 1.5]
        .iter()
        .map(|f| (base * f) as u64)
        .collect();
    let serial = pareto_sweep_with(
        design.clone(),
        &targets,
        &SweepOptions {
            jobs: 1,
            memoize: true,
        },
    )
    .expect("sweeps");
    assert!(!serial.front.is_empty());
    let parallel = pareto_sweep_with(
        design.clone(),
        &targets,
        &SweepOptions {
            jobs: 4,
            memoize: true,
        },
    )
    .expect("sweeps");
    assert_eq!(
        parallel.front, serial.front,
        "exact Ratio cycle times match"
    );
    assert!(
        serial.cache.analysis_misses > 0,
        "sweep ran the analysis: {:?}",
        serial.cache
    );
}

/// Forks from the pinned traces that are certified ties: `(design,
/// target, iteration)` where that iteration's selection problem has two
/// allowed optima with bit-equal objectives. The pinned engine's pick
/// depended on the simplex basis it carried from earlier solves (it took
/// the other optimum on the full encoder at the same step), while the
/// MCKP engine applies its fixed tie rule. The fork changes only that
/// record's area, by one ulp, and the walk rejoins the pinned trace.
const CERTIFIED_TIES: [(&str, u64, usize); 1] = [("m2", 2_400_000, 6)];

/// Splits a record's `Debug` line around its area.
fn split_area(line: &str) -> (String, f64) {
    let start = line.find("area: ").expect("records print their area") + 6;
    let end = start + line[start..].find(',').expect("area is not the last field");
    let rest = format!("{}{}", &line[..start], &line[end..]);
    (rest, line[start..end].parse().expect("area is an f64"))
}

/// The exact engine walks the E13 ladder on the full MPEG-2 encoder and
/// on M2 exactly as pinned in `fixtures/exact_ladder.txt`, which the
/// general simplex + branch & bound engine it replaced produced: same
/// iterations, cycle times, areas and critical sets, same best point,
/// same bits. The only exceptions are the listed certified ties, where
/// the records may differ in area within 1e-9 and the best point must
/// still match bit for bit.
#[test]
fn mpeg2_exploration_engines_are_bit_identical() {
    let fixture = include_str!("fixtures/exact_ladder.txt");
    for (name, design) in [("mpeg2", mpeg2sys::mpeg2_design().0), ("m2", m2_design().0)] {
        for target in [900_000u64, 1_200_000, 1_500_000, 1_800_000, 2_400_000] {
            let key = format!("design {name} target {target}\n");
            let pinned = fixture
                .split("\n\n")
                .find_map(|s| s.strip_prefix(&key))
                .expect("every target is pinned");
            let mut config = ExplorationConfig::with_target(target);
            config.strategy = ermes::OptStrategy::Exact;
            let digest = ermes::explore(design.clone(), config)
                .expect("explores")
                .digest();
            let (got, want): (Vec<&str>, Vec<&str>) = (
                digest.trim_end().lines().collect(),
                pinned.lines().collect(),
            );
            assert_eq!(got.len(), want.len(), "{name} {target}: trace length");
            assert_eq!(got[0], want[0], "{name} {target}: best point");
            for (i, (g, w)) in got.iter().zip(&want).skip(1).enumerate() {
                if CERTIFIED_TIES.contains(&(name, target, i)) {
                    let ((g, ga), (w, wa)) = (split_area(g), split_area(w));
                    assert_eq!(g, w, "{name} {target}: iteration {i} beyond its area");
                    assert!((ga - wa).abs() <= 1e-9, "{name} {target}: iteration {i}");
                } else {
                    assert_eq!(g, w, "{name} {target}: iteration {i}");
                }
            }
        }
    }
}

#[test]
fn mpeg2_cached_exploration_matches_fresh() {
    let (design, _) = m2_design();
    let config = ExplorationConfig::with_target(2_500_000);
    let fresh = ermes::explore(design.clone(), config).expect("explores");
    let cache = EngineCache::new();
    let opts = ExploreOptions {
        jobs: 2,
        cache: Some(&cache),
        cancel: None,
    };
    let cached = ermes::explore_with(design, config, &opts).expect("explores");
    assert_eq!(cached.iterations, fresh.iterations);
    assert_eq!(cached.design.selection(), fresh.design.selection());
}
