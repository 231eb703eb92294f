//! E14 — the exact selection engine on the MPEG-2 exploration ladder.
//!
//! ```text
//! ilpbench [--jobs <n>] [--out <path>] [--check-nodes]
//! ```
//!
//! Runs the E13 target ladder (five targets on the MPEG-2 encoder) with
//! `OptStrategy::Exact` twice — cold (empty analysis cache) and warm
//! (re-run against the filled cache, the iterative-DSE case where
//! selection is the only phase the memo cannot remove) — and checks:
//!
//! - the cold and warm ladders are byte-identical (trace digests and
//!   final selections);
//! - every target's trace digest equals the one pinned in
//!   `crates/mpeg2sys/tests/fixtures/exact_ladder.txt`, produced by the
//!   general simplex + branch & bound engine the MCKP engine replaced;
//! - with `--check-nodes`, the cold ladder explores at most
//!   [`NODE_CEILING`] branch & bound nodes.
//!
//! Any failed check exits 1. `--out` writes the measurements as JSON
//! (the same counters as `BENCH_ilp.json` from `repro --experiment
//! phases`, per stage).

use std::time::Instant;

use ermes::{ExplorationConfig, ExplorationTrace, ExploreOptions, OptStrategy};

const TARGETS: [u64; 5] = [900_000, 1_200_000, 1_500_000, 1_800_000, 2_400_000];

/// Branch & bound nodes (roots included) the MCKP engine explores on the
/// cold ladder; a change that needs more is a search regression.
const NODE_CEILING: u64 = 3_961;

const PINNED: &str = include_str!("../../../mpeg2sys/tests/fixtures/exact_ladder.txt");

struct StageResult {
    stage: &'static str,
    wall_ms: f64,
    ilp: ilp::IlpStats,
    traces: Vec<ExplorationTrace>,
}

/// Explores every ladder target once, sharing `cache` across targets
/// (so a "warm" call after a "cold" one probes a filled analysis and
/// ordering cache and spends its time in the solver).
fn run_ladder(stage: &'static str, jobs: usize, cache: &ermes::EngineCache) -> StageResult {
    let (design, _) = mpeg2sys::mpeg2_design();
    let options = ExploreOptions {
        jobs,
        cache: Some(cache),
        cancel: None,
    };
    let before = ilp::stats();
    let t = Instant::now();
    let traces = TARGETS
        .iter()
        .map(|&target| {
            let mut config = ExplorationConfig::with_target(target);
            config.strategy = OptStrategy::Exact;
            ermes::explore_with(design.clone(), config, &options)
                .expect("the MPEG-2 encoder explores without error")
        })
        .collect();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let ilp = ilp::stats().delta_since(&before);
    StageResult {
        stage,
        wall_ms,
        ilp,
        traces,
    }
}

/// The pinned digest of `target`, without its section header.
fn pinned(target: u64) -> &'static str {
    let key = format!("design mpeg2 target {target}\n");
    PINNED
        .split("\n\n")
        .find_map(|s| s.strip_prefix(key.as_str()))
        .unwrap_or_else(|| panic!("target {target} is pinned"))
}

/// Counts the targets where `cold` and `warm` differ, and where `cold`
/// differs from the pinned digest, printing each to stderr.
fn mismatches(cold: &StageResult, warm: &StageResult) -> (usize, usize) {
    let (mut repro, mut fixture) = (0, 0);
    for (i, (c, w)) in cold.traces.iter().zip(&warm.traces).enumerate() {
        let target = TARGETS[i];
        if c.digest() != w.digest() || c.design.selection() != w.design.selection() {
            repro += 1;
            eprintln!("target {target}: warm ladder differs from cold");
        }
        if c.digest().trim_end() != pinned(target) {
            fixture += 1;
            eprintln!(
                "target {target}: trace differs from the pinned fixture:\n{}",
                c.digest()
            );
        }
    }
    (repro, fixture)
}

fn json_report(jobs: usize, rows: &[StageResult], ok: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"E14\",\n");
    let targets: Vec<String> = TARGETS.iter().map(ToString::to_string).collect();
    out.push_str(&format!("  \"targets\": [{}],\n", targets.join(", ")));
    out.push_str(&format!("  \"jobs\": {},\n", parx::resolve_jobs(jobs)));
    out.push_str(&format!("  \"matches_fixture\": {ok},\n"));
    out.push_str(&format!("  \"node_ceiling\": {NODE_CEILING},\n"));
    out.push_str("  \"stages\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"stage\": \"{}\",\n", row.stage));
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", row.wall_ms));
        out.push_str(&format!("      \"ilp_solves\": {},\n", row.ilp.solves));
        out.push_str(&format!("      \"ilp_nodes\": {},\n", row.ilp.nodes));
        out.push_str(&format!(
            "      \"presolve_fixed\": {}\n",
            row.ilp.presolve_fixed
        ));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_nodes = args.iter().any(|a| a == "--check-nodes");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let jobs = parx::parse_jobs(
        "--jobs",
        args.iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str),
        1,
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    println!("E14 — exact selection engine on the MPEG-2 ladder {TARGETS:?}");
    println!("jobs: {}\n", parx::resolve_jobs(jobs));

    let cache = ermes::EngineCache::new();
    let rows = [
        run_ladder("cold", jobs, &cache),
        run_ladder("warm", jobs, &cache),
    ];
    println!("stage  wall[ms]  solves   nodes  presolve");
    for row in &rows {
        println!(
            "{:<5} {:>9.1} {:>7} {:>7} {:>9}",
            row.stage, row.wall_ms, row.ilp.solves, row.ilp.nodes, row.ilp.presolve_fixed
        );
    }
    let [cold, warm] = &rows;
    let (repro, fixture) = mismatches(cold, warm);
    let verdict = |n: usize| if n == 0 { "byte-identical" } else { "DIFFER" };
    println!(
        "cold vs warm: {}; vs pinned fixture: {}",
        verdict(repro),
        verdict(fixture)
    );

    if let Some(path) = out_path {
        let json = json_report(jobs, &rows, repro == 0 && fixture == 0);
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    if repro > 0 {
        eprintln!("FAIL: {repro} target(s) differ between the cold and warm ladders");
        std::process::exit(1);
    }
    if fixture > 0 {
        eprintln!("FAIL: {fixture} target(s) differ from the pinned fixture");
        std::process::exit(1);
    }
    if check_nodes {
        if cold.ilp.nodes > NODE_CEILING {
            eprintln!(
                "FAIL: the cold ladder explored {} nodes, ceiling {NODE_CEILING} — node regression",
                cold.ilp.nodes
            );
            std::process::exit(1);
        }
        println!(
            "node check passed: {} <= ceiling {NODE_CEILING}",
            cold.ilp.nodes
        );
    }
}
