//! `sweep-mpeg2` and `sweep-soc10k`: one closed-loop client; each
//! operation is `parse_spec` of the spec bytes followed by
//! `cmd_sweep_cached` over the seeded ladder with a fresh `EngineCache`
//! and `jobs` 1, giving the rendered front.

use crate::inputs::Inputs;
use crate::layers::{self, capture};
use crate::parts;
use crate::util::{median, median_ms_of_3, peak_rss_mib, quantile, timed, Outcome};
use crate::Workload;
use ermesd::SystemSpec;
use std::collections::BTreeMap;

/// One sweep from spec bytes to front bytes; returns the cache counters
/// alongside so the traced run can read them.
fn op(spec: &str, targets: &[u64], jobs: usize) -> Result<(String, ermes::CacheStats), String> {
    let spec = ermesd::parse_spec(spec).map_err(|e| e.to_string())?;
    let cache = ermes::EngineCache::new();
    let front =
        ermesd::cmd_sweep_cached(&spec, targets, jobs, &cache).map_err(|e| e.to_string())?;
    Ok((front, cache.stats()))
}

/// Parses an exact cycle time as printed (`n` or `n/d`).
fn ratio_f64(text: &str) -> Option<f64> {
    match text.split_once('/') {
        Some((n, d)) => Some(n.parse::<f64>().ok()? / d.parse::<f64>().ok()?),
        None => text.parse().ok(),
    }
}

/// The normalised area x cycle-time region the front dominates. The
/// reference point is fixed by the input: twice the largest ladder
/// target, and the area of every process at its largest implementation.
fn hypervolume(front: &str, targets: &[u64], spec: &SystemSpec) -> Result<f64, String> {
    let ref_ct = 2.0 * targets.iter().copied().max().unwrap_or(1) as f64;
    let ref_area: f64 = spec
        .processes
        .iter()
        .filter_map(|p| p.pareto.as_ref())
        .map(|f| f.iter().map(|q| q.area).fold(0.0, f64::max))
        .sum();
    let mut points = Vec::new();
    for line in front.lines().skip(1) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        let (ct, area) = match cols.as_slice() {
            [_, ct, area, _] => (ratio_f64(ct), area.parse::<f64>().ok()),
            _ => (None, None),
        };
        match (ct, area) {
            (Some(ct), Some(area)) => points.push((ct, area)),
            _ => return Err(format!("unparseable front row `{line}`")),
        }
    }
    if points.is_empty() || ref_area <= 0.0 {
        return Err("empty front".into());
    }
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut hv = 0.0;
    let mut best_area = f64::INFINITY;
    for (i, &(ct, area)) in points.iter().enumerate() {
        best_area = best_area.min(area);
        let next = points.get(i + 1).map_or(ref_ct, |p| p.0.min(ref_ct));
        hv += (next - ct).max(0.0) * (ref_area - best_area).max(0.0);
    }
    Ok(hv / (ref_ct * ref_area))
}

/// Warm-up sweeps of `Inputs::warmup` that make up `setup_s` (reported
/// as their median), spread over the worker processes. The MPEG-2
/// warm-up sweeps take about 50 ms each; fifty of them span a few
/// seconds, so the median does not hang on the noisy first second of a
/// process.
fn setup_reps(inputs: &Inputs) -> usize {
    if inputs.ladders.len() > 1 {
        50
    } else {
        parts::PARTS
    }
}

/// Ladders of the pool the traced run sweeps, plain and traced.
const TRACED_LADDERS: usize = 128;

/// Checks each front against the first front of the same ladder.
struct Fronts(Vec<Option<String>>);

impl Fronts {
    fn check(
        &mut self,
        out: &mut Outcome,
        ladder: usize,
        result: Result<String, String>,
        what: &str,
    ) {
        out.attempted += 1;
        match (result, &self.0[ladder]) {
            (Err(e), _) => out.fail(format!("{what}: {e}")),
            (Ok(front), None) => self.0[ladder] = Some(front),
            (Ok(front), Some(first)) if *first == front => {}
            (Ok(_), Some(_)) => out.fail(format!(
                "{what}: front bytes of ladder {ladder} differ from its first sweep"
            )),
        }
    }

    /// Mean normalised hypervolume over the swept ladders.
    fn hypervolume(&self, out: &mut Outcome, ladders: &[Vec<u64>], spec: &SystemSpec) -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        for (front, ladder) in self.0.iter().zip(ladders) {
            if let Some(front) = front {
                match hypervolume(front, ladder, spec) {
                    Ok(hv) => {
                        sum += hv;
                        n += 1;
                    }
                    Err(e) => out.fail(format!("front: {e}")),
                }
            }
        }
        sum / f64::from(n.max(1))
    }
}

/// One operation of a worker process (see `parts`): a warm-up sweeps the
/// warm-up ladder, operation `index` the pool's ladder `index % len`.
pub fn part_op(inputs: &Inputs, index: usize, warm_up: bool) -> (usize, Result<String, String>) {
    let (key, ladder) = if warm_up {
        (usize::MAX, &inputs.warmup)
    } else {
        let i = index % inputs.ladders.len();
        (i, &inputs.ladders[i])
    };
    (key, op(&inputs.spec, ladder, 1).map(|r| r.0))
}

pub fn run(workload: Workload, inputs: &Inputs, seconds: f64, traced: bool, out: &mut Outcome) {
    let ladders = inputs.ladders.as_slice();
    out.note(format!(
        "{} ladder(s), first {:?}",
        ladders.len(),
        ladders[0]
    ));
    if traced {
        return run_traced(inputs, out);
    }
    let spec = inputs.spec.as_str();
    let pooled = match parts::run(workload, inputs, seconds, setup_reps(inputs), out) {
        Ok(pooled) => pooled,
        Err(e) => return out.fail(e),
    };

    // Outside the timed window: the first ladder on two threads must give
    // the same bytes.
    out.attempted += 1;
    let (result, jobs2_ms) = timed(|| op(spec, &ladders[0], 2).map(|r| r.0));
    match (result, pooled.outputs.get(&0)) {
        (Ok(front), Some(first)) if front == *first => {}
        (Err(e), _) => out.fail(format!("jobs-2 sweep: {e}")),
        _ => out.fail("jobs-2 sweep: front bytes differ from the jobs-1 sweeps"),
    }

    let parsed = SystemSpec::from_json(spec).expect("the generated spec parses");
    let fronts = Fronts(
        (0..ladders.len())
            .map(|i| pooled.outputs.get(&i).cloned())
            .collect(),
    );
    let hv = fronts.hypervolume(out, ladders, &parsed);
    out.note(format!(
        "front_hypervolume {hv:.6} (normalised, mean over ladders, higher is better)"
    ));
    out.note(format!(
        "front of the first ladder:\n{}",
        fronts.0[0].as_deref().unwrap_or("").trim_end()
    ));
    report_latency(out, "op_ms (sweep)", &pooled.lat_ms);
    out.note(format!(
        "{} worker processes; jobs-2 check sweep {jobs2_ms:.1} ms, identical bytes",
        parts::PARTS
    ));
    out.metric("setup_s", median(&pooled.setup_ms) / 1e3, "s");
    out.metric("op_ms_p50", median(&pooled.lat_ms), "ms");
    out.metric(
        "ops_per_s",
        pooled.lat_ms.len() as f64 / pooled.window_s,
        "1/s",
    );
    out.metric("peak_rss_mib", pooled.peak_mib, "MiB");
}

/// Prints p50, and p90 where at least ten samples fall beyond it.
pub fn report_latency(out: &mut Outcome, what: &str, lat: &[f64]) {
    let p90 = if lat.len() >= 100 {
        format!("p90 {:.3}", quantile(lat, 0.9))
    } else {
        "p90 not reported (<100 samples)".into()
    };
    out.note(format!(
        "{what}: n {} p50 {:.3} {p90}",
        lat.len(),
        median(lat)
    ));
}

fn run_traced(inputs: &Inputs, out: &mut Outcome) {
    let spec = inputs.spec.as_str();
    let ladders = inputs.ladders.as_slice();

    // The process's first parse, for its resident-set rise.
    let before = peak_rss_mib();
    let parsed = ermesd::parse_spec(spec).expect("the generated spec parses");
    out.layer("spec.parse_peak_mib", peak_rss_mib() - before);

    let ladders = &ladders[..ladders.len().min(TRACED_LADDERS)];
    let mut fronts = Fronts(vec![None; ladders.len()]);
    let result = op(spec, &inputs.warmup, 1).map(|r| r.0);
    Fronts(vec![None]).check(out, 0, result, "warm-up sweep");
    // One plain and one traced pass over the first ladders of the pool (a
    // single ladder is swept twice each way), so the summed counters
    // depend on the seed alone and repeat exactly between runs.
    let ops = if ladders.len() > 1 { ladders.len() } else { 2 };
    let untraced: Vec<f64> = (0..ops)
        .map(|k| {
            let i = k % ladders.len();
            let (result, ms) = timed(|| op(spec, &ladders[i], 1).map(|r| r.0));
            fronts.check(out, i, result, "sweep");
            ms
        })
        .collect();

    // Counters are summed over the traced operations; a ladder swept
    // twice must repeat its counters exactly.
    let mut walls = Vec::new();
    let mut per_ladder: Vec<Option<Vec<u64>>> = vec![None; ladders.len()];
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    let mut complete = true;
    let mut largest = 0u64;
    for k in 0..ops {
        let i = k % ladders.len();
        let (result, cap) = capture(|| op(spec, &ladders[i], 1));
        let stats = match result {
            Ok((front, stats)) => {
                fronts.check(out, i, Ok(front), "traced sweep");
                stats
            }
            Err(e) => {
                fronts.check(out, i, Err(e), "traced sweep");
                continue;
            }
        };
        walls.push(cap.wall_ms);
        complete &= cap.complete;
        largest = largest.max(cap.attr_max("howard", "nodes"));
        let counts = [
            ("howard.solves", cap.count("howard")),
            ("howard.iters", cap.attr_sum("howard", "iters")),
            ("explore.iterations", cap.count("iteration")),
            ("ilp.solves", cap.ilp.solves),
            ("ilp.nodes", cap.ilp.nodes),
            ("ilp.presolve_fixed", cap.ilp.presolve_fixed),
            ("ilp.warm_hits", cap.ilp.warmstart_hits),
            ("ilp.warm_misses", cap.ilp.warmstart_misses),
            ("chanorder.calls", cap.count("chanorder")),
            ("cache.hits", stats.analysis_hits + stats.ordering_hits),
            (
                "cache.probes",
                stats.analysis_hits
                    + stats.analysis_misses
                    + stats.ordering_hits
                    + stats.ordering_misses,
            ),
            ("analysis.misses", stats.analysis_misses),
        ];
        let values: Vec<u64> = counts.iter().map(|c| c.1).collect();
        match &per_ladder[i] {
            None => per_ladder[i] = Some(values),
            Some(first) if *first == values => {}
            Some(_) => out.fail(format!(
                "ladder {i}: a counter differed between two traced sweeps"
            )),
        }
        let times = ["howard", "analysis", "chanorder", "ilp"].map(|p| (p, cap.ms(p)));
        for (name, v) in counts.into_iter().map(|(n, v)| (n, v as f64)).chain(times) {
            *totals.entry(name).or_default() += v;
        }
    }
    if walls.is_empty() {
        return;
    }
    if !complete {
        out.note("warning: the span journal overflowed; attribute sums are partial");
    }
    let n = walls.len() as f64;
    let per_op = |name: &str| totals.get(name).copied().unwrap_or(0.0) / n;
    let op_ms = walls.iter().sum::<f64>() / n;
    out.layer("trace.overhead_ms", median(&walls) - median(&untraced));

    // Layers called directly, timed from here on the same inputs.
    let parse_ms = median_ms_of_3(|| ermesd::parse_spec(spec).expect("parses"));
    let design = parsed.to_design().expect("the generated spec builds");
    let build_ms = median_ms_of_3(|| parsed.to_design().expect("builds"));
    let lowered = sysgraph::lower_to_tmg(design.system());
    let lower_call = median_ms_of_3(|| sysgraph::lower_to_tmg(design.system()));
    let deadlock_call = median_ms_of_3(|| tmg::find_token_free_cycle(lowered.tmg()));
    drop(lowered);
    let opts = ermes::SweepOptions {
        jobs: 1,
        memoize: true,
    };
    let report = ermes::pareto_sweep_cached(design, &ladders[0], &opts, &ermes::EngineCache::new())
        .expect("the ladder sweeps");
    let (rendered, render_ms) = timed(|| ermesd::commands::render_sweep_front(&report.front));
    if Some(&rendered) != fronts.0[0].as_ref() {
        out.fail("render_sweep_front of the engine's front differs from the command's bytes");
    }

    let lower_ms = lower_call * per_op("analysis.misses");
    let deadlock_ms = deadlock_call * per_op("analysis.misses");
    let howard_ms = per_op("howard");
    let scc_ms = (per_op("analysis") - howard_ms - deadlock_ms).max(0.0);
    let chanorder_ms = per_op("chanorder");
    let select_ms = per_op("ilp");
    let warm = per_op("ilp.warm_hits");
    let lps = warm + per_op("ilp.warm_misses");
    let probes = per_op("cache.probes");
    out.layer("spec.parse_ms", parse_ms);
    out.layer("design.build_ms", build_ms);
    out.layer("chanorder.ms", chanorder_ms);
    out.layer("chanorder.calls", per_op("chanorder.calls"));
    out.layer("lower.ms", lower_ms);
    out.layer("deadlock.ms", deadlock_ms);
    out.layer("scc.ms", scc_ms);
    out.layer("scc.largest_nodes", largest as f64);
    out.layer("howard.ms", howard_ms);
    for name in [
        "howard.solves",
        "howard.iters",
        "explore.iterations",
        "cache.hits",
        "ilp.solves",
        "ilp.nodes",
        "ilp.presolve_fixed",
    ] {
        out.layer(name, per_op(name));
    }
    out.layer(
        "cache.hit_ratio",
        if probes > 0.0 {
            per_op("cache.hits") / probes
        } else {
            0.0
        },
    );
    out.layer("select.ms", select_ms);
    out.layer(
        "ilp.warm_hit_ratio",
        if lps > 0.0 { warm / lps } else { 0.0 },
    );
    out.layer("render.ms", render_ms);
    let hv = fronts.hypervolume(out, ladders, &parsed);
    out.layer("explore.front_hypervolume", hv);
    out.note(format!(
        "traced op mean {op_ms:.2} ms (p50 {:.2}) over {} ops, untraced p50 {:.2} ms over {} ops; per op {:.1} analysis cache misses; counters are means per operation",
        median(&walls),
        walls.len(),
        median(&untraced),
        untraced.len(),
        per_op("analysis.misses")
    ));
    layers::shares(
        out,
        op_ms,
        &[
            ("share.spec", parse_ms),
            ("share.design", build_ms),
            ("share.chanorder", chanorder_ms),
            ("share.lower", lower_ms),
            ("share.deadlock", deadlock_ms),
            ("share.scc", scc_ms),
            ("share.howard", howard_ms),
            ("share.select", select_ms),
            ("share.render", render_ms),
        ],
    );
}
