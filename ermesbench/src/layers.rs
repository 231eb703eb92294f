//! The traced run's per-layer metrics.
//!
//! Layer names follow the crates. Each workload fills the values it can
//! measure: times of layers the engine calls internally come from the
//! program's own spans (read through `trace::phase_snapshot` and the
//! span journal), counts from `ilp::stats()`, `EngineCache::stats()` and
//! span attributes, and layers the workload calls directly are timed
//! from here around their public functions. A layer a workload does not
//! exercise reports `0`.

use crate::util::{ms_since, Outcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, in report order: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.parse_ms", "ms"),
    ("spec.parse_peak_mib", "MiB"),
    ("design.build_ms", "ms"),
    ("chanorder.ms", "ms"),
    ("chanorder.calls", "count"),
    ("lower.ms", "ms"),
    ("deadlock.ms", "ms"),
    ("scc.ms", "ms"),
    ("scc.largest_nodes", "count"),
    ("howard.ms", "ms"),
    ("howard.solves", "count"),
    ("howard.iters", "count"),
    ("explore.iterations", "count"),
    ("explore.front_hypervolume", "ratio"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("select.ms", "ms"),
    ("ilp.solves", "count"),
    ("ilp.nodes", "count"),
    ("ilp.warm_hit_ratio", "ratio"),
    ("ilp.presolve_fixed", "count"),
    ("delta.reselect_ms", "ms"),
    ("delta.reprice_ms", "ms"),
    ("render.ms", "ms"),
    ("http.overhead_ms", "ms"),
    ("http.read_ms_p50", "ms"),
    ("http.read_overhead_ms", "ms"),
    ("verify.encode_ms", "ms"),
    ("verify.static_ms", "ms"),
    ("verify.bmc_ms", "ms"),
    ("verify.induction_ms", "ms"),
    ("verify.period_ms", "ms"),
    ("verify.states", "count"),
    ("verify.peak_mib", "MiB"),
    ("share.spec", "ratio"),
    ("share.design", "ratio"),
    ("share.chanorder", "ratio"),
    ("share.lower", "ratio"),
    ("share.deadlock", "ratio"),
    ("share.scc", "ratio"),
    ("share.howard", "ratio"),
    ("share.select", "ratio"),
    ("share.delta", "ratio"),
    ("share.render", "ratio"),
    ("share.http", "ratio"),
    ("share.verify", "ratio"),
    ("unattributed.share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// The counters that must repeat exactly between two traced runs of
/// one seed (a later change may cite them as counts).
pub const DETERMINISTIC: &[&str] = &[
    "howard.iters",
    "howard.solves",
    "ilp.nodes",
    "ilp.solves",
    "explore.iterations",
    "verify.states",
    "cache.hits",
    "chanorder.calls",
    "scc.largest_nodes",
];

/// What the program's own instrumentation recorded while one closure ran.
pub struct Capture {
    /// Per span name: `(spans closed, total milliseconds)`.
    phases: BTreeMap<&'static str, (u64, f64)>,
    records: Vec<trace::SpanRecord>,
    /// Whether the journal still holds every span the closure closed.
    pub complete: bool,
    pub ilp: ilp::IlpStats,
    pub wall_ms: f64,
}

impl Capture {
    pub fn ms(&self, phase: &str) -> f64 {
        self.phases.get(phase).map_or(0.0, |p| p.1)
    }

    pub fn count(&self, phase: &str) -> u64 {
        self.phases.get(phase).map_or(0, |p| p.0)
    }

    fn attrs<'a>(&'a self, span: &'a str, key: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.records
            .iter()
            .filter(move |r| r.name == span)
            .filter_map(move |r| r.attr(key).and_then(|v| v.parse::<u64>().ok()))
    }

    pub fn attr_sum(&self, span: &str, key: &str) -> u64 {
        self.attrs(span, key).sum()
    }

    pub fn attr_max(&self, span: &str, key: &str) -> u64 {
        self.attrs(span, key).max().unwrap_or(0)
    }
}

/// Runs `f` with the span recorder on and returns what it recorded.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Capture) {
    trace::reset();
    let pushed = trace::spans_recorded();
    let ilp_before = ilp::stats();
    trace::set_enabled(true);
    let t = Instant::now();
    let value = f();
    let wall_ms = ms_since(t);
    trace::set_enabled(false);
    let ilp = ilp::stats().delta_since(&ilp_before);
    let phases = trace::phase_snapshot()
        .iter()
        .map(|p| (p.phase, (p.count, p.sum_seconds * 1e3)))
        .collect();
    let records = trace::snapshot();
    let complete = trace::spans_recorded() - pushed == records.len() as u64;
    trace::reset();
    (
        value,
        Capture {
            phases,
            records,
            complete,
            ilp,
            wall_ms,
        },
    )
}

/// Records the share of `op_ms` each listed layer's self time takes,
/// and the rest as `unattributed.share`.
pub fn shares(out: &mut Outcome, op_ms: f64, parts: &[(&'static str, f64)]) {
    let mut covered = 0.0;
    for &(name, ms) in parts {
        out.layer(name, ms / op_ms);
        covered += ms;
    }
    out.layer("unattributed.share", 1.0 - covered / op_ms);
    let listed: Vec<String> = parts
        .iter()
        .map(|(n, ms)| {
            format!(
                "{} {:.1}%",
                n.trim_start_matches("share."),
                100.0 * ms / op_ms
            )
        })
        .collect();
    out.note(format!(
        "layer shares of the {op_ms:.2} ms traced operation: {}, unattributed {:.1}%",
        listed.join(", "),
        100.0 * (1.0 - covered / op_ms)
    ));
}

/// Turns the collected layer values into the per-layer metrics.
pub fn finish(out: &mut Outcome) {
    for name in out.layers.keys() {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            out.fail(format!("internal: undeclared layer metric `{name}`"));
            break;
        }
    }
    let counters: Vec<String> = DETERMINISTIC
        .iter()
        .map(|n| format!("{n}={}", out.layers.get(n).copied().unwrap_or(0.0)))
        .collect();
    out.note(format!("deterministic counters: {}", counters.join(" ")));
    for &(name, unit) in PER_LAYER {
        let value = out.layers.get(name).copied().unwrap_or(0.0);
        out.metric(name, value, unit);
    }
}
