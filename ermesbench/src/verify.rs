//! `verify-soc256`: one closed-loop client; each operation is
//! `parse_spec` of the ordered soc:256 spec followed by `cmd_verify`.

use crate::inputs::Inputs;
use crate::layers::{self, capture};
use crate::parts;
use crate::sweep::report_latency;
use crate::util::{median, median_ms_of_3, peak_rss_mib, timed, Outcome};
use crate::Workload;

fn op(spec: &str) -> Result<String, String> {
    let spec = ermesd::parse_spec(spec).map_err(|e| e.to_string())?;
    ermesd::cmd_verify(&spec).map_err(|e| e.to_string())
}

/// Checks a certificate against an independent Howard analysis: the
/// verdict must be CERTIFIED and the exact period must equal Howard's
/// cycle time (equal exact ratios are equal to the bit). Returns the
/// state count the certificate reports.
fn check_certificate(text: &str, spec: &str, expected_ct: &str) -> Result<u64, String> {
    let verdict = text
        .lines()
        .find(|l| l.starts_with("verdict: "))
        .ok_or("no verdict line")?;
    if !verdict.starts_with("verdict: CERTIFIED") {
        return Err(format!("not certified: {verdict}"));
    }
    let states = verdict
        .rsplit_once(", ")
        .and_then(|(_, s)| s.strip_suffix(" states)"))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no state count in `{verdict}`"))?;
    let sys = ermesd::parse_spec(spec)
        .and_then(|s| s.to_system().map_err(Into::into))
        .map_err(|e| e.to_string())?;
    let howard = tmg::analyze(sysgraph::lower_to_tmg(&sys).tmg())
        .cycle_time()
        .ok_or("Howard finds the design deadlocked")?;
    if howard.to_string() != expected_ct {
        return Err(format!(
            "Howard says {howard}, the generator said {expected_ct}"
        ));
    }
    let period = format!("period: {howard} cycles (exact)");
    if !text.lines().any(|l| l == period) {
        return Err(format!("period differs from Howard's cycle time {howard}"));
    }
    Ok(states)
}

/// One operation of a worker process (see `parts`); every output is
/// checked under one key.
pub fn part_op(inputs: &Inputs, _index: usize, _warm_up: bool) -> (usize, Result<String, String>) {
    (0, op(&inputs.spec))
}

pub fn run(inputs: &Inputs, seconds: f64, traced: bool, out: &mut Outcome) {
    if traced {
        return run_traced(inputs, seconds, out);
    }
    let pooled = match parts::run(Workload::VerifySoc256, inputs, seconds, parts::PARTS, out) {
        Ok(pooled) => pooled,
        Err(e) => return out.fail(e),
    };
    let text = pooled.outputs.get(&0).map_or("", String::as_str);
    out.attempted += 1;
    match check_certificate(text, &inputs.spec, &inputs.cycle_time) {
        Ok(states) => out.note(format!(
            "certificate: CERTIFIED, {states} states, period bit-identical to Howard ({})",
            inputs.cycle_time
        )),
        Err(e) => out.fail(e),
    }
    report_latency(out, "op_ms (verify)", &pooled.lat_ms);
    out.note(format!("{} worker processes", parts::PARTS));
    out.metric("setup_s", median(&pooled.setup_ms) / 1e3, "s");
    out.metric("op_ms_p50", median(&pooled.lat_ms), "ms");
    out.metric(
        "ops_per_s",
        pooled.lat_ms.len() as f64 / pooled.window_s,
        "1/s",
    );
    out.metric("peak_rss_mib", pooled.peak_mib, "MiB");
}

fn run_traced(inputs: &Inputs, seconds: f64, out: &mut Outcome) {
    let spec = inputs.spec.as_str();
    let before = peak_rss_mib();
    let parsed = ermesd::parse_spec(spec).expect("the generated spec parses");
    out.layer("spec.parse_peak_mib", peak_rss_mib() - before);
    let sys = parsed.to_system().expect("the generated spec builds");

    // The first verification in the process, for its resident-set rise.
    let before = peak_rss_mib();
    let (result, warm) = timed(|| op(spec));
    out.layer("verify.peak_mib", peak_rss_mib() - before);
    out.attempted += 1;
    let text = match result {
        Ok(text) => text,
        Err(e) => return out.fail(format!("verify: {e}")),
    };
    let states = match check_certificate(&text, spec, &inputs.cycle_time) {
        Ok(states) => states,
        Err(e) => return out.fail(e),
    };

    let reps = ((seconds * 1e3 / 4.0 / warm).ceil() as usize).max(1);
    let mut untraced = Vec::new();
    for _ in 0..reps {
        out.attempted += 1;
        let (result, ms) = timed(|| op(spec));
        untraced.push(ms);
        if result.as_ref() != Ok(&text) {
            out.fail("verify output differs between operations");
        }
    }
    let mut captures = Vec::new();
    for _ in 0..reps {
        out.attempted += 1;
        let (result, cap) = capture(|| op(spec));
        if result.as_ref() != Ok(&text) {
            out.fail("traced verify output differs from the untraced one");
        }
        captures.push(cap);
    }
    let op_ms = median(&captures.iter().map(|c| c.wall_ms).collect::<Vec<_>>());
    out.layer("trace.overhead_ms", op_ms - median(&untraced));
    let first = &captures[0];
    if first.attr_sum("bmc", "states") != states {
        out.fail(format!(
            "bmc spans count {} states, the certificate {states}",
            first.attr_sum("bmc", "states")
        ));
    }

    // Each verification stage called directly on the same system.
    let config = verify::VerifyConfig::default();
    let parse_ms = median_ms_of_3(|| ermesd::parse_spec(spec).expect("parses"));
    let build_ms = median_ms_of_3(|| parsed.to_system().expect("builds"));
    let (enc, encode_ms) = timed(|| verify::encode(&sys));
    let static_ms = median_ms_of_3(|| verify::static_report(&enc));
    let mut direct_states = 0;
    let ((), bmc_ms) = timed(|| {
        for component in &enc.components {
            match verify::check_component(&enc, component, config.max_states, None) {
                Ok(
                    verify::BmcOutcome::Proven { states }
                    | verify::BmcOutcome::Exhausted { states },
                ) => {
                    direct_states += states as u64;
                }
                other => out.fail(format!(
                    "direct BMC: unexpected outcome {:?}",
                    other.map(|_| ())
                )),
            }
        }
    });
    if direct_states != states {
        out.fail(format!(
            "direct BMC explored {direct_states} states, the certificate {states}"
        ));
    }
    let (cycle, induction_ms) = timed(|| verify::find_token_free_cycle(&enc));
    if cycle.is_some() {
        out.fail("direct induction found a token-free cycle in a certified design");
    }
    let (_, period_ms) = timed(|| verify::extract_period(&enc, config.max_events, None));
    let lowered = sysgraph::lower_to_tmg(&sys);
    let lower_ms = median_ms_of_3(|| sysgraph::lower_to_tmg(&sys));
    let deadlock_ms = median_ms_of_3(|| tmg::find_token_free_cycle(lowered.tmg()));
    let howard_ms = first.ms("howard");
    let scc_ms = (first.ms("analysis") - howard_ms - deadlock_ms).max(0.0);

    out.layer("spec.parse_ms", parse_ms);
    out.layer("design.build_ms", build_ms);
    out.layer("lower.ms", lower_ms);
    out.layer("deadlock.ms", deadlock_ms);
    out.layer("scc.ms", scc_ms);
    out.layer(
        "scc.largest_nodes",
        first.attr_max("howard", "nodes") as f64,
    );
    out.layer("howard.ms", howard_ms);
    out.layer("howard.solves", first.count("howard") as f64);
    out.layer("howard.iters", first.attr_sum("howard", "iters") as f64);
    let stage = |name: &str| median(&captures.iter().map(|c| c.ms(name)).collect::<Vec<_>>());
    let spans = ["encode", "static", "bmc", "induction", "period"].map(stage);
    out.layer("verify.encode_ms", spans[0]);
    out.layer("verify.static_ms", spans[1]);
    out.layer("verify.bmc_ms", spans[2]);
    out.layer("verify.induction_ms", spans[3]);
    out.layer("verify.period_ms", spans[4]);
    out.layer("verify.states", states as f64);
    out.note(format!(
        "traced op p50 {op_ms:.1} ms over {} ops, untraced p50 {:.1} ms over {} ops; stages called directly: encode {encode_ms:.1} static {static_ms:.1} bmc {bmc_ms:.1} induction {induction_ms:.1} period {period_ms:.1} ms",
        captures.len(),
        median(&untraced),
        untraced.len(),
    ));
    let verify_ms: f64 = spans.iter().sum();
    layers::shares(
        out,
        op_ms,
        &[
            ("share.spec", parse_ms),
            ("share.design", build_ms),
            ("share.verify", verify_ms),
            ("share.lower", lower_ms),
            ("share.deadlock", deadlock_ms),
            ("share.scc", scc_ms),
            ("share.howard", howard_ms),
        ],
    );
}
