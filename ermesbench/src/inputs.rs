//! Seeded input generation.
//!
//! Inputs are built in a child process (`ermesbench gen <workload>
//! <seed>`) so that the generator's memory — socgen graphs, Algorithm 1
//! ordering state — never counts towards the resident-set peak of the
//! process that does the measured work. The child writes a small framed
//! stream on stdout: `key value` lines, then length-prefixed spec blobs.

use crate::util::Rng;
use crate::Workload;
use ermesd::SystemSpec;
use std::io::Write;
use std::process::{Command, Stdio};

/// The MPEG-2 ladder of the E13 phase breakdown (cycles), which the
/// warm-up operations sweep. The seed draws a pool of ladders, each rung
/// jittered by up to ±2 %: selection work swings several-fold between
/// nearby targets, so one operation sweeps one ladder and a run walks
/// the pool, whose median is steady from seed to seed.
const MPEG2_LADDER: [u64; 5] = [900_000, 1_200_000, 1_500_000, 1_800_000, 2_400_000];
const MPEG2_JITTER: f64 = 0.02;
const MPEG2_POOL: usize = 512;
/// The soc:10k sweep ladder, as fractions of the ordered cycle time; the
/// seed jitters every rung by up to ±0.5 %.
const SOC10K_LADDER: [f64; 4] = [0.7, 0.8, 0.9, 1.0];
const SOC10K_JITTER: f64 = 0.005;
/// The socgen seed of the paper-scale soc:10k and soc:1k designs (the
/// ones `mkspec`, `scalecheck` and E19 use). Exploration length and
/// per-edit Howard work swing by 20-40 % between socgen seeds, which
/// would drown a change in the spread between runs, so the soc:10k
/// workloads fix their designs and take the seed in their ladder and
/// edit sequence. `verify-soc256` draws its design from the seed: its
/// work is the fixed 250k-state budget whatever the design.
const PAPER_SEED: u64 = 42;

/// Everything a workload needs, as the program will receive it.
pub struct Inputs {
    /// The primary spec's JSON bytes.
    pub spec: String,
    /// The session reader's spec (`session-soc10k` only).
    pub reader_spec: Option<String>,
    /// Sweep ladders, used in turn (sweep workloads only).
    pub ladders: Vec<Vec<u64>>,
    /// The ladder the warm-up operations sweep (sweep workloads only).
    pub warmup: Vec<u64>,
    /// Howard cycle time of the primary spec, exact (`Ratio` display).
    pub cycle_time: String,
    /// Input census lines, printed with the report.
    pub census: Vec<String>,
    /// The framed stream these inputs were parsed from, handed on to
    /// worker processes (empty in a worker).
    pub stream: Vec<u8>,
}

/// Builds one seeded design: the MPEG-2 encoder, or a socgen system of
/// `n` processes ordered with Algorithm 1.
fn design_for(n: Option<usize>, seed: u64) -> ermes::Design {
    match n {
        None => mpeg2sys::mpeg2_design().0,
        Some(n) => {
            let soc = socgen::generate(socgen::SocGenConfig::sized(n, n * 3 / 2, seed));
            let mut ordered = soc.system.clone();
            chanorder::order_channels(&soc.system)
                .ordering
                .apply_to(&mut ordered)
                .expect("Algorithm 1 orders fit their own system");
            ermes::Design::new(ordered, soc.pareto)
                .expect("socgen emits one Pareto set per process")
        }
    }
}

/// Census of one design: `(lines, exact cycle time, cycle time as f64)`.
fn census(label: &str, design: &ermes::Design, spec_bytes: usize) -> (Vec<String>, String, f64) {
    let sys = design.system();
    let points: usize = sys.process_ids().map(|p| design.pareto(p).len()).sum();
    let was = trace::enabled();
    trace::set_enabled(true);
    trace::reset();
    let verdict = tmg::analyze(sysgraph::lower_to_tmg(sys).tmg());
    let largest_scc = trace::snapshot()
        .iter()
        .filter(|r| r.name == "howard")
        .filter_map(|r| r.attr("nodes").and_then(|v| v.parse::<u64>().ok()))
        .max()
        .unwrap_or(0);
    trace::reset();
    trace::set_enabled(was);
    let ct = verdict.cycle_time().expect("benchmark designs are live");
    let lines = vec![format!(
        "census {label}: spec_bytes {spec_bytes}  processes {}  channels {}  pareto_points {points}  largest_scc_nodes {largest_scc}  cycle_time {ct} ({:.1})",
        sys.process_count(),
        sys.channel_count(),
        ct.to_f64()
    )];
    (lines, ct.to_string(), ct.to_f64())
}

/// The `gen` subcommand: writes the framed inputs of `workload` to stdout.
pub fn generate(workload: Workload, seed: u64) {
    let size = match workload {
        Workload::SweepMpeg2 => None,
        Workload::SweepSoc10k | Workload::SessionSoc10k => Some(10_000),
        Workload::VerifySoc256 => Some(256),
    };
    let design_seed = match workload {
        Workload::VerifySoc256 => seed,
        _ => PAPER_SEED,
    };
    let design = design_for(size, design_seed);
    let spec = SystemSpec::from_design(&design).to_json_pretty();
    let (mut lines, ct, ct_f64) = census(workload.name(), &design, spec.len());
    drop(design);

    let mut rng = Rng::new(seed ^ 0x7A26_E7B1_0000_0001);
    let ladders: Vec<Vec<u64>> = match workload {
        Workload::SweepMpeg2 => (0..MPEG2_POOL)
            .map(|_| {
                MPEG2_LADDER
                    .iter()
                    .map(|&t| (t as f64 * (1.0 + MPEG2_JITTER * rng.signed_unit())) as u64)
                    .collect()
            })
            .collect(),
        Workload::SweepSoc10k => vec![SOC10K_LADDER
            .iter()
            .map(|f| ((ct_f64 * f * (1.0 + SOC10K_JITTER * rng.signed_unit())) as u64).max(1))
            .collect()],
        _ => Vec::new(),
    };
    let warmup = match workload {
        Workload::SweepMpeg2 => MPEG2_LADDER.to_vec(),
        _ => ladders.first().cloned().unwrap_or_default(),
    };
    let reader = (workload == Workload::SessionSoc10k).then(|| {
        let design = design_for(Some(1_000), PAPER_SEED);
        let spec = SystemSpec::from_design(&design).to_json_pretty();
        lines.extend(census("session-reader soc:1k", &design, spec.len()).0);
        spec
    });

    let mut out = std::io::stdout().lock();
    let mut emit = || -> std::io::Result<()> {
        writeln!(out, "cycle_time {ct}")?;
        let join = |ladder: &[u64]| {
            ladder
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        for ladder in &ladders {
            writeln!(out, "ladder {}", join(ladder))?;
        }
        writeln!(out, "warmup {}", join(&warmup))?;
        for line in &lines {
            writeln!(out, "{line}")?;
        }
        for (name, blob) in [("spec", Some(&spec)), ("reader", reader.as_ref())] {
            if let Some(blob) = blob {
                writeln!(out, "blob {name} {}", blob.len())?;
                out.write_all(blob.as_bytes())?;
            }
        }
        writeln!(out, "end")?;
        out.flush()
    };
    emit().expect("stdout is writable");
}

/// Runs the `gen` child for `workload` and parses its stream.
pub fn load(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["gen", workload.name(), &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn gen: {e}"))?;
    if !out.status.success() {
        return Err(format!("input generation failed: {}", out.status));
    }
    let mut inputs = parse(&out.stdout)?;
    inputs.stream = out.stdout;
    Ok(inputs)
}

fn parse_ladder(text: &str) -> Result<Vec<u64>, String> {
    text.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().map_err(|_| format!("bad target `{t}`")))
        .collect()
}

/// Parses a framed input stream as `gen` writes it.
pub fn parse(mut bytes: &[u8]) -> Result<Inputs, String> {
    let mut inputs = Inputs {
        spec: String::new(),
        reader_spec: None,
        ladders: Vec::new(),
        warmup: Vec::new(),
        cycle_time: String::new(),
        census: Vec::new(),
        stream: Vec::new(),
    };
    loop {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("truncated input stream")?;
        let line = std::str::from_utf8(&bytes[..nl]).map_err(|_| "non-UTF-8 header")?;
        bytes = &bytes[nl + 1..];
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "end" => break,
            "cycle_time" => inputs.cycle_time = rest.to_string(),
            "ladder" => inputs.ladders.push(parse_ladder(rest)?),
            "warmup" => inputs.warmup = parse_ladder(rest)?,
            "census" => inputs.census.push(line.to_string()),
            "blob" => {
                let (name, len) = rest.split_once(' ').ok_or("bad blob header")?;
                let len: usize = len.parse().map_err(|_| "bad blob length")?;
                if len > bytes.len() {
                    return Err("truncated blob".into());
                }
                let text =
                    String::from_utf8(bytes[..len].to_vec()).map_err(|_| "non-UTF-8 spec")?;
                bytes = &bytes[len..];
                match name {
                    "spec" => inputs.spec = text,
                    _ => inputs.reader_spec = Some(text),
                }
            }
            other => return Err(format!("unknown input record `{other}`")),
        }
    }
    if inputs.spec.is_empty() {
        return Err("no spec in the input stream".into());
    }
    Ok(inputs)
}
