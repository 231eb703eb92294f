//! Worker processes for the timed window of the sweep and verify
//! workloads.
//!
//! On a shared host the speed of these memory-heavy operations differs by
//! up to a quarter from one process to the next while staying steady
//! within a process (three back-to-back soc:10k sweep processes measured
//! 2.7, 3.2 and 3.5 s per sweep, each within a few percent). A run
//! therefore splits its set-up and its timed window over `PARTS` worker
//! processes, run one after another, and pools their samples, so a
//! run's medians average several processes instead of drawing one.

use crate::inputs::{self, Inputs};
use crate::util::{timed, Outcome};
use crate::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

pub const PARTS: usize = 3;

/// One operation: `(inputs, operation index, warm-up?)` to the key its
/// output is checked under and the output.
pub type Op = fn(&Inputs, usize, bool) -> (usize, Result<String, String>);

/// The samples of every part of one run.
#[derive(Default)]
pub struct Pooled {
    pub setup_ms: Vec<f64>,
    pub lat_ms: Vec<f64>,
    /// Total seconds of the parts' timed windows.
    pub window_s: f64,
    /// The largest resident-set peak of any part.
    pub peak_mib: f64,
    /// The first output of every key, across all parts.
    pub outputs: BTreeMap<usize, String>,
}

/// The `part` subcommand: reads the framed inputs on stdin, runs `setup`
/// warm-up operations and then operations from index `start` for
/// `seconds`, and writes its samples and outputs to stdout.
pub fn serve(op: Op, seconds: f64, setup: usize, start: usize) {
    let mut stream = Vec::new();
    std::io::stdin()
        .read_to_end(&mut stream)
        .expect("stdin is readable");
    let inputs = inputs::parse(&stream).unwrap_or_else(|e| {
        eprintln!("ermesbench part: {e}");
        std::process::exit(1);
    });
    drop(stream);

    let mut report = String::new();
    let mut outputs: BTreeMap<usize, String> = BTreeMap::new();
    let mut run = |report: &mut String, index: usize, warm_up: bool| {
        let ((key, result), ms) = timed(|| op(&inputs, index, warm_up));
        let line = match result {
            Err(e) => format!("error {}", e.replace('\n', " ")),
            Ok(text) => match outputs.get(&key) {
                Some(first) if *first != text => {
                    format!("error output of key {key} differs within one process")
                }
                _ => {
                    outputs.entry(key).or_insert(text);
                    format!("{} {ms}", if warm_up { "setup" } else { "lat" })
                }
            },
        };
        let _ = writeln!(report, "{line}");
    };
    for _ in 0..setup {
        run(&mut report, 0, true);
    }
    let window = Instant::now();
    let mut index = start;
    while window.elapsed().as_secs_f64() < seconds {
        run(&mut report, index, false);
        index += 1;
    }
    let _ = writeln!(report, "window {}", window.elapsed().as_secs_f64());
    let _ = writeln!(report, "next {index}");
    let _ = writeln!(report, "peak {}", crate::util::peak_rss_mib());
    for (key, text) in &outputs {
        let _ = write!(report, "out {key} {}\n{text}", text.len());
    }
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(report.as_bytes())
        .and_then(|()| stdout.flush())
        .expect("stdout is writable");
}

/// Runs the parts of one run in turn and pools their samples; failed
/// operations and outputs that differ between parts count as failures.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    setup: usize,
    out: &mut Outcome,
) -> Result<Pooled, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut pooled = Pooled::default();
    let mut start = 0usize;
    for _ in 0..PARTS {
        let mut child = Command::new(&exe)
            .args([
                "part",
                workload.name(),
                &(seconds / PARTS as f64).to_string(),
                &setup.div_ceil(PARTS).to_string(),
                &start.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn part: {e}"))?;
        // The part reads all of stdin before it writes anything, so
        // writing first and reading after cannot deadlock.
        let written = child
            .stdin
            .take()
            .expect("stdin is piped")
            .write_all(&inputs.stream);
        let output = child
            .wait_with_output()
            .map_err(|e| format!("wait part: {e}"))?;
        written.map_err(|e| format!("feed part: {e}"))?;
        if !output.status.success() {
            return Err(format!("part exited with {}", output.status));
        }
        start = merge(&output.stdout, &mut pooled, out)?;
    }
    Ok(pooled)
}

/// Folds one part's report into `pooled`; returns its next index.
fn merge(mut bytes: &[u8], pooled: &mut Pooled, out: &mut Outcome) -> Result<usize, String> {
    let mut next = None;
    while let Some(nl) = bytes.iter().position(|&b| b == b'\n') {
        let line = std::str::from_utf8(&bytes[..nl]).map_err(|_| "non-UTF-8 part report")?;
        bytes = &bytes[nl + 1..];
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let number = || {
            rest.parse::<f64>()
                .map_err(|_| format!("bad part line `{line}`"))
        };
        match key {
            "setup" | "lat" => {
                out.attempted += 1;
                let v = if key == "setup" {
                    &mut pooled.setup_ms
                } else {
                    &mut pooled.lat_ms
                };
                v.push(number()?);
            }
            "error" => {
                out.attempted += 1;
                out.fail(rest);
            }
            "window" => pooled.window_s += number()?,
            "peak" => pooled.peak_mib = pooled.peak_mib.max(number()?),
            "next" => next = Some(number()? as usize),
            "out" => {
                let (k, len) = rest.split_once(' ').ok_or("bad out header")?;
                let k: usize = k.parse().map_err(|_| "bad out key")?;
                let len: usize = len.parse().map_err(|_| "bad out length")?;
                let text = bytes.get(..len).ok_or("truncated part output")?;
                let text = String::from_utf8(text.to_vec()).map_err(|_| "non-UTF-8 output")?;
                bytes = &bytes[len..];
                match pooled.outputs.get(&k) {
                    Some(first) if *first != text => {
                        out.fail(format!(
                            "output of key {k} differs between worker processes"
                        ));
                    }
                    Some(_) => {}
                    None => {
                        pooled.outputs.insert(k, text);
                    }
                }
            }
            other => return Err(format!("unknown part record `{other}`")),
        }
    }
    next.ok_or_else(|| "part report has no `next` record".into())
}
