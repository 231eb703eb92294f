//! `session-soc10k`: the daemon runs in its own process with 2 workers.
//! Set-up opens a session on the ordered soc:10k spec; then one
//! closed-loop client on one keep-alive connection alternates the
//! *editor*'s seeded `reselect` edits to `/session/{id}/edit` with the
//! *reader*'s `/analyze` of the ordered soc:1k spec.

use crate::http::Conn;
use crate::inputs::Inputs;
use crate::layers::{self, capture};
use crate::sweep::report_latency;
use crate::util::{median, median_ms_of_3, ms_since, peak_rss_mib, timed, Outcome, Rng};
use ermesd::{Server, ServerConfig, SystemSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Daemon processes per run; each start (with its session open) is one
/// `setup_s` sample, and each serves a third of the timed window.
const DAEMONS: usize = 3;
/// Length of each daemon's seeded edit sequence (it wraps if a run gets
/// further).
const EDITS: usize = 4096;
/// The client sends this many edits, then one read.
const EDITS_PER_READ: usize = 3;
/// Every this many edits, one response is kept for the post-run check.
const SAMPLE_EVERY: usize = 32;
/// At most this many edit responses are checked against a from-scratch
/// analysis of the client-side mirror spec.
const MAX_SAMPLES: usize = 3;
/// Edits the traced run replays in process (a fixed count, so the summed
/// counters repeat exactly between runs).
const REPLAYED_EDITS: usize = 48;

/// The `serve` subcommand: the analysis daemon with two workers. Prints
/// its address, serves until `POST /shutdown`, then prints its
/// resident-set peak. It also exits when its stdin closes, so a
/// benchmark process that dies without shutting it down takes it along.
pub fn serve(max_body_bytes: usize) {
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(1);
    });
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_body_bytes,
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("ermesbench serve: bind: {e}");
        std::process::exit(1);
    });
    println!("listening {}", server.addr());
    let _ = std::io::stdout().flush();
    let result = server.run();
    println!("peak_rss_mib {}", peak_rss_mib());
    if let Err(e) = result {
        eprintln!("ermesbench serve: {e}");
        std::process::exit(1);
    }
}

/// A daemon child process; killed and reaped if dropped while running.
struct Daemon {
    child: Option<Child>,
    /// Held open for the daemon's lifetime (see [`serve`]).
    _stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn start(max_body_bytes: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve", &max_body_bytes.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child: Some(child),
            _stdin: stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        let _ = daemon.stdout.read_line(&mut line);
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not report its address (`{}`)", line.trim()))?;
        Ok(daemon)
    }

    /// Drains the daemon and returns its resident-set peak in MiB.
    fn stop(mut self) -> Result<f64, String> {
        let reply = Conn::open(self.addr)
            .and_then(|mut c| c.request("POST", "/shutdown", b""))
            .map_err(|e| format!("shutdown: {e}"))?;
        if reply.status != 200 {
            return Err(format!("shutdown: status {}", reply.status));
        }
        let mut peak = None;
        let mut line = String::new();
        while self
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            > 0
        {
            if let Some(v) = line.trim().strip_prefix("peak_rss_mib ") {
                peak = v.parse().ok();
            }
            line.clear();
        }
        let status = self
            .child
            .take()
            .expect("running until stopped")
            .wait()
            .map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        peak.ok_or_else(|| "daemon did not report its peak".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One seeded reselect edit of the session's design.
struct Edit {
    process: usize,
    point: usize,
    body: String,
}

/// The seeded edit sequence of daemon `daemon`: each edit picks a
/// multi-point process and moves it to a point of different latency, so
/// every edit is a real write that reprices the component holding that
/// process. Every daemon opens a fresh session and gets a sequence of its
/// own, so a run's edits are all distinct draws.
fn edit_sequence(spec: &SystemSpec, seed: u64, daemon: usize) -> Vec<Edit> {
    let mut rng = Rng::new(seed ^ 0xED17_5EED_0000_0002 ^ ((daemon as u64 + 1) << 56));
    let mut latency: Vec<u64> = spec.processes.iter().map(|p| p.latency).collect();
    let movable: Vec<usize> = (0..spec.processes.len())
        .filter(|&i| {
            let points = spec.processes[i].pareto.as_deref().unwrap_or(&[]);
            points.iter().any(|q| q.latency != points[0].latency)
        })
        .collect();
    assert!(
        !movable.is_empty(),
        "the session design has no multi-point process"
    );
    (0..EDITS)
        .map(|_| {
            let process = movable[rng.below(movable.len())];
            let points = spec.processes[process].pareto.as_deref().expect("movable");
            let other: Vec<usize> = (0..points.len())
                .filter(|&i| points[i].latency != latency[process])
                .collect();
            let point = other[rng.below(other.len())];
            latency[process] = points[point].latency;
            let body = format!(
                r#"{{"reselect": {{"process": "{}", "point": {point}}}}}"#,
                spec.processes[process].name
            );
            Edit {
                process,
                point,
                body,
            }
        })
        .collect()
}

fn apply(mirror: &mut SystemSpec, edit: &Edit) {
    let p = &mut mirror.processes[edit.process];
    p.latency = p.pareto.as_ref().expect("movable")[edit.point].latency;
}

/// Starts a daemon and opens the session: `(daemon, edit path, open body)`.
fn open(spec: &str, max_body_bytes: usize) -> Result<(Daemon, String, Vec<u8>), String> {
    let daemon = Daemon::start(max_body_bytes)?;
    let reply = Conn::open(daemon.addr)
        .and_then(|mut c| c.request("POST", "/session", spec.as_bytes()))
        .map_err(|e| format!("open session: {e}"))?;
    if reply.status != 200 {
        return Err(format!("open session: status {}", reply.status));
    }
    let path = reply
        .header("x-ermes-session")
        .map(|id| format!("/session/{id}/edit"))
        .ok_or("open session: no x-ermes-session header")?;
    Ok((daemon, path, reply.body))
}

/// What the client saw in one timed window.
#[derive(Default)]
struct Window {
    edit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    /// `(edit index, response body)` kept for the post-run check.
    samples: Vec<(usize, Vec<u8>)>,
    errors: Vec<String>,
    window_s: f64,
}

/// Runs the editor and the reader for `seconds`, closed-loop from one
/// thread on one keep-alive connection: every [`EDITS_PER_READ`] edits
/// are followed by a read, so the daemon serves both kinds of request from its shared worker pool
/// but never two at once. Two concurrent clients on a two-core host time
/// the scheduler's interleaving as much as the daemon.
fn drive(
    addr: SocketAddr,
    edit_path: &str,
    edits: &[Edit],
    reader_body: &[u8],
    reader_ref: &[u8],
    seconds: f64,
) -> Window {
    let start = Instant::now();
    let mut w = Window::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            w.errors.push(format!("connect: {e}"));
            return w;
        }
    };
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let edit = &edits[i % edits.len()];
        let t = Instant::now();
        match conn.request("POST", edit_path, edit.body.as_bytes()) {
            Ok(reply) if reply.status == 200 => {
                w.edit_ms.push(ms_since(t));
                if i % SAMPLE_EVERY == 0 && w.samples.len() < MAX_SAMPLES {
                    w.samples.push((i, reply.body));
                }
            }
            Ok(reply) => w.errors.push(format!("edit {i}: status {}", reply.status)),
            Err(e) => {
                w.errors.push(format!("edit {i}: {e}"));
                break;
            }
        }
        i += 1;
        if i % EDITS_PER_READ != 0 {
            continue;
        }
        let t = Instant::now();
        match conn.request("POST", "/analyze", reader_body) {
            Ok(reply) if reply.status == 200 && reply.body == reader_ref => {
                w.read_ms.push(ms_since(t));
            }
            Ok(reply) if reply.status == 200 => {
                w.errors
                    .push("read: body differs from the in-process analysis".into());
            }
            Ok(reply) => w.errors.push(format!("read: status {}", reply.status)),
            Err(e) => {
                w.errors.push(format!("read: {e}"));
                break;
            }
        }
    }
    w.window_s = start.elapsed().as_secs_f64();
    w
}

/// Byte-compares the open response and each kept edit response with a
/// from-scratch `cmd_analyze` of the client-side mirror spec.
fn check_edits(
    initial: &SystemSpec,
    edits: &[Edit],
    open_body: &[u8],
    samples: &[(usize, Vec<u8>)],
    out: &mut Outcome,
) {
    let mut mirror = initial.clone();
    let compare = |what: String, mirror: &SystemSpec, served: &[u8], out: &mut Outcome| {
        out.attempted += 1;
        match ermesd::cmd_analyze(mirror) {
            Ok(scratch) if scratch.as_bytes() == served => {}
            Ok(_) => out.fail(format!(
                "{what}: response differs from a from-scratch analysis"
            )),
            Err(e) => out.fail(format!("{what}: mirror analysis: {e}")),
        }
    };
    compare("open".into(), &mirror, open_body, out);
    let mut next = 0;
    for (index, body) in samples {
        while next <= *index {
            apply(&mut mirror, &edits[next % edits.len()]);
            next += 1;
        }
        compare(format!("edit {index}"), &mirror, body, out);
    }
}

pub fn run(inputs: &Inputs, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let spec = inputs.spec.as_str();
    let reader_body = inputs
        .reader_spec
        .as_deref()
        .expect("the session workload has a reader spec");
    let before = peak_rss_mib();
    let initial = SystemSpec::from_json(spec).expect("the generated spec parses");
    if traced {
        out.layer("spec.parse_peak_mib", peak_rss_mib() - before);
    }
    let reader_ref = ermesd::parse_spec(reader_body)
        .and_then(|s| ermesd::cmd_analyze(&s))
        .expect("the reader spec analyzes")
        .into_bytes();
    let max_body_bytes = 2 * spec.len().max(reader_body.len());

    // Per-process speed differs on a shared host while staying steady
    // within a process, so every set-up starts a daemon of its own and
    // each daemon serves an equal slice of the timed window; the run pools
    // their samples. The traced run uses one daemon for one slice.
    let daemons = if traced { 1 } else { DAEMONS };
    let mut setup = Vec::new();
    let mut w = Window::default();
    let mut peak = 0.0f64;
    let mut first_edits = Vec::new();
    for d in 0..daemons {
        let edits = edit_sequence(&initial, seed, d);
        let t = Instant::now();
        out.attempted += 1;
        let (daemon, edit_path, open_body) = match open(spec, max_body_bytes) {
            Ok(opened) => opened,
            Err(e) => return out.fail(e),
        };
        setup.push(t.elapsed().as_secs_f64());

        // The reader's first request fills the daemon's cache; untimed.
        out.attempted += 1;
        match Conn::open(daemon.addr)
            .and_then(|mut c| c.request("POST", "/analyze", reader_body.as_bytes()))
        {
            Ok(r) if r.status == 200 && r.body == reader_ref => {}
            Ok(r) => out.fail(format!(
                "reader warm-up: status {} or body mismatch",
                r.status
            )),
            Err(e) => out.fail(format!("reader warm-up: {e}")),
        }

        let slice = drive(
            daemon.addr,
            &edit_path,
            &edits,
            reader_body.as_bytes(),
            &reader_ref,
            seconds / DAEMONS as f64,
        );
        match daemon.stop() {
            Ok(p) => peak = peak.max(p),
            Err(e) => out.fail(e),
        }
        out.attempted += (slice.edit_ms.len() + slice.read_ms.len() + slice.errors.len()) as u64;
        for e in &slice.errors {
            out.fail(e.clone());
        }
        check_edits(&initial, &edits, &open_body, &slice.samples, out);
        if d == 0 {
            first_edits = edits;
        }
        w.edit_ms.extend(slice.edit_ms);
        w.read_ms.extend(slice.read_ms);
        w.samples.extend(slice.samples);
        w.window_s += slice.window_s;
    }
    report_latency(out, "op_ms (edit)", &w.edit_ms);
    report_latency(out, "read_ms (analyze soc:1k)", &w.read_ms);
    let busy = |xs: &[f64]| xs.iter().sum::<f64>() / 1e3;
    out.note(format!(
        "edit vs read split: {} edits ({:.2} s busy), {} reads ({:.2} s busy) in {:.2} s; {} edit responses checked",
        w.edit_ms.len(),
        busy(&w.edit_ms),
        w.read_ms.len(),
        busy(&w.read_ms),
        w.window_s,
        w.samples.len()
    ));
    if w.edit_ms.is_empty() || w.read_ms.is_empty() {
        out.fail("a client completed no operation");
        return;
    }
    if traced {
        return in_process_layers(spec, &initial, &first_edits, &w, reader_body, out);
    }
    out.metric("setup_s", median(&setup), "s");
    out.metric("op_ms_p50", median(&w.edit_ms), "ms");
    out.metric(
        "ops_per_s",
        (w.edit_ms.len() + w.read_ms.len()) as f64 / w.window_s,
        "1/s",
    );
    out.metric("peak_rss_mib", peak, "MiB");
}

/// The traced run's in-process half: the same edits and reads without
/// HTTP, layer by layer, after the daemon has stopped.
fn in_process_layers(
    spec: &str,
    initial: &SystemSpec,
    edits: &[Edit],
    w: &Window,
    reader_body: &str,
    out: &mut Outcome,
) {
    let parse_ms = median_ms_of_3(|| ermesd::parse_spec(spec).expect("parses"));
    let design = initial.to_design().expect("the generated spec builds");
    let build_ms = median_ms_of_3(|| initial.to_design().expect("builds"));
    let lowered = sysgraph::lower_to_tmg(design.system());
    let lower_ms = median_ms_of_3(|| sysgraph::lower_to_tmg(design.system()));
    let deadlock_ms = median_ms_of_3(|| tmg::find_token_free_cycle(lowered.tmg()));
    drop(lowered);

    // The client's edits, replayed in order on two sessions in lockstep:
    // one plain, one traced, alternating which goes first.
    let k = REPLAYED_EDITS;
    let reselect = |st: &mut ermes::DeltaState, e: &Edit| {
        let p = sysgraph::ProcessId::from_index(e.process);
        st.reselect(p, e.point, None)
            .map(|_| ())
            .and_then(|()| st.refresh(None).map(|_| ()))
    };
    let mut plain = ermes::DeltaState::open(design.clone());
    let mut traced = ermes::DeltaState::open(design);
    let (mut reselect_ms, mut render_ms, mut command_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ms, mut reprice_ms, mut howard_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut solves, mut iters, mut largest) = (0u64, 0u64, 0u64);
    for (i, e) in edits.iter().take(k).enumerate() {
        let mut run_plain = |out: &mut Outcome| {
            out.attempted += 1;
            let (r, ms) = timed(|| reselect(&mut plain, e));
            let (body, render) = timed(|| ermesd::render_session_report(&plain));
            if let Err(err) = r {
                out.fail(format!("in-process edit {i}: {err}"));
            }
            if let Some((_, served)) = w.samples.iter().find(|(j, _)| *j == i) {
                if body.as_bytes() != served.as_slice() {
                    out.fail(format!(
                        "in-process edit {i} renders different bytes than the daemon served"
                    ));
                }
            }
            reselect_ms.push(ms);
            render_ms.push(render);
            command_ms.push(ms + render);
        };
        let mut run_traced = |out: &mut Outcome| {
            let (r, cap) = capture(|| reselect(&mut traced, e));
            if let Err(err) = r {
                out.fail(format!("traced in-process edit {i}: {err}"));
            }
            traced_ms.push(cap.wall_ms);
            reprice_ms.push(cap.ms("reprice"));
            howard_ms.push(cap.ms("howard"));
            solves += cap.count("howard");
            iters += cap.attr_sum("howard", "iters");
            largest = largest.max(cap.attr_max("howard", "nodes"));
        };
        if i % 2 == 0 {
            run_plain(out);
            run_traced(out);
        } else {
            run_traced(out);
            run_plain(out);
        }
    }
    drop((plain, traced));
    let howard_per_edit = median(&howard_ms);
    let per = |x: f64| x / k as f64;

    // The reader's command in process: what `/analyze` runs on a warm cache.
    let cache = ermes::EngineCache::new();
    let read = || -> Result<String, ermesd::CliError> {
        let s = ermesd::parse_spec(reader_body)?;
        s.to_design()?;
        std::hint::black_box(s.to_json_pretty());
        ermesd::cmd_analyze_cached(&s, &cache)
    };
    let _ = read();
    let read_ms: Vec<f64> = (0..8).map(|_| timed(read).1).collect();

    let edit_p50 = median(&w.edit_ms);
    let read_p50 = median(&w.read_ms);
    let http_ms = edit_p50 - median(&command_ms);
    out.layer("spec.parse_ms", parse_ms);
    out.layer("design.build_ms", build_ms);
    out.layer("lower.ms", lower_ms);
    out.layer("deadlock.ms", deadlock_ms);
    out.layer("scc.largest_nodes", largest as f64);
    out.layer("howard.ms", howard_per_edit);
    out.layer("howard.solves", per(solves as f64));
    out.layer("howard.iters", per(iters as f64));
    out.layer("delta.reselect_ms", median(&reselect_ms));
    out.layer("delta.reprice_ms", median(&reprice_ms));
    out.layer("render.ms", median(&render_ms));
    out.layer("http.overhead_ms", http_ms);
    out.layer("http.read_ms_p50", read_p50);
    out.layer("http.read_overhead_ms", read_p50 - median(&read_ms));
    out.layer(
        "trace.overhead_ms",
        median(&traced_ms) - median(&reselect_ms),
    );
    out.note(format!(
        "in process over the first {k} edits: reselect p50 {:.2} ms, render p50 {:.2} ms, reprice p50 {:.2} ms, Howard p50 {:.2} ms; read command p50 {:.2} ms; set-up layers per call: parse {parse_ms:.1} build {build_ms:.1} lower {lower_ms:.1} ms",
        median(&reselect_ms),
        median(&render_ms),
        median(&reprice_ms),
        howard_per_edit,
        median(&read_ms)
    ));
    // The client-side and in-process samples come from different
    // processes; share out an edit as the in-process command plus the
    // HTTP overhead when that is positive, so the shares add up to one.
    layers::shares(
        out,
        median(&command_ms) + http_ms.max(0.0),
        &[
            ("share.howard", howard_per_edit),
            (
                "share.delta",
                (median(&reselect_ms) - howard_per_edit).max(0.0),
            ),
            ("share.render", median(&render_ms)),
            ("share.http", http_ms.max(0.0)),
        ],
    );
}
