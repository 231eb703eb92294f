//! `ermesbench` — the ERMES end-to-end benchmark.
//!
//! ```text
//! ermesbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload against the program's public surfaces, from
//! spec bytes in to response bytes out, checks every response, and
//! prints report lines followed by one JSON object as the last line of
//! stdout. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the same workload with the program's span recorder on, times each
//! layer from outside, and reports the per-layer metrics instead.
//!
//! Workloads: `sweep-mpeg2`, `sweep-soc10k`, `session-soc10k`,
//! `verify-soc256` (see `BENCHMARK.json` for why each exists).
//!
//! Internal subcommands (spawned by the benchmark itself):
//! `ermesbench gen <workload> <seed>` writes the seeded inputs to stdout;
//! `ermesbench part <workload> <seconds> <setup> <start>` runs one worker
//! process of a sweep or verify run (inputs on stdin);
//! `ermesbench serve <max-body-bytes>` runs the analysis daemon.

mod http;
mod inputs;
mod layers;
mod parts;
mod session;
mod sweep;
mod util;
mod verify;

use util::Outcome;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SweepMpeg2,
    SweepSoc10k,
    SessionSoc10k,
    VerifySoc256,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SweepMpeg2,
        Workload::SweepSoc10k,
        Workload::SessionSoc10k,
        Workload::VerifySoc256,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepMpeg2 => "sweep-mpeg2",
            Workload::SweepSoc10k => "sweep-soc10k",
            Workload::SessionSoc10k => "session-soc10k",
            Workload::VerifySoc256 => "verify-soc256",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

const USAGE: &str =
    "usage: ermesbench --workload <sweep-mpeg2|sweep-soc10k|session-soc10k|verify-soc256> --seed <n> --seconds <s> --trace <0|1>";

fn die(msg: &str) -> ! {
    eprintln!("ermesbench: {msg}");
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            let workload = args.get(1).and_then(|w| Workload::parse(w));
            let seed = args.get(2).and_then(|s| s.parse().ok());
            match (workload, seed) {
                (Some(w), Some(s)) => inputs::generate(w, s),
                _ => die("usage: ermesbench gen <workload> <seed>"),
            }
            return;
        }
        Some("part") => {
            let workload = args.get(1).and_then(|w| Workload::parse(w));
            let numbers: Vec<f64> = args[2..].iter().filter_map(|a| a.parse().ok()).collect();
            let op: parts::Op = match workload {
                Some(Workload::SweepMpeg2 | Workload::SweepSoc10k) => sweep::part_op,
                Some(Workload::VerifySoc256) => verify::part_op,
                _ => die(
                    "usage: ermesbench part <sweep or verify workload> <seconds> <setup> <start>",
                ),
            };
            match numbers.as_slice() {
                &[seconds, setup, start] => {
                    parts::serve(op, seconds, setup as usize, start as usize)
                }
                _ => die("usage: ermesbench part <workload> <seconds> <setup> <start>"),
            }
            return;
        }
        Some("serve") => {
            let cap = args.get(1).and_then(|c| c.parse().ok());
            session::serve(cap.unwrap_or_else(|| die("usage: ermesbench serve <max-body-bytes>")));
            return;
        }
        _ => {}
    }

    let workload = flag(&args, "--workload")
        .map(|w| {
            Workload::parse(w).unwrap_or_else(|| die(&format!("unknown workload `{w}`\n{USAGE}")))
        })
        .unwrap_or_else(|| die(USAGE));
    let seed: u64 = flag(&args, "--seed")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| die("--seed must be an unsigned integer"))
        })
        .unwrap_or_else(|| die(USAGE));
    let seconds: f64 = flag(&args, "--seconds")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| die("--seconds must be a number"))
        })
        .unwrap_or_else(|| die(USAGE));
    let traced = match flag(&args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => die("--trace must be 0 or 1"),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        die("--seconds must be in (0, 600]");
    }

    let inputs = inputs::load(workload, seed).unwrap_or_else(|e| die(&e));
    let mut out = Outcome::default();
    out.note(format!(
        "workload {} seed {seed} seconds {seconds} trace {} (available parallelism {})",
        workload.name(),
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    for line in &inputs.census {
        out.note(line.clone());
    }
    match workload {
        Workload::SweepMpeg2 | Workload::SweepSoc10k => {
            sweep::run(workload, &inputs, seconds, traced, &mut out)
        }
        Workload::SessionSoc10k => session::run(&inputs, seed, seconds, traced, &mut out),
        Workload::VerifySoc256 => verify::run(&inputs, seconds, traced, &mut out),
    }
    if traced {
        layers::finish(&mut out);
    }
    out.print();
}
