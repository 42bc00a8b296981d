//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sweep-daily|serve-read|write-mixed> --seed N \
//!           --seconds S --trace <0|1> --osn <path to osn> --work <dir>
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds
//! `osn` and this binary first. Every workload uses the same input: a
//! `small`-growth trace over 771 days with its node count reduced to
//! [`TRACE_NODES`], generated from the fixed [`TRACE_SEED`]. The
//! workload seed drives what varies between runs: the sweep's sampler
//! seed and the request mixes. See `BENCHMARK.json` for what each
//! workload is for.

mod client;
mod procs;
mod serve;
mod sweep;
mod write;

use osn_genstream::{TraceConfig, TraceGenerator};
use osn_graph::EventLog;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed of the generated trace (the `osn generate` default).
pub const TRACE_SEED: u64 = 42;
/// Final node count of the generated trace, reduced from `small`'s 8,000
/// so one stride-1 sweep takes seconds.
pub const TRACE_NODES: u32 = 1_000;

/// The workload trace: `small` growth over 771 days, [`TRACE_NODES`]
/// nodes, merge included.
pub fn trace_log() -> EventLog {
    let mut cfg = TraceConfig::small();
    cfg.seed = TRACE_SEED;
    cfg.growth.final_nodes = TRACE_NODES;
    TraceGenerator::new(cfg).generate()
}

/// The trace serialised to v2, as `osn generate` writes it.
pub fn v2_bytes(log: &EventLog) -> Vec<u8> {
    let mut out = Vec::new();
    osn_graph::io::write_log_v2(log, &mut out).expect("serialise to memory");
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    osn: Option<PathBuf>,
    work: PathBuf,
    child_sweep: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        traced: false,
        osn: None,
        work: PathBuf::from(".bench_build/perfbench-work"),
        child_sweep: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.traced = value()? == "1",
            "--osn" => args.osn = Some(PathBuf::from(value()?)),
            "--work" => args.work = PathBuf::from(value()?),
            "--child-sweep" => args.child_sweep = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(trace) = &args.child_sweep {
        return sweep::child(trace, args.seed, args.seconds, args.traced);
    }
    let needs_osn = args.workload != "sweep-daily";
    let osn = match (&args.osn, needs_osn) {
        (Some(p), _) => p.clone(),
        (None, false) => PathBuf::new(),
        (None, true) => {
            eprintln!("perfbench: --osn is required for {}", args.workload);
            return ExitCode::from(2);
        }
    };
    let work = args.work.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let log = trace_log();
    let code = match args.workload.as_str() {
        "sweep-daily" => sweep::run(&work, &v2_bytes(&log), args.seed, args.seconds, args.traced),
        "serve-read" => serve::run(&osn, &work, &log, args.seed, args.seconds, args.traced),
        "write-mixed" => write::run(&osn, &work, &log, args.seed, args.seconds, args.traced),
        other => {
            eprintln!("perfbench: unknown workload '{other}' (sweep-daily|serve-read|write-mixed)");
            ExitCode::from(2)
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    code
}
