//! LSGraph benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|trickle> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed` before
//! any timing starts; each workload's main loop then runs for `--seconds`.
//! Stdout carries a provenance line, a detail line (sample counts, failed
//! operations and checks, measured metrics outside the printed set) and,
//! last, the result line: `correct`, `attempted`, `failed` and
//! the metrics — end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. A traced run also writes its spans to
//! `.bench_out/trace-<workload>-<seed>.json`. The exit code is nonzero when a
//! correctness check or an operation failed.

mod engine;
mod ingest;
mod report;
mod stats;
mod trace;
mod trickle;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{json_str, Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["ingest", "trickle"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (ingest, trickle)"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let sep = f.iter().position(|&x| x == "-")?;
            Some((PathBuf::from(f.get(4)?), f.get(sep + 1)?.to_string()))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.as_os_str().len())
        .map_or("unknown".into(), |(_, t)| t)
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// Workload facts that interpreting its numbers needs.
pub struct Profile {
    pub client_threads: usize,
    pub flush_policy: &'static str,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let profile = match args.workload.as_str() {
        "ingest" => ingest::PROFILE,
        _ => trickle::PROFILE,
    };
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"rayon_threads\": {}, \"client_threads\": {}, \"flush_policy\": {}, \"git_revision\": {}, \"profile\": {}, \"store_fs\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds.as_secs_f64(),
        args.trace,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        rayon::current_num_threads(),
        profile.client_threads,
        json_str(profile.flush_policy),
        json_str(&git_revision()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&fs_type(&out_dir)),
    );

    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    match args.workload.as_str() {
        "ingest" => ingest::run(&args, &mut out, &mut tr),
        _ => trickle::run(&args, &mut out, &mut tr),
    }
    if args.trace {
        out.set("trace.spans", tr.spans().len() as f64);
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = tr.write_json(&path) {
            out.check(false, || format!("writing {}: {e}", path.display()));
        }
    }

    let catalogue = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let entries = |m: Vec<(&str, String)>| -> String {
        let e: Vec<String> = m
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        e.join(", ")
    };
    let samples = entries(
        out.samples
            .iter()
            .map(|(k, v)| (*k, v.to_string()))
            .collect(),
    );
    let failures = entries(
        out.failures
            .iter()
            .map(|(k, v)| (*k, v.to_string()))
            .collect(),
    );
    let also = entries(
        out.metrics
            .iter()
            .filter(|(k, _)| !catalogue.iter().any(|(name, _)| name == *k))
            .map(|(k, v)| (*k, v.to_string()))
            .collect(),
    );
    let checks: Vec<String> = out.check_failures.iter().map(|c| json_str(c)).collect();
    println!(
        "{{\"detail\": {{\"samples\": {{{samples}}}, \"failed_ops\": {{{failures}}}, \"check_failures\": [{}], \"also_measured\": {{{also}}}}}}}",
        checks.join(", ")
    );
    match out.result_line(catalogue) {
        Ok(line) => {
            println!("{line}");
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
