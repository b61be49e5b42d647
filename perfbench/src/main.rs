//! `atscale-perfbench` — the repository benchmark.
//!
//! ```text
//! atscale-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! atscale-perfbench digests --workload NAME --seeds A-B
//! ```
//!
//! Runs one workload in this process, checks its outputs, and prints one
//! JSON line as the last line of stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. Workloads:
//!
//! - `sim-overhead-points`: 117 specs through `Harness::run_many`, one
//!   thread, two in the traced run (the paper's per-point protocol);
//! - `sim-large-footprint`: 16 specs at 16 GB and 64 GB, one thread
//!   (address-space set-up dominates);
//! - `serve-mixed`: an open-loop read/write/query mix against one
//!   `atscale-serve` daemon.
//!
//! Temporary stores live under `.perfbench/tmp/` in the working directory
//! and are removed on exit; traced runs leave their spans in
//! `.perfbench/spans-<workload>-<seed>.jsonl`. `digests` prints the record
//! digest table `expected_digests.txt` is made of.

mod calib;
mod layers;
mod report;
mod serve;
mod sim;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark's command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Parses `A-B` into an inclusive seed range.
fn parse_range(text: &str) -> Option<std::ops::RangeInclusive<u64>> {
    let (a, b) = text.split_once('-')?;
    Some(a.parse().ok()?..=b.parse().ok()?)
}

/// A temporary directory, removed when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("digests") {
        let (workload, seeds) = match raw.as_slice() {
            [_, w, name, s, range] if w == "--workload" && s == "--seeds" => {
                (name.as_str(), parse_range(range))
            }
            _ => ("", None),
        };
        let Some(seeds) = seeds.filter(|_| sim::SimWorkload::named(workload, 0).is_some()) else {
            eprintln!("usage: atscale-perfbench digests --workload SIM-WORKLOAD --seeds A-B");
            return ExitCode::from(2);
        };
        sim::print_digests(workload, seeds);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("atscale-perfbench: {e}");
            eprintln!("usage: atscale-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let base = Path::new(".perfbench");
    let tmp = TempDir(base.join("tmp").join(std::process::id().to_string()));
    let spans = base.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let outcome = if let Some(w) = sim::SimWorkload::named(&args.workload, args.seed) {
        if args.trace {
            sim::run_traced(&w, &tmp.0, &spans)
        } else {
            sim::run(&w, &args, &tmp.0)
        }
    } else if args.workload == serve::NAME {
        match serve::run(&args, &tmp.0, &spans) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("atscale-perfbench: {}: {e}", serve::NAME);
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("atscale-perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    drop(tmp);
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
