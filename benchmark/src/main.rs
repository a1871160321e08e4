//! `metamess-benchmark`: one run of one workload. See `benchmark/README.md`.
//!
//! ```text
//! metamess-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Prints every metric as `name value unit`, then `ops_attempted`,
//! `ops_failed`, and as the last line the result object the driver reads.

mod client;
mod layers;
mod reference;
mod report;
mod search;
mod synth;
mod trace;
mod util;
mod wrangle;

/// `crates/server/src/http.rs`, compiled a second time into this binary: the
/// server crate keeps `try_parse` private, and the traced run wants to time
/// the parser on its own. `server.parse_us` is therefore the time of this
/// copy, not of the one compiled into the server.
#[allow(dead_code, unused_imports, clippy::result_large_err)]
#[path = "../.stage/crates/server/src/http.rs"]
mod server_http;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["search-cold", "search-hot", "search-remote", "wrangle-live"];

pub struct Args {
    /// When the process started, as nearly as `main` can tell.
    pub started: Instant,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut args = Args {
        started,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from("benchmark/target/work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if args.seconds.is_nan() || args.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let started = Instant::now();
    if let Some(path) = std::env::args().skip_while(|a| a != "--check-schema").nth(1) {
        match report::check_schema(std::path::Path::new(&path)) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("metamess-benchmark: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut args = match parse_args(started) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("metamess-benchmark: {e}");
            std::process::exit(2);
        }
    };
    // One directory per process, removed on the way out.
    args.work_dir = args.work_dir.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&args.work_dir);
    std::fs::create_dir_all(&args.work_dir).expect("create the work directory");

    let report: Report = match args.workload.as_str() {
        "wrangle-live" => wrangle::run(&args),
        _ => search::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);

    let correct = report.print(args.trace);
    if !correct {
        std::process::exit(1);
    }
}
