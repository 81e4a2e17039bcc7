//! The served-dictionary benchmark.
//!
//! ```text
//! perfbench --workload <direct-mixed|engine-zipf|cluster-rw> --seed <n>
//!           --seconds <s> --trace <0|1> [--inject <fault>]
//! ```
//!
//! Each workload generates its inputs from `--seed`, measures for
//! `--seconds`, checks every answer against an independent key-set model
//! and prints its metrics; the last line of standard output is one JSON
//! object. With `--trace 0` it prints the end-to-end metrics. With
//! `--trace 1` it runs the workload twice on the same inputs, plain and
//! then with timing wrappers on the layer seams, checks that the two
//! agree on every deterministic count, and prints the per-layer metrics.
//! The exit code is nonzero when any check fails. `--inject` feeds one
//! check a wrong input (see [`Inject`]); the benchmark's own tests use it
//! to show that the checks fire. See `README.md` for the workloads and
//! the metrics.

mod cluster;
mod direct;
mod engine;
mod fault;
mod layers;
mod measure;
mod model;
mod report;

use report::Report;
use std::process::ExitCode;

/// Set-ups made by an untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// A deliberately wrong input for one check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// One word of one lookup answer is flipped before it is checked.
    FlipSatellite,
    /// One miss outside a rebuild is recorded as costing 2 parallel I/Os.
    MissTwoIos,
    /// One acknowledged insert is deleted behind the model's back.
    LostWrite,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub inject: Option<Inject>,
}

impl Args {
    /// Whole seconds each of the two phases of a traced run measures.
    #[must_use]
    pub fn phase_seconds(&self) -> u64 {
        if self.trace {
            self.seconds.div_ceil(2)
        } else {
            self.seconds
        }
    }
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut inject) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            "--inject" => {
                inject = Some(match value.as_str() {
                    "flip-satellite" => Inject::FlipSatellite,
                    "miss-two-ios" => Inject::MissTwoIos,
                    "lost-write" => Inject::LostWrite,
                    _ => return Err(format!("--inject {value}: unknown fault")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        inject,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Each workload, and whether its operations cross threads.
    let (run, handoffs): (fn(&Args, &mut Report), bool) = match args.workload.as_str() {
        "direct-mixed" => (direct::run, false),
        "engine-zipf" => (engine::run, true),
        "cluster-rw" => (cluster::run, true),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "run: workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let mut report = Report::new();
    let keep_warm = handoffs.then(|| measure::KeepWarm::start(nproc.min(8)));
    run(&args, &mut report);
    drop(keep_warm);
    if report.finish(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
