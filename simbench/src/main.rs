//! Benchmark of the VMP simulator itself.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload uni-atum --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generates the workload's inputs from the seed, measures for about
//! `--seconds`, checks every rep, and prints one line per metric
//! followed by a JSON result as the last line of standard output. With
//! `--trace 0` the metrics are the end-to-end ones (summaries over reps);
//! with `--trace 1` they are the per-layer ones from one traced run and
//! the replays it drives. See `README.md` beside this file.

mod alloc;
mod calib;
mod e2e;
mod inputs;
mod layers;
mod machine;
mod stats;

use std::process::ExitCode;

use inputs::{Inputs, Kind};
use stats::Outcome;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required (uni-atum, smp-share or fig4-sweep)")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.kind, args.seed);
    println!(
        "workload {} seed {} ({} trace): {} refs generated in {:.3} s",
        args.kind.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        inputs.generated.0,
        inputs.generated.1
    );
    let mut out = Outcome::default();
    if args.trace {
        layers::run(&inputs, args.seconds, &mut out);
    } else {
        e2e::run(&inputs, args.seconds, &mut out);
    }
    // Failed checks are reported in the result, not by the exit code.
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
