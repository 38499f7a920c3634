//! The untraced run: end-to-end metrics from interleaved reps.

use std::time::Instant;

use vmp_analytic::{bus_utilization, processor_performance, MissCostModel, ProcessorModel};
use vmp_core::{MachineReport, ObsConfig};
use vmp_types::PageSize;

use crate::alloc::Mark;
use crate::calib::Calibration;
use crate::inputs::{Inputs, Kind};
use crate::machine::{
    cycle_same_as, fingerprint, misses, modes, run_rep, same_as, snapshot_cycle, sweep,
};
use crate::stats::{Outcome, Samples, Scaled};

/// Extra set-ups per round: one set-up takes about a millisecond, so
/// `setup_s` needs many samples.
const SETUPS_PER_ROUND: usize = 16;
/// Share of the measured time spent in resuming snapshot cycles:
/// decoding a snapshot costs several machine runs, so every round
/// snapshots and encodes, but a round decodes and resumes only while the
/// resuming cycles have taken less than this share so far.
const RESUME_SHARE: f64 = 0.4;
/// Rounds run even when `--seconds` is already spent.
const MIN_ROUNDS: usize = 3;

const MB: f64 = 1e6;

/// Mean of the per-processor Figure 3 performance.
fn mean_performance(r: &MachineReport) -> f64 {
    r.processors.iter().map(|p| p.performance()).sum::<f64>() / r.processors.len() as f64
}

/// Measures every end-to-end metric on `inputs` for about `seconds`.
pub fn run(inputs: &Inputs, seconds: f64, out: &mut Outcome) {
    let trace = &inputs.sweep_trace.0;
    let threads = inputs.sweep_threads();

    // References: the first obs-off run and the one-thread sweep. Every
    // later rep must reproduce them exactly.
    let first = run_rep(inputs, ObsConfig::default());
    out.check("reference machine run", first.report.as_ref().err().cloned());
    let Ok(reference) = first.report else { return };
    let reference_print = fingerprint(&reference);
    let mark = Mark::new();
    let sweep_reference = sweep(trace, 1);
    let sweep_heap = mark.finish();
    let reference_misses = misses(&sweep_reference.cells);
    let cut = reference.elapsed / 2;

    let mut rates = [Scaled::default(), Scaled::default(), Scaled::default()];
    let (mut setup, mut snap_rate, mut resume_rate, mut sweep_rate) =
        (Scaled::default(), Scaled::default(), Scaled::default(), Scaled::default());
    let cal = Calibration::new();
    let mut speeds = Samples::default();
    let mut run_heap = first.heap.peak_bytes;
    let refs = inputs.machine_refs() as f64;
    let grid_refs = (trace.len() * reference_misses.len()) as f64;

    let start = Instant::now();
    let mut resume_time = 0.0;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        let (setups, speed) = cal.around(|| {
            (0..SETUPS_PER_ROUND)
                .filter_map(|_| inputs.build(ObsConfig::default()).ok())
                .map(|(_, s)| s.build_s + s.load_s)
                .collect::<Vec<_>>()
        });
        speeds.push(speed);
        for s in setups {
            setup.time(s, speed);
        }
        for (i, (mode, obs)) in modes().into_iter().enumerate() {
            let (rep, speed) = cal.around(|| run_rep(inputs, obs));
            speeds.push(speed);
            let failure = same_as(&rep.report, &reference_print);
            let ok = failure.is_none();
            out.check(&format!("machine run, obs {mode}"), failure);
            if !ok {
                continue;
            }
            rates[i].rate(refs / rep.run_s, speed);
            if i == 0 {
                setup.time(rep.setup.build_s + rep.setup.load_s, speed);
                run_heap = run_heap.max(rep.heap.peak_bytes);
            }
        }
        let resume = resume_time <= RESUME_SHARE * start.elapsed().as_secs_f64();
        let cycle_start = Instant::now();
        let cycle = snapshot_cycle(inputs, cut, &cal, resume);
        if resume {
            resume_time += cycle_start.elapsed().as_secs_f64();
        }
        let failure = cycle_same_as(&cycle, &reference_print);
        let ok = failure.is_none();
        let what = if resume { "snapshot, resume, run to the end" } else { "snapshot and encode" };
        out.check(what, failure);
        let mb = cycle.bytes as f64 / MB;
        if ok {
            for (s, e) in cycle.snapshot_s.iter().zip(&cycle.encode_s) {
                snap_rate.rate(mb / (s + e), cycle.encode_speed);
            }
            speeds.push(cycle.encode_speed);
            if resume {
                resume_rate.rate(mb / (cycle.decode_s + cycle.resume_s), cycle.resume_speed);
                speeds.push(cycle.resume_speed);
            }
        }
        let (run, speed) = cal.around(|| sweep(trace, threads));
        speeds.push(speed);
        let same = misses(&run.cells) == reference_misses;
        out.check(
            &format!("sweep on {threads} threads"),
            (!same).then(|| "miss counts differ from the one-thread sweep".to_string()),
        );
        sweep_rate.rate(grid_refs / run.wall_s, speed);
    }

    let sweep_focus = inputs.kind == Kind::Fig4Sweep;
    out.host("refs_per_s", &rates[0], "refs/s", "Machine::run, obs off");
    out.host("refs_per_s_obs", &rates[1], "refs/s", "ObsConfig::on()");
    out.host("refs_per_s_attrib", &rates[2], "refs/s", "ObsConfig::with_attrib()");
    out.host_median("setup_s", &setup, "s", "build + map_shared + set_asid + set_program");
    out.host("snapshot_mb_per_s", &snap_rate, "MB/s", "snapshot + to_bytes");
    out.host("resume_mb_per_s", &resume_rate, "MB/s", "from_bytes + resume");
    out.host("sweep_refs_per_s", &sweep_rate, "refs/s", &format!("{threads} pool threads"));
    let (heap, heap_note) = if sweep_focus {
        (sweep_heap.peak_bytes, "SweepPool::run on one thread")
    } else {
        (run_heap, "Machine::run, obs off")
    };
    out.metric("peak_heap_mb", heap as f64 / MB, "MB", heap_note);

    let perf = mean_performance(&reference);
    let util = reference.bus_utilization();
    let machine_miss = reference.total_misses() as f64 / reference.total_refs() as f64;
    out.metric("sim_performance", perf, "ratio", "S  mean ProcessorStats::performance()");
    out.metric("sim_bus_util", util, "ratio", "S  MachineReport::bus_utilization()");
    if sweep_focus {
        let (m, r) =
            sweep_reference.cells.iter().fold((0, 0), |(m, r), c| (m + c.misses, r + c.refs));
        out.metric(
            "sim_miss_ratio",
            m as f64 / r as f64,
            "ratio",
            "S  misses / refs over the 9 cells",
        );
    } else {
        out.metric("sim_miss_ratio", machine_miss, "ratio", "S  misses / refs");
    }
    print_accuracy(inputs, machine_miss, perf, util);
    println!(
        "host speed relative to the calibration's reference: p10 {:.3} median {:.3} p90 {:.3} n {}",
        speeds.quantile(0.1),
        speeds.median(),
        speeds.quantile(0.9),
        speeds.len()
    );
    println!(
        "{rounds} rounds; {} machine refs per rep; {} sweep refs per cell; {threads} sweep threads",
        inputs.machine_refs(),
        trace.len()
    );
}

/// Prints the closed-form Figure 3 and Figure 5 predictions at the
/// measured miss ratio beside the simulated values.
fn print_accuracy(inputs: &Inputs, miss: f64, perf: f64, util: f64) {
    let page = inputs.config.cache.page_size();
    let cpus = inputs.config.processors as f64;
    let model = ProcessorModel::default();
    let cost = MissCostModel::paper(page).average(0.75);
    let perf_model = processor_performance(miss, cost.elapsed, &model);
    let util_model = (cpus * bus_utilization(miss, &cost, &model)).min(1.0);
    let paper = MissCostModel::paper(PageSize::S256).average(0.75);
    let reference = processor_performance(0.0024, paper.elapsed, &model);
    println!(
        "accuracy at miss ratio {:.4}% ({page} pages, {cpus} cpus): \
         performance sim {:.4} vs Fig. 3 model {:.4} (error {:+.4}); \
         bus util sim {:.4} vs Fig. 5 model x{cpus} {:.4} (error {:+.4}); \
         reference: the paper's 87% at 0.24% with 256 B pages, model gives {:.4}",
        100.0 * miss,
        perf,
        perf_model,
        perf - perf_model,
        util,
        util_model,
        util - util_model,
        reference
    );
}
