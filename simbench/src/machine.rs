//! Timed, checked calls into `vmp-core` and `vmp-sweep` shared by the
//! untraced and the traced run.

use std::sync::Arc;
use std::time::Instant;

use vmp_cache::{CacheConfig, CacheSimStats, TagCache};
use vmp_core::{Machine, MachineReport, MachineSnapshot, ObsConfig};
use vmp_sweep::{SweepJob, SweepPool};
use vmp_trace::MemRef;
use vmp_types::{Nanos, PageSize};

use crate::alloc::{HeapUse, Mark};
use crate::calib::Calibration;
use crate::inputs::{Inputs, Setup};

/// The three observability modes every machine rep runs in.
pub fn modes() -> [(&'static str, ObsConfig); 3] {
    [("off", ObsConfig::default()), ("obs", ObsConfig::on()), ("attrib", ObsConfig::with_attrib())]
}

/// Everything a report must reproduce: the canonical JSON of its
/// counters. Identical runs give identical strings.
pub fn fingerprint(report: &MachineReport) -> String {
    report.to_json().to_string()
}

/// One timed `Machine::run`.
pub struct Rep {
    /// Set-up host times.
    pub setup: Setup,
    /// Host seconds inside `Machine::run`.
    pub run_s: f64,
    /// Heap use of `Machine::run`.
    pub heap: HeapUse,
    /// The report, or why the rep failed.
    pub report: Result<MachineReport, String>,
    /// The machine after the run (for the traced run's recordings).
    pub machine: Option<Machine>,
}

/// Builds a machine in `obs` mode and runs it to completion, checking
/// that every reference retired and the protocol invariants hold.
pub fn run_rep(inputs: &Inputs, obs: ObsConfig) -> Rep {
    let (mut m, setup) = match inputs.build(obs) {
        Ok(built) => built,
        Err(e) => {
            return Rep {
                setup: Setup { build_s: 0.0, load_s: 0.0 },
                run_s: 0.0,
                heap: HeapUse { peak_bytes: 0, allocs: 0 },
                report: Err(format!("set-up: {e}")),
                machine: None,
            }
        }
    };
    let mark = Mark::new();
    let start = Instant::now();
    let result = m.run();
    let run_s = start.elapsed().as_secs_f64();
    let heap = mark.finish();
    let report = result.map_err(|e| format!("run: {e}")).and_then(|r| check_end(inputs, &m, r));
    Rep { setup, run_s, heap, report, machine: Some(m) }
}

/// The checks on a finished machine: refs retired equal refs issued,
/// and `Machine::validate` is clean.
fn check_end(inputs: &Inputs, m: &Machine, r: MachineReport) -> Result<MachineReport, String> {
    if r.total_refs() != inputs.machine_refs() {
        return Err(format!("{} refs retired, {} issued", r.total_refs(), inputs.machine_refs()));
    }
    m.validate().map_err(|e| format!("validate: {e}"))?;
    Ok(r)
}

/// Compares a report against the reference fingerprint.
pub fn same_as(report: &Result<MachineReport, String>, reference: &str) -> Option<String> {
    match report {
        Err(e) => Some(e.clone()),
        Ok(r) if fingerprint(r) != reference => {
            Some("report differs from the reference run".to_string())
        }
        Ok(_) => None,
    }
}

/// Snapshot-and-encode repeats per cycle: each takes milliseconds, so
/// one cycle yields several samples of them.
const ENCODES_PER_CYCLE: usize = 4;

/// Host times of one snapshot cycle.
pub struct SnapCycle {
    /// `Machine::snapshot`, one sample per repeat.
    pub snapshot_s: Vec<f64>,
    /// `MachineSnapshot::to_bytes`, one sample per repeat.
    pub encode_s: Vec<f64>,
    /// `MachineSnapshot::from_bytes`, when the cycle resumed.
    pub decode_s: f64,
    /// `Machine::resume`, when the cycle resumed.
    pub resume_s: f64,
    /// Encoded snapshot size.
    pub bytes: usize,
    /// Host speed around the snapshot-and-encode repeats.
    pub encode_speed: f64,
    /// Host speed around decoding and resuming.
    pub resume_speed: f64,
    /// The resumed machine's final report (`None` when the cycle did not
    /// resume), or why the cycle failed.
    pub report: Result<Option<MachineReport>, String>,
}

/// Runs a machine (observability off) to `cut` and snapshots and
/// encodes it `ENCODES_PER_CYCLE` times, checking that every encoding is
/// the same. With `resume`, it then decodes and resumes the bytes into a
/// fresh machine and runs that machine to the end. Only the four
/// snapshot calls are timed, each group between two measurements of
/// `cal`.
pub fn snapshot_cycle(inputs: &Inputs, cut: Nanos, cal: &Calibration, resume: bool) -> SnapCycle {
    let mut cycle = SnapCycle {
        snapshot_s: Vec::new(),
        encode_s: Vec::new(),
        decode_s: 0.0,
        resume_s: 0.0,
        bytes: 0,
        encode_speed: 0.0,
        resume_speed: 0.0,
        report: Ok(None),
    };
    let result = (|| -> Result<Option<MachineReport>, String> {
        let (mut m, _) = inputs.build(ObsConfig::default()).map_err(|e| format!("set-up: {e}"))?;
        m.run_until(cut).map_err(|e| format!("run to the cut: {e}"))?;
        let mut bytes = Vec::new();
        let before = cal.speed();
        for _ in 0..ENCODES_PER_CYCLE {
            let start = Instant::now();
            let snap = m.snapshot().map_err(|e| format!("snapshot: {e}"))?;
            cycle.snapshot_s.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let encoded = snap.to_bytes();
            cycle.encode_s.push(start.elapsed().as_secs_f64());
            if !bytes.is_empty() && encoded != bytes {
                return Err("two snapshots of one state encode differently".to_string());
            }
            bytes = encoded;
        }
        cycle.encode_speed = (before * cal.speed()).sqrt();
        cycle.bytes = bytes.len();
        if !resume {
            return Ok(None);
        }
        drop(m);
        let before = cal.speed();
        let start = Instant::now();
        let snap = MachineSnapshot::from_bytes(&bytes).map_err(|e| format!("decode: {e}"))?;
        cycle.decode_s = start.elapsed().as_secs_f64();
        let config = inputs.config_with(ObsConfig::default());
        let start = Instant::now();
        let mut resumed = Machine::resume(config, &snap, inputs.programs(), None)
            .map_err(|e| format!("resume: {e}"))?;
        cycle.resume_s = start.elapsed().as_secs_f64();
        cycle.resume_speed = (before * cal.speed()).sqrt();
        let r = resumed.run().map_err(|e| format!("resumed run: {e}"))?;
        check_end(inputs, &resumed, r).map(Some)
    })();
    cycle.report = result;
    cycle
}

/// Compares a snapshot cycle's outcome against the reference
/// fingerprint; a cycle that did not resume only has to have encoded
/// consistently.
pub fn cycle_same_as(cycle: &SnapCycle, reference: &str) -> Option<String> {
    match &cycle.report {
        Err(e) => Some(e.clone()),
        Ok(None) => None,
        Ok(Some(r)) => same_as(&Ok(r.clone()), reference),
    }
}

/// The Figure 4 grid: 64/128/256 KB × 128/256/512 B pages, 4-way.
pub fn grid() -> Vec<SweepJob<CacheConfig>> {
    [64u64, 128, 256]
        .into_iter()
        .flat_map(|kb| {
            PageSize::PROTOTYPE_SIZES.map(|page| {
                let config = CacheConfig::new(page, 4, kb * 1024).expect("valid geometry");
                SweepJob::new(format!("{kb}KB/{page}"), config)
            })
        })
        .collect()
}

/// One pool run of the grid.
pub struct SweepRun {
    /// Host seconds of `SweepPool::run`.
    pub wall_s: f64,
    /// Per-cell statistics, in grid order.
    pub cells: Vec<CacheSimStats>,
    /// Per-cell host seconds, in grid order.
    pub cell_s: Vec<f64>,
}

/// Runs the grid over `trace` on `threads` pool threads.
pub fn sweep(trace: &Arc<[MemRef]>, threads: usize) -> SweepRun {
    let start = Instant::now();
    let results = SweepPool::new().threads(threads).run(grid(), |job| {
        let start = Instant::now();
        let stats = TagCache::new(job.input).run(trace.iter().copied());
        (stats, start.elapsed().as_secs_f64())
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (cells, cell_s) = results.into_iter().unzip();
    SweepRun { wall_s, cells, cell_s }
}

/// Miss counts of a sweep, for comparing thread counts.
pub fn misses(cells: &[CacheSimStats]) -> Vec<u64> {
    cells.iter().map(|c| c.misses).collect()
}
