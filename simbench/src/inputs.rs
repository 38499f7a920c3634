//! The three workloads: their machine configurations and the reference
//! streams generated from the seed before any timing starts.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vmp_cache::CacheConfig;
use vmp_core::{Machine, MachineConfig, MachineError, ObsConfig, Program, TraceProgram};
use vmp_trace::synth::{AtumParams, AtumWorkload};
use vmp_trace::MemRef;
use vmp_types::{Asid, Nanos, PageSize, VirtAddr};

/// References on the single `uni-atum` processor: `UNI_SEGMENTS` ATUM
/// segments, each from its own generator seed, run back to back. One
/// generator seed fixes the hot functions and working sets for the whole
/// trace, so the miss ratio of a single 2M-ref trace spreads by 10%
/// across seeds however long it runs; five program mixes in turn cut
/// that to 6% (and raise the miss ratio from about 0.22% to 0.38%).
const UNI_REFS: usize = 2_000_000;
const UNI_SEGMENTS: u64 = 5;
/// The prefix of the `uni-atum` stream its sweep stage runs the grid
/// over: the first segment.
const UNI_SWEEP_REFS: usize = 400_000;
/// References per processor on `smp-share`.
const SMP_REFS: usize = 250_000;
/// Processors on `smp-share`.
const SMP_CPUS: usize = 4;
/// Pages mapped shared into every `smp-share` address space.
const SHARED_PAGES: u64 = 32;
const SHARED_BASE: u64 = 0x4000_0000;
/// Share of each `smp-share` stream that goes to the shared pages, and
/// share of those that are writes (the shape of `benches/sharing.rs`).
const SHARE_PROB: f64 = 0.02;
const SHARED_WRITE_PROB: f64 = 0.2;
/// The `fig4-sweep` trace, run through all nine grid cells.
const SWEEP_REFS: usize = 2_000_000;
/// The prefix of that trace the `fig4-sweep` machine stage replays.
const SWEEP_MACHINE_REFS: usize = 400_000;

/// The workloads, by their names on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One processor, prototype cache, hit-dominated.
    UniAtum,
    /// Four processors sharing 32 pages: misses, bus and consistency.
    SmpShare,
    /// The Figure 4 tag-array grid on the sweep pool.
    Fig4Sweep,
}

impl Kind {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Kind; 3] = [Kind::UniAtum, Kind::SmpShare, Kind::Fig4Sweep];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::UniAtum => "uni-atum",
            Kind::SmpShare => "smp-share",
            Kind::Fig4Sweep => "fig4-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A reference stream shared, without copying, by every rep that
/// replays it.
#[derive(Clone)]
pub struct Stream(pub Arc<[MemRef]>);

impl Stream {
    /// An iterator over the stream from its start.
    pub fn iter(&self) -> StreamIter {
        StreamIter { refs: Arc::clone(&self.0), next: 0 }
    }
}

/// Owning cursor over a [`Stream`] (a `TraceProgram` needs `'static`).
pub struct StreamIter {
    refs: Arc<[MemRef]>,
    next: usize,
}

impl Iterator for StreamIter {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        let r = self.refs.get(self.next).copied();
        self.next += 1;
        r
    }
}

/// One workload's configuration and pre-generated inputs.
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// The machine configuration, with observability off.
    pub config: MachineConfig,
    /// One reference stream per processor.
    pub streams: Vec<Stream>,
    /// The `map_shared` calls made at set-up.
    pub shared: Vec<Vec<(Asid, VirtAddr)>>,
    /// The trace the Figure 4 grid runs over.
    pub sweep_trace: Stream,
    /// References generated, and the host seconds generation took.
    pub generated: (usize, f64),
}

/// Set-up host times of one machine.
pub struct Setup {
    /// `Machine::build`.
    pub build_s: f64,
    /// `map_shared`, `set_asid` and `set_program`.
    pub load_s: f64,
}

fn atum(seed: u64, refs: usize) -> Vec<MemRef> {
    AtumWorkload::new(AtumParams::default(), seed).take(refs).collect()
}

/// Independent generator seeds for the streams of one benchmark seed.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(stream)
}

fn shared_va(page: u64) -> VirtAddr {
    VirtAddr::new(SHARED_BASE + page * PageSize::S256.bytes())
}

/// An ATUM stream for `cpu` with `SHARE_PROB` of its references moved to
/// the shared pages.
fn sharing_stream(seed: u64, cpu: usize) -> Vec<MemRef> {
    let asid = Asid::new(cpu as u8 + 1);
    let mut private = AtumWorkload::new(AtumParams::default(), stream_seed(seed, cpu as u64));
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 100 + cpu as u64));
    (0..SMP_REFS)
        .map(|_| {
            if rng.random_bool(SHARE_PROB) {
                let page = rng.random_range(0..SHARED_PAGES);
                let va = shared_va(page).add(rng.random_range(0..64u64) * 4);
                if rng.random_bool(SHARED_WRITE_PROB) {
                    MemRef::write(asid, va)
                } else {
                    MemRef::read(asid, va)
                }
            } else {
                private.next().expect("the ATUM generator is endless")
            }
        })
        .collect()
}

fn base_config(processors: usize, cache: CacheConfig, memory_bytes: u64) -> MachineConfig {
    let mut config = MachineConfig {
        processors,
        cache,
        memory_bytes,
        max_time: Nanos::from_ms(600_000),
        ..MachineConfig::default()
    };
    config.cpu.page_fault = Nanos::ZERO;
    config
}

impl Inputs {
    /// Generates the workload's inputs from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let start = Instant::now();
        let one = |refs: &[MemRef]| Stream(refs.into());
        let inputs = match kind {
            Kind::UniAtum => {
                let segment = UNI_REFS / UNI_SEGMENTS as usize;
                let trace: Vec<MemRef> =
                    (0..UNI_SEGMENTS).flat_map(|j| atum(stream_seed(seed, j), segment)).collect();
                Inputs {
                    kind,
                    config: base_config(1, CacheConfig::prototype(), 8 << 20),
                    streams: vec![one(&trace)],
                    shared: Vec::new(),
                    sweep_trace: one(&trace[..UNI_SWEEP_REFS]),
                    generated: (UNI_REFS, 0.0),
                }
            }
            Kind::SmpShare => {
                let cache = CacheConfig::new(PageSize::S256, 4, 64 * 1024).expect("valid geometry");
                let streams: Vec<Stream> =
                    (0..SMP_CPUS).map(|cpu| one(&sharing_stream(seed, cpu))).collect();
                let shared = (0..SHARED_PAGES)
                    .map(|page| {
                        (0..SMP_CPUS).map(|c| (Asid::new(c as u8 + 1), shared_va(page))).collect()
                    })
                    .collect();
                Inputs {
                    kind,
                    config: base_config(SMP_CPUS, cache, 8 << 20),
                    sweep_trace: streams[0].clone(),
                    streams,
                    shared,
                    generated: (SMP_CPUS * SMP_REFS, 0.0),
                }
            }
            Kind::Fig4Sweep => {
                let trace = atum(stream_seed(seed, 0), SWEEP_REFS);
                let cache =
                    CacheConfig::new(PageSize::S256, 4, 128 * 1024).expect("valid geometry");
                Inputs {
                    kind,
                    config: base_config(1, cache, 8 << 20),
                    streams: vec![one(&trace[..SWEEP_MACHINE_REFS])],
                    shared: Vec::new(),
                    sweep_trace: one(&trace),
                    generated: (SWEEP_REFS, 0.0),
                }
            }
        };
        Inputs { generated: (inputs.generated.0, start.elapsed().as_secs_f64()), ..inputs }
    }

    /// Pool threads for the sweep stage: `nproc` on `fig4-sweep`, one
    /// elsewhere, so the other workloads' host metrics never depend on
    /// how busy the second CPU is.
    pub fn sweep_threads(&self) -> usize {
        match self.kind {
            Kind::Fig4Sweep => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            Kind::UniAtum | Kind::SmpShare => 1,
        }
    }

    /// References the machine stage issues in one run.
    pub fn machine_refs(&self) -> u64 {
        self.streams.iter().map(|s| s.0.len() as u64).sum()
    }

    /// The ASID processor `cpu` runs under.
    pub fn asid(&self, cpu: usize) -> Asid {
        if self.shared.is_empty() {
            Asid::new(1)
        } else {
            Asid::new(cpu as u8 + 1)
        }
    }

    /// The configuration with the given observability settings.
    pub fn config_with(&self, obs: ObsConfig) -> MachineConfig {
        MachineConfig { obs, ..self.config.clone() }
    }

    /// Fresh programs, one per processor, replaying the streams.
    pub fn programs(&self) -> Vec<Option<Box<dyn Program>>> {
        self.streams
            .iter()
            .map(|s| Some(Box::new(TraceProgram::new(s.iter())) as Box<dyn Program>))
            .collect()
    }

    /// Builds and loads a machine: `Machine::build`, then `map_shared`,
    /// `set_asid` and `set_program`, timing the two halves.
    pub fn build(&self, obs: ObsConfig) -> Result<(Machine, Setup), MachineError> {
        let start = Instant::now();
        let mut m = Machine::build(self.config_with(obs))?;
        let build_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for mappings in &self.shared {
            m.map_shared(mappings)?;
        }
        for (cpu, program) in self.programs().into_iter().enumerate() {
            m.set_asid(cpu, self.asid(cpu))?;
            m.set_program_boxed(cpu, program.expect("every processor has a program"))?;
        }
        let load_s = start.elapsed().as_secs_f64();
        Ok((m, Setup { build_s, load_s }))
    }
}
