//! The traced run: per-layer metrics.
//!
//! One machine run with `ObsConfig::with_attrib()` and rings large
//! enough to hold the whole run records the bus transactions and the
//! processor events. That recording, together with the workload's own
//! reference stream, then drives each layer's public functions, and the
//! spans below time those calls. Every metric is printed with the
//! end-to-end metric and workload it should move.

use std::hint::black_box;
use std::time::Instant;

use vmp_bus::{ActionCode, BusMonitor, BusTransaction, BusTxKind, VmeBus};
use vmp_cache::{CacheConfig, DataCache, SlotFlags, SlotId, Tag, TagArray, TagCache};
use vmp_core::{Machine, MachineReport, ObsConfig};
use vmp_obs::{AttribTable, Event, EventKind, MachineObs, PageKey};
use vmp_sim::EventQueue;
use vmp_trace::MemRef;
use vmp_types::{Asid, FrameNum, Nanos, ProcessorId, VirtAddr};

use crate::calib::Calibration;
use crate::inputs::Inputs;
use crate::machine::{cycle_same_as, fingerprint, misses, run_rep, same_as, snapshot_cycle, sweep};
use crate::stats::{Outcome, Samples};

/// Untraced attribution reps the tracing overhead is measured against.
const UNTRACED_REPS: usize = 5;
/// Replay passes run even when `--seconds` is already spent.
const MIN_REPLAYS: usize = 3;

/// One recorded bus transaction.
#[derive(Clone, Copy)]
struct Tx {
    tx: BusTransaction,
    /// When the issuer was ready for the bus.
    ready: Nanos,
    /// When the bus was granted.
    at: Nanos,
    /// Bus occupancy.
    dur: Nanos,
    aborted: bool,
}

/// What the traced machine run recorded.
struct Recording {
    /// Bus transactions in issue order.
    txs: Vec<Tx>,
    /// Every recorded event with its track (`None` for the bus).
    events: Vec<(Option<usize>, Event)>,
    /// The attribution key of each frame the transactions address.
    frame_keys: Vec<(FrameNum, PageKey)>,
}

impl Recording {
    fn take(obs: &MachineObs) -> Recording {
        let mut txs = Vec::new();
        let mut events = Vec::new();
        for e in obs.bus_events() {
            if let EventKind::BusTx { kind, frame, issuer, wait, dur, aborted } = e.kind {
                let tx = BusTransaction::new(kind, frame, issuer);
                txs.push(Tx { tx, ready: e.at.saturating_sub(wait), at: e.at, dur, aborted });
            }
            events.push((None, *e));
        }
        for cpu in 0..obs.processors() {
            events.extend(obs.cpu_events(cpu).map(|e| (Some(cpu), *e)));
        }
        let mut frames: Vec<FrameNum> = txs.iter().map(|t| t.tx.frame).collect();
        frames.sort();
        frames.dedup();
        let attrib = obs.attrib().expect("the traced run records attribution");
        let frame_keys =
            frames.into_iter().filter_map(|f| attrib.frame_key(f).map(|k| (f, k))).collect();
        Recording { txs, events, frame_keys }
    }
}

/// Host nanoseconds per operation of a timed loop.
fn ns_per_op(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `EventQueue::schedule` + `pop_if_at_or_before` pairs at a fixed depth.
fn replay_queue(depth: usize, ops: usize) -> f64 {
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.schedule(Nanos::from_ns(i as u64), i as u64);
    }
    let start = Instant::now();
    for k in 0..ops as u64 {
        let (t, e) =
            q.pop_if_at_or_before(Nanos::from_ns(u64::MAX)).expect("the queue never drains");
        q.schedule(t + Nanos::from_ns(100 + (e * 37 + k) % 64), e);
    }
    black_box(&q);
    ns_per_op(start, ops)
}

/// The cache-layer replays over one reference stream.
struct CacheReplay {
    config: CacheConfig,
    asid: Asid,
    refs: Vec<VirtAddr>,
    /// References that missed in a cold pass, in order.
    miss_stream: Vec<VirtAddr>,
    /// A tag array warmed by that pass.
    warm_tags: TagArray,
    /// A data cache warmed by that pass, and the (slot, offset) of every
    /// reference that hits in it.
    warm_data: DataCache,
    hits: Vec<(SlotId, usize)>,
}

impl CacheReplay {
    fn new(config: CacheConfig, asid: Asid, stream: &[MemRef]) -> CacheReplay {
        let page = config.page_size();
        let refs: Vec<VirtAddr> = stream.iter().map(|r| r.addr).collect();
        let mut tags = TagArray::new(config);
        let mut data = DataCache::new(config);
        let mut miss_stream = Vec::new();
        for &va in &refs {
            if tags.lookup(asid, va).is_none() {
                miss_stream.push(va);
                let tag = Tag::new(asid, page.vpn_of(va));
                tags.install(tags.victim_for(asid, va).slot, tag, SlotFlags::private_page());
            }
            if data.lookup(asid, va).is_none() {
                let slot = data.victim_for(asid, va).slot;
                let tag = Tag::new(asid, page.vpn_of(va));
                data.invalidate(slot);
                data.install(slot, tag, SlotFlags::private_page(), vec![0; page.bytes() as usize]);
            }
        }
        let hits = refs
            .iter()
            .filter_map(|&va| {
                let offset = (page.offset_of(va.raw()) & !3) as usize;
                data.probe(asid, va).map(|slot| (slot, offset))
            })
            .collect();
        CacheReplay { config, asid, refs, miss_stream, warm_tags: tags, warm_data: data, hits }
    }

    /// `TagArray::lookup` over the stream on the warmed array.
    fn lookup(&mut self) -> f64 {
        let start = Instant::now();
        let mut found = 0u64;
        for &va in &self.refs {
            found += u64::from(self.warm_tags.lookup(self.asid, va).is_some());
        }
        black_box(found);
        ns_per_op(start, self.refs.len())
    }

    /// `victim_for` + `install` on the miss stream, into a cold array
    /// (a `probe` skips pages already resident).
    fn victim(&self) -> f64 {
        let page = self.config.page_size();
        let mut tags = TagArray::new(self.config);
        let start = Instant::now();
        for &va in &self.miss_stream {
            if tags.probe(self.asid, va).is_none() {
                let slot = tags.victim_for(self.asid, va).slot;
                tags.install(slot, Tag::new(self.asid, page.vpn_of(va)), SlotFlags::private_page());
            }
        }
        black_box(&tags);
        ns_per_op(start, self.miss_stream.len())
    }

    /// One-word `DataCache::read` at every hit.
    fn read(&self) -> f64 {
        let start = Instant::now();
        let mut sum = 0u64;
        for &(slot, offset) in &self.hits {
            sum += u64::from(self.warm_data.read(slot, offset, 4)[0]);
        }
        black_box(sum);
        ns_per_op(start, self.hits.len())
    }

    /// One-word `DataCache::write` at every hit.
    fn write(&mut self) -> f64 {
        let start = Instant::now();
        for (i, &(slot, offset)) in self.hits.iter().enumerate() {
            self.warm_data.write(slot, offset, &(i as u32).to_le_bytes());
        }
        black_box(&self.warm_data);
        ns_per_op(start, self.hits.len())
    }

    /// `DataCache::invalidate` + `install` of a fresh page `Vec` on the
    /// miss stream, into a cold cache.
    fn fill(&self) -> f64 {
        let page = self.config.page_size();
        let mut data = DataCache::new(self.config);
        let start = Instant::now();
        for &va in &self.miss_stream {
            if data.probe(self.asid, va).is_none() {
                let slot = data.victim_for(self.asid, va).slot;
                black_box(data.invalidate(slot));
                let tag = Tag::new(self.asid, page.vpn_of(va));
                data.install(slot, tag, SlotFlags::private_page(), vec![0; page.bytes() as usize]);
            }
        }
        black_box(&data);
        ns_per_op(start, self.miss_stream.len())
    }
}

/// `VmeBus::reserve` over the recorded (ready, duration) pairs of the
/// completed transactions. The pruning watermark advances to the
/// earliest ready time still to come, so every reservation sees the
/// bookings it saw in the machine.
fn replay_reserve(rec: &Recording, inputs: &Inputs) -> f64 {
    let config = &inputs.config;
    let done: Vec<(Nanos, Nanos)> =
        rec.txs.iter().filter(|t| !t.aborted).map(|t| (t.ready, t.dur)).collect();
    let mut floor = vec![Nanos::ZERO; done.len()];
    let mut low = Nanos::from_ns(u64::MAX);
    for (i, &(ready, _)) in done.iter().enumerate().rev() {
        low = low.min(ready);
        floor[i] = low;
    }
    let mut bus = VmeBus::with_timings(config.cache.page_size(), config.bus, config.mem_timings);
    let start = Instant::now();
    for (&(ready, dur), &floor) in done.iter().zip(&floor) {
        bus.advance_to(floor);
        black_box(bus.reserve(ready, dur));
    }
    ns_per_op(start, done.len())
}

/// `BusMonitor::observe` of every recorded transaction at every monitor,
/// with `pop_interrupt` draining each FIFO. Between transactions the
/// action tables follow the issuer's ownership the way the miss and
/// interrupt handlers set them, so observations meet realistic codes.
fn replay_observe(rec: &Recording, inputs: &Inputs) -> f64 {
    let cpus = inputs.config.processors;
    let mut monitors: Vec<BusMonitor> =
        (0..cpus).map(|i| BusMonitor::new(ProcessorId::new(i), inputs.config.frames())).collect();
    let start = Instant::now();
    for &Tx { tx, aborted, .. } in &rec.txs {
        for m in &mut monitors {
            black_box(m.observe(&tx));
            while let Some(word) = m.pop_interrupt() {
                black_box(word);
            }
        }
        if aborted {
            continue;
        }
        let issuer = tx.issuer.index();
        let own = match tx.kind {
            BusTxKind::ReadShared => Some(ActionCode::InterruptOnOwnership),
            BusTxKind::ReadPrivate | BusTxKind::AssertOwnership => Some(ActionCode::Protect),
            BusTxKind::WriteBack => Some(ActionCode::Ignore),
            _ => None,
        };
        if let Some(code) = own {
            for (j, m) in monitors.iter_mut().enumerate() {
                if j == issuer {
                    m.table_mut().set(tx.frame, code);
                } else if code == ActionCode::Protect {
                    m.table_mut().set(tx.frame, ActionCode::Ignore);
                }
            }
        }
    }
    ns_per_op(start, rec.txs.len() * cpus)
}

/// `MachineObs::cpu_event` and `bus_event` over the recorded rings.
fn replay_recorder(rec: &Recording, config: &ObsConfig, cpus: usize) -> f64 {
    let mut obs = MachineObs::new(config, cpus);
    let start = Instant::now();
    for &(track, e) in &rec.events {
        match track {
            Some(cpu) => obs.cpu_event(cpu, e.at, e.kind),
            None => obs.bus_event(e.at, e.kind),
        }
    }
    black_box(&obs);
    ns_per_op(start, rec.events.len())
}

fn attrib_table(cpus: usize) -> AttribTable {
    let c = ObsConfig::with_attrib();
    AttribTable::new(c.attrib_window, c.attrib_ring, cpus)
}

/// `AttribTable::record_touch` over the reference stream, as processor 0.
fn replay_touch(stream: &[MemRef], inputs: &Inputs) -> f64 {
    let page = inputs.config.cache.page_size();
    let asid = inputs.asid(0);
    let mut table = attrib_table(inputs.config.processors);
    let start = Instant::now();
    for r in stream {
        let offset = page.offset_of(r.addr.raw()) as u32;
        let vpn = page.vpn_of(r.addr);
        table.record_touch(asid, vpn, 0, offset, page.bytes() as u32, r.kind.is_write());
    }
    black_box(&table);
    ns_per_op(start, stream.len())
}

/// `AttribTable::record_tx` over the recorded transactions.
fn replay_tx(rec: &Recording, cpus: usize) -> f64 {
    let mut table = attrib_table(cpus);
    for &(frame, key) in &rec.frame_keys {
        table.map_frame(frame, key.asid, key.vpn);
    }
    let start = Instant::now();
    for t in &rec.txs {
        table.record_tx(t.tx.frame, t.tx.issuer.index(), t.tx.kind, t.aborted, t.at + t.dur);
    }
    black_box(&table);
    ns_per_op(start, rec.txs.len())
}

/// One `TagCache::run` cell (the workload's cache) over the sweep trace.
fn replay_tagcache(inputs: &Inputs) -> f64 {
    let trace = &inputs.sweep_trace.0;
    let start = Instant::now();
    let stats = TagCache::new(inputs.config.cache).run(trace.iter().copied());
    black_box(stats);
    trace.len() as f64 / start.elapsed().as_secs_f64()
}

/// Measures every per-layer metric on `inputs` for about `seconds`.
pub fn run(inputs: &Inputs, seconds: f64, out: &mut Outcome) {
    let refs = inputs.machine_refs() as f64;
    let cpus = inputs.config.processors;
    let (generated, gen_s) = inputs.generated;

    let reference = run_rep(inputs, ObsConfig::default());
    out.check("reference machine run", reference.report.as_ref().err().cloned());
    let Ok(report) = &reference.report else { return };
    let print = fingerprint(report);

    let mut untraced = Samples::default();
    for _ in 0..UNTRACED_REPS {
        let rep = run_rep(inputs, ObsConfig::with_attrib());
        let failure = same_as(&rep.report, &print);
        if failure.is_none() {
            untraced.push(refs / rep.run_s);
        }
        out.check("untraced attribution run", failure);
    }
    let trace_obs = ObsConfig { ring_capacity: 4 * refs as usize, ..ObsConfig::with_attrib() };
    let traced = run_rep(inputs, trace_obs);
    out.check("traced run", same_as(&traced.report, &print));
    let Some(obs) = traced.machine.as_ref().and_then(Machine::obs) else { return };
    let rec = Recording::take(obs);

    let cut = report.elapsed / 2;
    // The per-layer times are reported as measured; the speeds go unused.
    let cycle = snapshot_cycle(inputs, cut, &Calibration::new(), true);
    out.check("snapshot, resume, run to the end", cycle_same_as(&cycle, &print));
    let trace = &inputs.sweep_trace.0;
    let threads = inputs.sweep_threads();
    let one = sweep(trace, 1);
    let pool = sweep(trace, threads);
    let same = misses(&pool.cells) == misses(&one.cells);
    out.check("sweep", (!same).then(|| "miss counts differ from one thread".to_string()));

    // Replays, repeated for the rest of the time budget.
    let stream = &inputs.streams[0].0;
    let mut caches = CacheReplay::new(inputs.config.cache, inputs.asid(0), stream);
    let mut s: [Samples; 12] = Default::default();
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_REPLAYS || start.elapsed().as_secs_f64() < seconds {
        passes += 1;
        s[0].push(replay_queue(cpus, stream.len()));
        s[1].push(caches.lookup());
        s[2].push(caches.victim());
        s[3].push(caches.read());
        s[4].push(caches.write());
        s[5].push(caches.fill());
        s[6].push(replay_tagcache(inputs));
        s[7].push(replay_reserve(&rec, inputs));
        s[8].push(replay_observe(&rec, inputs));
        s[9].push(replay_recorder(&rec, &trace_obs, cpus));
        s[10].push(replay_touch(stream, inputs));
        s[11].push(replay_tx(&rec, cpus));
    }

    let ns = "ns";
    let layer_rows: [(&str, &'static str, &str); 12] = [
        ("sim.queue.ns_per_op", ns, "-> refs_per_s on uni-atum"),
        ("cache.tag.lookup_ns", ns, "-> refs_per_s on uni-atum, sweep_refs_per_s on fig4-sweep"),
        ("cache.tag.victim_ns", ns, "-> refs_per_s on smp-share"),
        ("cache.data.read_ns", ns, "-> refs_per_s on uni-atum"),
        ("cache.data.write_ns", ns, "-> refs_per_s on uni-atum"),
        ("cache.data.fill_ns", ns, "-> refs_per_s on smp-share"),
        ("cache.tagcache.refs_per_s", "refs/s", "-> sweep_refs_per_s on fig4-sweep"),
        ("bus.vme.reserve_ns", ns, "-> refs_per_s on smp-share"),
        ("bus.monitor.observe_ns", ns, "-> refs_per_s on smp-share"),
        ("obs.recorder.event_ns", ns, "-> refs_per_s_obs on uni-atum and smp-share"),
        ("obs.attrib.touch_ns", ns, "-> refs_per_s_attrib on uni-atum"),
        ("obs.attrib.tx_ns", ns, "-> refs_per_s_attrib on smp-share"),
    ];
    println!("per-layer replays: median of {passes} passes");
    for ((name, unit, tag), samples) in layer_rows.iter().zip(&s) {
        out.layer(name, samples, unit, tag);
    }

    let setup = &reference.setup;
    out.metric("core.build_s", setup.build_s, "s", "H  -> setup_s");
    out.metric("core.load_s", setup.load_s, "s", "H  -> setup_s");
    out.metric("core.run_s", reference.run_s, "s", "H  obs off  -> refs_per_s");
    let snap_tag = "H  -> snapshot_mb_per_s and resume_mb_per_s on smp-share";
    let median = |v: &[f64]| {
        let mut s = Samples::default();
        v.iter().for_each(|&x| s.push(x));
        s.median()
    };
    out.metric("core.snapshot_s", median(&cycle.snapshot_s), "s", snap_tag);
    out.metric("core.encode_s", median(&cycle.encode_s), "s", snap_tag);
    out.metric("core.decode_s", cycle.decode_s, "s", snap_tag);
    out.metric("core.resume_s", cycle.resume_s, "s", snap_tag);
    out.metric("core.snapshot_bytes", cycle.bytes as f64, "bytes", snap_tag);
    let mut cells = Samples::default();
    pool.cell_s.iter().for_each(|&c| cells.push(c));
    let sweep_tag = "H  -> sweep_refs_per_s on fig4-sweep";
    out.metric("sweep.cell_s.median", cells.median(), "s", sweep_tag);
    out.metric("sweep.cell_s.max", cells.max(), "s", sweep_tag);
    let efficiency = cells.sum() / (threads as f64 * pool.wall_s);
    out.metric("sweep.efficiency", efficiency, "ratio", sweep_tag);
    let allocs = reference.heap.allocs as f64 / refs;
    out.metric("alloc.per_ref", allocs, "count/ref", "-> refs_per_s and peak_heap_mb on smp-share");
    out.metric(
        "trace.synth.refs_per_s",
        generated as f64 / gen_s,
        "refs/s",
        "H  AtumWorkload generation, outside every timed region",
    );
    let traced_rate = refs / traced.run_s;
    out.metric("trace.refs_per_s_attrib", traced_rate, "refs/s", "H  the traced run");
    let overhead = 1.0 - traced_rate / untraced.median();
    out.metric("trace.overhead", overhead, "ratio", "H  1 - traced / untraced refs_per_s_attrib");

    counts(report, obs, out);
}

/// The simulated counts: exact, and fixed by any change that only
/// speeds up the simulator.
fn counts(r: &MachineReport, obs: &MachineObs, out: &mut Outcome) {
    let sum = |f: fn(&vmp_core::ProcessorStats) -> u64| -> f64 {
        r.processors.iter().map(f).sum::<u64>() as f64
    };
    let tag = "S  -> sim_* metrics";
    let count = "count";
    out.metric("cache.misses", r.total_misses() as f64, count, tag);
    out.metric("cache.upgrades", sum(|p| p.upgrades), count, tag);
    out.metric("cache.writebacks", sum(|p| p.writebacks), count, tag);
    out.metric("cache.pte_misses", sum(|p| p.pte_misses), count, tag);
    for kind in BusTxKind::ALL {
        out.metric(&format!("bus.tx.{}", kind.label()), r.bus.count(kind) as f64, count, tag);
    }
    out.metric("bus.aborts", r.bus.aborts as f64, count, tag);
    let attempts = r.bus.total() + r.bus.aborts;
    let useful = if attempts == 0 { 1.0 } else { r.bus.total() as f64 / attempts as f64 };
    out.metric("bus.useful_ratio", useful, "ratio", tag);
    out.metric("bus.arb_wait_mean_ns", r.bus.mean_arb_wait().as_ns() as f64, "ns", tag);
    out.metric("bus.arb_wait_p99_ns", obs.arb_wait.percentile(0.99).as_ns() as f64, "ns", tag);
    out.metric("bus.monitor.irq_words", sum(|p| p.consistency_interrupts), count, tag);
    out.metric("bus.monitor.fifo_recoveries", sum(|p| p.fifo_recoveries), count, tag);
    out.metric("core.invalidations", sum(|p| p.invalidations), count, tag);
    out.metric("core.downgrades", sum(|p| p.downgrades), count, tag);
    out.metric("core.retries", sum(|p| p.retries), count, tag);
    let p = |h: &vmp_sim::Log2Histogram, q: f64| h.percentile(q).as_ns() as f64;
    out.metric("core.miss_service_p50_ns", p(&obs.miss_service, 0.5), "ns", tag);
    out.metric("core.miss_service_p99_ns", p(&obs.miss_service, 0.99), "ns", tag);
    out.metric("core.irq_latency_p99_ns", p(&obs.irq_latency, 0.99), "ns", tag);
    out.metric(
        "obs.ring_dropped",
        obs.total_dropped() as f64,
        count,
        "must be 0: rings hold the run",
    );
    let attrib = obs.attrib().expect("the traced run records attribution");
    out.metric("obs.attrib.pages", attrib.page_count() as f64, count, tag);
    out.metric("obs.attrib.transfers", attrib.summary().transfers as f64, count, tag);
}
