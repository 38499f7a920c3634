//! The event recorder: per-track ring buffers plus derived metrics.

use std::collections::VecDeque;

use vmp_sim::Log2Histogram;
use vmp_types::Nanos;

use crate::attrib::AttribTable;
use crate::event::{Event, EventKind};
use crate::series::TimeSeries;

/// Observability configuration, carried inside the machine config.
///
/// With `enabled == false` (the default) the machine allocates no
/// recorder at all and every instrumentation site reduces to one
/// branch on a `None` option — runs are bit-identical to a build
/// without the observability layer, because recording only ever *reads*
/// simulator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether to record events and derived metrics at all.
    pub enabled: bool,
    /// Capacity of each track's event ring (one ring per processor plus
    /// one for the bus). When a ring is full the *oldest* event is
    /// overwritten and the track's drop counter increments — a wrapped
    /// ring keeps the newest events, which is what a failing run's
    /// timeline needs.
    pub ring_capacity: usize,
    /// Number of log2 buckets in each latency histogram (1..=65;
    /// 40 covers up to ~9 simulated minutes).
    pub histogram_buckets: usize,
    /// Window width for the bus-utilization and per-processor
    /// efficiency time-series.
    pub window: Nanos,
    /// Whether to also build the per-page contention attribution table
    /// ([`AttribTable`]). Off by default: attribution costs a
    /// frame-indexed lookup per tracked bus transaction and, per word
    /// access, a probe of a small per-CPU memo in front of the ordered
    /// page index (DESIGN.md §10 has the measured cost).
    pub attrib: bool,
    /// Ping-pong window: consecutive ownership transfers of a page at
    /// most this far apart chain into one episode.
    pub attrib_window: Nanos,
    /// Per-page ownership-transfer history ring capacity.
    pub attrib_ring: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            ring_capacity: 65_536,
            histogram_buckets: 40,
            window: Nanos::from_ms(1),
            attrib: false,
            attrib_window: Nanos::from_us(250),
            attrib_ring: 16,
        }
    }
}

impl ObsConfig {
    /// The default configuration with recording switched on.
    pub fn on() -> Self {
        ObsConfig { enabled: true, ..ObsConfig::default() }
    }

    /// Recording *and* contention attribution switched on.
    pub fn with_attrib() -> Self {
        ObsConfig { attrib: true, ..ObsConfig::on() }
    }

    /// Validates the parameters (used by the machine config's `check`).
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.ring_capacity == 0 {
            return Err("obs ring capacity must be non-zero".into());
        }
        if self.histogram_buckets == 0 || self.histogram_buckets > 65 {
            return Err("obs histogram buckets must be in 1..=65".into());
        }
        if self.window == Nanos::ZERO {
            return Err("obs window must be non-zero".into());
        }
        if self.attrib && self.attrib_window == Nanos::ZERO {
            return Err("obs attribution window must be non-zero".into());
        }
        Ok(())
    }
}

/// A bounded event ring that keeps the newest `capacity` events and
/// counts — never hides — what it had to discard.
#[derive(Debug, Clone)]
pub struct EventRing {
    cap: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        EventRing { cap: capacity, events: VecDeque::with_capacity(capacity.min(1024)), dropped: 0 }
    }

    /// Appends an event, evicting the oldest one when full.
    pub fn push(&mut self, event: Event) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten because the ring wrapped. The total ever
    /// recorded is `len() + dropped()`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[derive(Debug, Clone)]
struct CpuTrack {
    ring: EventRing,
    useful: TimeSeries,
    stall: TimeSeries,
    last_useful: Nanos,
    last_stall: Nanos,
}

/// All observability state for one machine: a ring per processor, a
/// ring for the bus, three latency histograms, and the windowed series.
///
/// The machine owns one of these (boxed, behind an `Option` so the
/// disabled path is a single branch) and drives it; exporters read it.
#[derive(Debug, Clone)]
pub struct MachineObs {
    /// Service time of completed top-level misses and upgrades (the
    /// stall the paper's §5 cost model prices at 17–36 µs).
    pub miss_service: Log2Histogram,
    /// Latency from an interrupt word being queued to its service
    /// beginning (the "prompt service" the consistency protocol needs).
    pub irq_latency: Log2Histogram,
    /// Ready-to-grant bus waits (arbitration plus queueing), per
    /// reservation.
    pub arb_wait: Log2Histogram,
    cpus: Vec<CpuTrack>,
    bus_ring: EventRing,
    bus_busy: TimeSeries,
    last_bus_busy: Nanos,
    window: Nanos,
    attrib: Option<Box<AttribTable>>,
}

impl MachineObs {
    /// Creates the recorder for `processors` CPU tracks.
    pub fn new(config: &ObsConfig, processors: usize) -> Self {
        let track = || CpuTrack {
            ring: EventRing::new(config.ring_capacity),
            useful: TimeSeries::new(config.window),
            stall: TimeSeries::new(config.window),
            last_useful: Nanos::ZERO,
            last_stall: Nanos::ZERO,
        };
        MachineObs {
            miss_service: Log2Histogram::new(config.histogram_buckets),
            irq_latency: Log2Histogram::new(config.histogram_buckets),
            arb_wait: Log2Histogram::new(config.histogram_buckets),
            cpus: (0..processors).map(|_| track()).collect(),
            bus_ring: EventRing::new(config.ring_capacity),
            bus_busy: TimeSeries::new(config.window),
            last_bus_busy: Nanos::ZERO,
            window: config.window,
            attrib: config.attrib.then(|| {
                Box::new(AttribTable::new(config.attrib_window, config.attrib_ring, processors))
            }),
        }
    }

    /// The contention attribution table, when enabled.
    pub fn attrib(&self) -> Option<&AttribTable> {
        self.attrib.as_deref()
    }

    /// Mutable access for the machine's instrumentation sites.
    pub fn attrib_mut(&mut self) -> Option<&mut AttribTable> {
        self.attrib.as_deref_mut()
    }

    /// Number of processor tracks.
    pub fn processors(&self) -> usize {
        self.cpus.len()
    }

    /// Window width of the time-series.
    pub fn window(&self) -> Nanos {
        self.window
    }

    /// Records an event on a processor track.
    pub fn cpu_event(&mut self, cpu: usize, at: Nanos, kind: EventKind) {
        self.cpus[cpu].ring.push(Event { at, kind });
    }

    /// Records an event on the bus track.
    pub fn bus_event(&mut self, at: Nanos, kind: EventKind) {
        self.bus_ring.push(Event { at, kind });
    }

    /// Folds a processor's cumulative useful/stall counters into the
    /// windowed series; the delta since the last sample is attributed
    /// to the window containing `now`.
    pub fn sample_cpu(&mut self, cpu: usize, now: Nanos, useful: Nanos, stall: Nanos) {
        let t = &mut self.cpus[cpu];
        t.useful.add(now, useful.saturating_sub(t.last_useful));
        t.stall.add(now, stall.saturating_sub(t.last_stall));
        t.last_useful = useful;
        t.last_stall = stall;
    }

    /// Folds the bus's cumulative busy time into the windowed series.
    pub fn sample_bus(&mut self, now: Nanos, busy: Nanos) {
        self.bus_busy.add(now, busy.saturating_sub(self.last_bus_busy));
        self.last_bus_busy = busy;
    }

    /// Events held on a processor track, oldest first.
    pub fn cpu_events(&self, cpu: usize) -> impl Iterator<Item = &Event> + '_ {
        self.cpus[cpu].ring.iter()
    }

    /// Events held on the bus track, oldest first.
    pub fn bus_events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.bus_ring.iter()
    }

    /// Events currently held on a processor track.
    pub fn cpu_recorded(&self, cpu: usize) -> u64 {
        self.cpus[cpu].ring.len() as u64
    }

    /// Events overwritten on a processor track's ring.
    pub fn cpu_dropped(&self, cpu: usize) -> u64 {
        self.cpus[cpu].ring.dropped()
    }

    /// Events currently held on the bus track.
    pub fn bus_recorded(&self) -> u64 {
        self.bus_ring.len() as u64
    }

    /// Events overwritten on the bus track's ring.
    pub fn bus_dropped(&self) -> u64 {
        self.bus_ring.dropped()
    }

    /// Total events overwritten across all rings (0 means the timeline
    /// is complete).
    pub fn total_dropped(&self) -> u64 {
        self.bus_ring.dropped() + self.cpus.iter().map(|t| t.ring.dropped()).sum::<u64>()
    }

    /// Per-window bus utilization (busy fraction of each window).
    pub fn bus_utilization(&self) -> &TimeSeries {
        &self.bus_busy
    }

    /// Per-window useful time of one processor.
    pub fn cpu_useful(&self, cpu: usize) -> &TimeSeries {
        &self.cpus[cpu].useful
    }

    /// Per-window stall time of one processor.
    pub fn cpu_stall(&self, cpu: usize) -> &TimeSeries {
        &self.cpus[cpu].stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MissCause;

    #[test]
    fn default_config_is_disabled_but_valid() {
        let c = ObsConfig::default();
        assert!(!c.enabled);
        assert!(c.validate().is_ok());
        assert!(ObsConfig::on().enabled);
        assert!(ObsConfig::on().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let mut c = ObsConfig::on();
        c.ring_capacity = 0;
        assert!(c.validate().is_err());
        let mut c = ObsConfig::on();
        c.histogram_buckets = 66;
        assert!(c.validate().is_err());
        let mut c = ObsConfig::on();
        c.window = Nanos::ZERO;
        assert!(c.validate().is_err());
        // A disabled config never rejects: the parameters are unused.
        c.enabled = false;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = EventRing::new(3);
        for i in 0..5u64 {
            r.push(Event {
                at: Nanos::from_ns(i),
                kind: EventKind::MissBegin { cause: MissCause::Read },
            });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.iter().map(|e| e.at.as_ns()).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events are evicted first");
        assert!(!r.is_empty());
    }

    #[test]
    fn sampling_accumulates_deltas() {
        let mut obs = MachineObs::new(&ObsConfig::on(), 2);
        obs.sample_cpu(0, Nanos::from_us(100), Nanos::from_us(40), Nanos::from_us(10));
        obs.sample_cpu(0, Nanos::from_us(200), Nanos::from_us(90), Nanos::from_us(30));
        // Deltas land in the window containing the sample time (1 ms
        // windows: both samples fall in window 0).
        assert_eq!(obs.cpu_useful(0).total(0), Nanos::from_us(90));
        assert_eq!(obs.cpu_stall(0).total(0), Nanos::from_us(30));
        obs.sample_bus(Nanos::from_ms(1) + Nanos::from_ns(1), Nanos::from_us(500));
        assert_eq!(obs.bus_utilization().total(1), Nanos::from_us(500));
        assert!((obs.bus_utilization().fraction(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracks_are_independent() {
        let mut obs = MachineObs::new(&ObsConfig::on(), 2);
        obs.cpu_event(0, Nanos::ZERO, EventKind::FifoOverflow);
        obs.bus_event(Nanos::ZERO, EventKind::FifoOverflow);
        assert_eq!(obs.cpu_recorded(0), 1);
        assert_eq!(obs.cpu_recorded(1), 0);
        assert_eq!(obs.bus_recorded(), 1);
        assert_eq!(obs.total_dropped(), 0);
        assert_eq!(obs.processors(), 2);
    }
}
