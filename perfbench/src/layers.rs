//! The traced run: one pass of each simulation job with an event sink
//! that records the trace stream, then each layer's public functions
//! replayed on the recorded inputs and timed.  Only the benchmark's own
//! calls are timed; no crate carries instrumentation for this.

use crate::metrics::DISPATCH_DOMAINS;
use crate::pins::Outputs;
use crate::report::{median, Outcome};
use crate::workload::{Fleet, Sim};
use manet::trace::{EventSink, Recorder, TraceMode};
use manet::{Event, EventKind, GridCoord, Point2, RadioMode, SimDuration, SimTime, WorldStats};
use radio::{auto_gather_threshold, ChannelState, SpatialIndex};
use runner::{ProtocolKind, RunOptions, ScenarioResult};
use sim_engine::{Scheduler, SplitMix64};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The serial world prunes channel entries this long past their end
/// before each transmission (`manet::world::CHANNEL_GC_GRACE`).
const CHANNEL_GC_GRACE: SimDuration = SimDuration(50_000_000);

/// Budget-limited calls that time the set-up of one job.
const SETUP_PROBES: usize = 5;

/// Parses timed per `.scn` text (one parse is tens of microseconds).
const PARSE_REPS: usize = 200;

/// Layer figures of one simulation job.
#[derive(Clone, Debug, Default)]
pub struct SimLayers {
    pub protocol: Option<ProtocolKind>,
    /// Simulated outputs of the untraced call.
    pub outputs: Outputs,
    /// The untraced entry call, and its set-up share.
    pub wall_s: f64,
    pub setup_s: f64,
    /// The same call with the recording sink attached.
    pub traced_wall_s: f64,
    pub parse_s: f64,
    pub build_trace_s: f64,
    pub crossing_replay_s: f64,
    pub crossings_replayed: u64,
    pub gather_replay_s: f64,
    pub carrier_sense_replay_s: f64,
    pub channel_replay_s: f64,
    pub tx_replayed: u64,
    pub meter_replay_s: f64,
    pub mode_changes: u64,
    pub record_replay_s: f64,
    pub sched_replay_s: f64,
    pub stats: WorldStats,
    pub trace_events: u64,
    pub dispatched: u64,
    pub max_queue_depth: usize,
    pub dispatch: [u64; DISPATCH_DOMAINS.len()],
}

impl SimLayers {
    pub fn replay_s(&self) -> f64 {
        self.crossing_replay_s
            + self.gather_replay_s
            + self.carrier_sense_replay_s
            + self.channel_replay_s
            + self.meter_replay_s
            + self.record_replay_s
            + self.sched_replay_s
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Seconds from the entry call to the first dispatched event: the call
/// returns as soon as its one-event budget trips.
pub fn setup_probe(sim: &Sim) -> Option<f64> {
    let t = Instant::now();
    let r = sim.run(RunOptions::digest().with_event_budget(Some(1)));
    let s = secs(t);
    r.budget_exceeded.map(|_| s)
}

/// Run `sim` untraced and traced, replay every layer, and check that the
/// replays reconcile with the run's own counters.
pub fn trace_sim(sim: &Sim, out: &mut Outcome) -> SimLayers {
    let label = sim.label();
    let mut l = SimLayers {
        protocol: Some(sim.protocol()),
        ..SimLayers::default()
    };

    let setups: Vec<f64> = (0..SETUP_PROBES).filter_map(|_| setup_probe(sim)).collect();
    if setups.len() != SETUP_PROBES {
        out.fail(format!(
            "{label}: a one-event budget did not stop the set-up probe"
        ));
    }
    l.setup_s = if setups.is_empty() { 0.0 } else { median(&setups) };

    let t = Instant::now();
    let plain = sim.run(RunOptions::digest());
    l.wall_s = secs(t);

    l.outputs = Outputs::of(&plain);
    let expected = plain.recorder.as_ref().map_or(0, |r| r.count()) as usize;
    let events: Arc<Mutex<Vec<Event>>> = Arc::new(Mutex::new(Vec::with_capacity(expected)));
    let sink_events = events.clone();
    let sink: EventSink = Arc::new(move |ev: &Event| sink_events.lock().expect("sink lock").push(*ev));
    let t = Instant::now();
    let traced = sim.run_streamed(RunOptions::digest(), sink);
    l.traced_wall_s = secs(t);
    let events = std::mem::take(&mut *events.lock().expect("sink lock"));

    check_run(&label, &plain, &traced, out);
    l.stats = traced.stats;
    if let Some(rec) = &traced.recorder {
        l.trace_events = rec.count();
        l.dispatched = rec.profile().dispatched;
        l.max_queue_depth = rec.profile().max_queue_depth;
        for (slot, (domain, _)) in l.dispatch.iter_mut().zip(DISPATCH_DOMAINS) {
            *slot = rec.profile().count(domain);
        }
    }
    if events.len() as u64 != l.trace_events {
        out.fail(format!(
            "{label}: the sink saw {} events, the recorder {}",
            events.len(),
            l.trace_events
        ));
    }

    if let Sim::Spec { text, .. } = sim {
        let t = Instant::now();
        for _ in 0..PARSE_REPS {
            black_box(scenario::parse(black_box(text)).is_ok());
        }
        l.parse_s = secs(t) / PARSE_REPS as f64;
    }
    let t = Instant::now();
    let fleet = sim.fleet();
    l.build_trace_s = secs(t);

    let inputs = Inputs::extract(&fleet, &events, &label, out);
    replay_crossings(&fleet, &inputs, &mut l);
    if l.crossings_replayed != l.stats.cell_crossings {
        out.fail(format!(
            "{label}: replayed {} cell crossings, the run counted {}",
            l.crossings_replayed, l.stats.cell_crossings
        ));
    }
    replay_gather(&fleet, &inputs, &mut l);
    replay_channel(&fleet, &inputs, &mut l);
    if l.tx_replayed != l.stats.tx_started {
        out.fail(format!(
            "{label}: replayed {} transmissions, the run started {}",
            l.tx_replayed, l.stats.tx_started
        ));
    }
    replay_meters(&fleet, &inputs, &mut l);
    let redigest = replay_record(&events, &mut l);
    if Some(redigest) != traced.trace_digest.map(|d| d.0) {
        out.fail(format!(
            "{label}: the recorded stream re-digests differently from the run"
        ));
    }
    replay_sched(&fleet, &mut l);
    l
}

/// The untraced and the traced call must describe the same run.
fn check_run(label: &str, plain: &ScenarioResult, traced: &ScenarioResult, out: &mut Outcome) {
    out.attempted += 2;
    for r in [plain, traced] {
        if let Some(b) = &r.budget_exceeded {
            out.fail(format!("{label}: watchdog tripped: {b:?}"));
        }
    }
    if plain.trace_digest.is_none() || plain.trace_digest != traced.trace_digest {
        out.fail(format!(
            "{label}: traced digest {:?} differs from untraced {:?}",
            traced.trace_digest, plain.trace_digest
        ));
    }
}

/// An operation on the receiver-gather index, in recording order.
enum IndexOp {
    Move(u32, GridCoord),
    Remove(u32),
    Gather(u32),
}

struct Tx {
    start: SimTime,
    end: SimTime,
    node: u32,
    origin: Point2,
}

/// The compact per-replay inputs, copied out of the recorded stream
/// before any timer starts.
struct Inputs {
    /// (time, node) of every `CellChange`.
    crossings: Vec<(SimTime, u32)>,
    index_ops: Vec<IndexOp>,
    txs: Vec<Tx>,
    /// (time, node, new mode) of every `RadioMode`, and deaths as `None`.
    modes: Vec<(SimTime, u32, Option<RadioMode>)>,
}

impl Inputs {
    fn extract(fleet: &Fleet, events: &[Event], label: &str, out: &mut Outcome) -> Inputs {
        let mut inputs = Inputs {
            crossings: Vec::new(),
            index_ops: Vec::new(),
            txs: Vec::new(),
            modes: Vec::new(),
        };
        let mut mismatched = 0u64;
        for ev in events {
            match ev.kind {
                EventKind::CellChange { node, to, .. } => {
                    // the rebuilt trace must put the host where the run did
                    if fleet.traces[node.index()].cell_at(&fleet.grid, ev.t) != to {
                        mismatched += 1;
                    }
                    inputs.crossings.push((ev.t, node.0));
                    inputs.index_ops.push(IndexOp::Move(node.0, to));
                }
                EventKind::NodeDeath { node } => {
                    inputs.index_ops.push(IndexOp::Remove(node.0));
                    inputs.modes.push((ev.t, node.0, None));
                }
                EventKind::MacTx { node, bytes, .. } => {
                    inputs.index_ops.push(IndexOp::Gather(node.0));
                    let airtime = SimDuration::for_bits(u64::from(bytes) * 8, fleet.mac.bandwidth_bps);
                    inputs.txs.push(Tx {
                        start: ev.t,
                        end: ev.t + airtime,
                        node: node.0,
                        origin: fleet.traces[node.index()].position_at(ev.t),
                    });
                }
                EventKind::RadioMode { node, to, .. } => inputs.modes.push((ev.t, node.0, Some(to))),
                _ => {}
            }
        }
        if mismatched > 0 {
            out.fail(format!(
                "{label}: {mismatched} recorded crossings disagree with the rebuilt mobility traces"
            ));
        }
        inputs
    }
}

/// Chebyshev cell radius a signal spans, as `World::new` computes it.
fn reach_cells(fleet: &Fleet) -> i32 {
    let max_range = fleet.ranges.iter().copied().fold(0.0_f64, f64::max);
    (max_range / fleet.grid.cell_side()).ceil() as i32 + 1
}

/// `MobilityTrace::next_cell_crossing` as the world calls it: once per
/// host at start, then 1 µs after each crossing it handles.
fn replay_crossings(fleet: &Fleet, inputs: &Inputs, l: &mut SimLayers) {
    let mut acc = 0u64;
    let t = Instant::now();
    for tr in &fleet.traces {
        if let Some((at, _)) = tr.next_cell_crossing(&fleet.grid, SimTime::ZERO) {
            acc = acc.wrapping_add(at.as_nanos());
        }
    }
    for &(at, node) in &inputs.crossings {
        let from = at + SimDuration::from_micros(1);
        if let Some((next, _)) = fleet.traces[node as usize].next_cell_crossing(&fleet.grid, from) {
            acc = acc.wrapping_add(next.as_nanos());
        }
    }
    l.crossing_replay_s = secs(t);
    black_box(acc);
    l.crossings_replayed = inputs.crossings.len() as u64;
}

/// Receiver gather at every transmission origin, with the index moves
/// and death prunes between them.  Mirrors the world's adaptive rule:
/// at or below `auto_gather_threshold` live hosts it scans the cell
/// array instead of querying the index.
fn replay_gather(fleet: &Fleet, inputs: &Inputs, l: &mut SimLayers) {
    let reach = reach_cells(fleet);
    let threshold = auto_gather_threshold(reach);
    let mut index =
        SpatialIndex::with_buckets(fleet.grid.cells_x(), fleet.grid.cells_y(), fleet.grid.cell_side());
    let mut cells: Vec<GridCoord> = fleet
        .traces
        .iter()
        .map(|tr| tr.cell_at(&fleet.grid, SimTime::ZERO))
        .collect();
    for (i, c) in cells.iter().enumerate() {
        index.insert(i as u32, c.x, c.y);
    }
    let mut dead = vec![false; cells.len()];
    let mut buf: Vec<u32> = Vec::new();
    let mut found = 0usize;
    let t = Instant::now();
    for op in &inputs.index_ops {
        match *op {
            IndexOp::Move(id, c) => {
                cells[id as usize] = c;
                if index.contains(id) {
                    index.move_to(id, c.x, c.y);
                }
            }
            IndexOp::Remove(id) => {
                dead[id as usize] = true;
                if index.contains(id) {
                    index.remove(id);
                }
            }
            IndexOp::Gather(id) => {
                let c = cells[id as usize];
                if index.len() <= threshold {
                    buf.clear();
                    for (j, cj) in cells.iter().enumerate() {
                        if !dead[j] && cj.chebyshev(c) <= reach {
                            buf.push(j as u32);
                        }
                    }
                } else {
                    index.gather_sorted_into(c.x, c.y, reach, &mut buf);
                }
                found += buf.len();
            }
        }
    }
    l.gather_replay_s = secs(t);
    black_box(found);
}

/// Per transmission, in the world's order: gc, carrier sense, begin.
/// Each call is timed on its own so the two radio figures separate.
fn replay_channel(fleet: &Fleet, inputs: &Inputs, l: &mut SimLayers) {
    let max_range = fleet.ranges.iter().copied().fold(0.0_f64, f64::max);
    let mut ch = ChannelState::new(max_range);
    ch.set_capture_ratio(fleet.capture_ratio);
    if fleet.traces.len() > auto_gather_threshold(reach_cells(fleet)) {
        ch.enable_spatial(fleet.grid.width(), fleet.grid.height());
    }
    let (mut channel, mut sense) = (0.0, 0.0);
    let mut busy = 0u64;
    for tx in &inputs.txs {
        let a = Instant::now();
        if tx.start > SimTime::ZERO + CHANNEL_GC_GRACE {
            ch.gc_before(tx.start - CHANNEL_GC_GRACE);
        }
        let b = Instant::now();
        busy += u64::from(ch.busy_until(tx.origin, tx.start).is_some());
        let c = Instant::now();
        ch.begin_tx(
            manet::NodeId(tx.node),
            tx.origin,
            fleet.ranges[tx.node as usize],
            tx.start,
            tx.end,
        );
        let d = Instant::now();
        channel += (b - a).as_secs_f64() + (d - c).as_secs_f64();
        sense += (c - b).as_secs_f64();
    }
    black_box(busy);
    l.channel_replay_s = channel;
    l.carrier_sense_replay_s = sense;
    l.tx_replayed = inputs.txs.len() as u64;
}

/// `EnergyMeter::set_mode` at every recorded transition and `advance`
/// at every death, then the final integration to the end of the run.
fn replay_meters(fleet: &Fleet, inputs: &Inputs, l: &mut SimLayers) {
    let mut meters = fleet.meters.clone();
    let t = Instant::now();
    for &(at, node, mode) in &inputs.modes {
        let m = &mut meters[node as usize];
        match mode {
            Some(to) => {
                m.set_mode(at, to);
            }
            None => m.advance(at),
        }
    }
    for m in &mut meters {
        m.advance(fleet.end.max(m.last_update()));
    }
    l.meter_replay_s = secs(t);
    black_box(meters.iter().map(|m| m.consumed_j()).sum::<f64>());
    l.mode_changes = inputs.modes.iter().filter(|m| m.2.is_some()).count() as u64;
}

/// The recorded stream through a digest-only `Recorder::record`; returns
/// the digest it reaches.
fn replay_record(events: &[Event], l: &mut SimLayers) -> u64 {
    let mut rec = Recorder::new(TraceMode::DigestOnly);
    let t = Instant::now();
    for ev in events {
        rec.record(*ev);
    }
    l.record_replay_s = secs(t);
    rec.digest().0
}

/// `Scheduler::schedule_at` / `next` for the recorded number of
/// dispatches, holding the recorded peak queue depth.  Delays are drawn
/// up front so the timed loop is the scheduler alone.
fn replay_sched(fleet: &Fleet, l: &mut SimLayers) {
    let depth = l.max_queue_depth.max(1) as u64;
    let n = l.dispatched.max(1);
    // spread pending events over `depth` mean inter-dispatch gaps
    let span = (2 * depth * (fleet.end.as_nanos() / n).max(1)).max(1);
    let mut rng = SplitMix64::new(n ^ depth);
    let delays: Vec<u64> = (0..n).map(|_| rng.next_u64() % span).collect();
    let mut s: Scheduler<u32> = Scheduler::new();
    for i in 0..depth {
        s.schedule_at(SimTime(rng.next_u64() % span), i as u32);
    }
    let t = Instant::now();
    for &d in &delays {
        let (at, ev) = s.next().expect("the queue holds `depth` events");
        s.schedule_at(at + SimDuration(d), ev);
    }
    l.sched_replay_s = secs(t);
    black_box(s.pending());
}

/// Sum the per-job figures into the per-layer metrics.
pub fn report(jobs: &[SimLayers], out: &mut Outcome) {
    let n = jobs.len();
    let sum = |f: &dyn Fn(&SimLayers) -> f64| jobs.iter().map(f).sum::<f64>();
    let wall = sum(&|j| j.wall_s);
    let run_s = sum(&|j| j.wall_s - j.setup_s);
    let replay = sum(&|j| j.replay_s());
    let stats = |f: &dyn Fn(&WorldStats) -> u64| jobs.iter().map(|j| f(&j.stats)).sum::<u64>() as f64;
    let delivered = stats(&|s| s.frames_delivered);
    let lost = stats(&|s| s.corrupted + s.missed_unreachable);
    let dispatched = sum(&|j| j.dispatched as f64);

    out.put("scenario.parse_s", sum(&|j| j.parse_s), n);
    out.put("mobility.build_trace_s", sum(&|j| j.build_trace_s), n);
    out.put("mobility.crossing_replay_s", sum(&|j| j.crossing_replay_s), n);
    out.put("mobility.cell_crossings", stats(&|s| s.cell_crossings), n);
    out.put("radio.gather_replay_s", sum(&|j| j.gather_replay_s), n);
    out.put(
        "radio.carrier_sense_replay_s",
        sum(&|j| j.carrier_sense_replay_s),
        n,
    );
    out.put("radio.channel_replay_s", sum(&|j| j.channel_replay_s), n);
    out.put("radio.tx_started", stats(&|s| s.tx_started), n);
    out.put("radio.frames_delivered", delivered, n);
    out.put("radio.corrupted", stats(&|s| s.corrupted), n);
    out.put("radio.rx_useful_frac", ratio(delivered, delivered + lost), n);
    out.put("radio.pages_sent", stats(&|s| s.pages_sent), n);
    out.put("radio.pages_woken", stats(&|s| s.pages_woken), n);
    out.put("energy.mode_changes", sum(&|j| j.mode_changes as f64), n);
    out.put("energy.deaths", stats(&|s| s.deaths), n);
    out.put("energy.meter_replay_s", sum(&|j| j.meter_replay_s), n);
    out.put("trace.events", sum(&|j| j.trace_events as f64), n);
    out.put("trace.record_replay_s", sum(&|j| j.record_replay_s), n);
    out.put(
        "trace.overhead_frac",
        ratio(sum(&|j| j.traced_wall_s), wall) - 1.0,
        n,
    );
    out.put("sim_engine.events", dispatched, n);
    out.put("sim_engine.events_per_s", ratio(dispatched, run_s), n);
    out.put(
        "sim_engine.max_queue_depth",
        jobs.iter().map(|j| j.max_queue_depth).max().unwrap_or(0) as f64,
        n,
    );
    out.put("sim_engine.sched_replay_s", sum(&|j| j.sched_replay_s), n);
    out.put("manet.run_s", run_s, n);
    for (k, (_, name)) in DISPATCH_DOMAINS.iter().enumerate() {
        out.put(name, sum(&|j| j.dispatch[k] as f64), n);
    }
    out.put("manet.timers_fired", stats(&|s| s.timers_fired), n);
    out.put("manet.replay_coverage", ratio(replay, run_s), n);
    out.put("manet.unattributed_s", run_s - replay, n);
    for (name, p) in [
        ("ecgrid.wall_s", ProtocolKind::Ecgrid),
        ("grid_routing.wall_s", ProtocolKind::Grid),
        ("gaf.wall_s", ProtocolKind::Gaf),
    ] {
        let runs: Vec<&SimLayers> = jobs.iter().filter(|j| j.protocol == Some(p)).collect();
        out.put(name, runs.iter().fold(0.0, |acc, j| acc + j.wall_s), runs.len());
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
