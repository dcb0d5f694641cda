//! Channel gc cadence is invisible to every channel answer.
//!
//! The simulator prunes its channel at epoch barriers, at most
//! [`CHANNEL_GC_STRIDE`] of virtual time apart, instead of on every
//! transmission.  That is sound only because `busy_until` and `corrupted`
//! filter their candidates by time: an entry kept past its prune point
//! can never change an answer.  This test drives random begin/query
//! traffic through a channel pruned on every transmission (the reference)
//! and through channels pruned at random strides, with the bucket index
//! on and off, and demands identical answers at every step.  It also
//! bounds what the strided channel retains.

use geo::Point2;
use proptest::prelude::*;
use radio::{ChannelState, NodeId, CHANNEL_GC_GRACE, CHANNEL_GC_STRIDE};
use sim_engine::{SimDuration, SimTime};

const FIELD_M: f64 = 1000.0;

/// Longest generated frame.  It stays inside the gc grace, the contract
/// the simulator's collision back-check relies on (a reception is checked
/// when it ends, against interferers that ended at most a grace ago).
const MAX_FRAME_US: u64 = 8_000;

/// One generated step: advance the clock, then act.
#[derive(Clone, Debug)]
struct Step {
    advance_us: u64,
    /// 0..=5 begins a transmission, 6..=7 senses the carrier, 8..=9
    /// checks a recent reception for corruption.
    action: u8,
    x: f64,
    y: f64,
    /// Transmitter range (m) of a begin.
    range_m: f64,
    frame_us: u64,
    /// Which recent transmission a corruption check examines.
    pick: usize,
    /// Length of the strided channel's next gc stride, as a fraction of
    /// [`CHANNEL_GC_STRIDE`].
    stride_frac: f64,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u64..1_500,
            0u8..10,
            (0.0..FIELD_M, 0.0..FIELD_M),
            (40.0..250.0, 1u64..MAX_FRAME_US),
            0usize..1024,
            0.0..=1.0,
        )
            .prop_map(
                |(advance_us, action, (x, y), (range_m, frame_us), pick, stride_frac)| Step {
                    advance_us,
                    action,
                    x,
                    y,
                    range_m,
                    frame_us,
                    pick,
                    stride_frac,
                },
            ),
        1..400,
    )
}

/// A channel pruned on its own cadence.
struct Pruned {
    ch: ChannelState,
    /// `None`: prune before every transmission begins (the reference).
    /// `Some(t)`: prune at the first step at or past `t`.
    next_gc: Option<SimTime>,
}

impl Pruned {
    fn new(spatial: bool, strided: bool) -> Self {
        let mut ch = ChannelState::paper_default();
        if spatial {
            ch.enable_spatial(FIELD_M, FIELD_M);
        }
        Pruned {
            ch,
            next_gc: strided.then_some(SimTime::ZERO),
        }
    }

    fn prune(&mut self, now: SimTime) {
        if now > SimTime::ZERO + CHANNEL_GC_GRACE {
            self.ch.gc_before(now - CHANNEL_GC_GRACE);
        }
    }

    /// The run loop's barrier: prune once the clock reaches `next_gc`,
    /// then re-arm it a random stride (at most `CHANNEL_GC_STRIDE`) later.
    fn barrier(&mut self, now: SimTime, stride_frac: f64) {
        if let Some(next) = self.next_gc {
            if now >= next {
                self.prune(now);
                let stride = ((CHANNEL_GC_STRIDE.as_nanos() as f64 * stride_frac) as u64).max(1);
                self.next_gc = Some(now + SimDuration::from_nanos(stride));
            }
        }
    }

    fn begin(&mut self, src: NodeId, origin: Point2, range: f64, start: SimTime, end: SimTime) -> u64 {
        if self.next_gc.is_none() {
            self.prune(start);
        }
        self.ch.begin_tx(src, origin, range, start, end)
    }
}

proptest! {
    /// Every `busy_until` and `corrupted` answer of a channel pruned at
    /// random strides equals the answer of one pruned on every
    /// transmission, with the bucket index on and off; and the strided
    /// channel never holds more than the transmissions still on the air
    /// or ended within `CHANNEL_GC_GRACE + CHANNEL_GC_STRIDE`.
    #[test]
    fn gc_cadence_never_changes_an_answer(steps in steps()) {
        // [reference, strided] for the linear scan, then for the index
        let mut chans: Vec<Pruned> = [(false, false), (false, true), (true, false), (true, true)]
            .into_iter()
            .map(|(spatial, strided)| Pruned::new(spatial, strided))
            .collect();
        // every begun transmission: (id, origin, start, end)
        let mut txs: Vec<(u64, Point2, SimTime, SimTime)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, st) in steps.iter().enumerate() {
            now += SimDuration::from_micros(st.advance_us);
            for c in &mut chans {
                c.barrier(now, st.stride_frac);
            }
            let p = Point2::new(st.x, st.y);
            match st.action {
                0..=5 => {
                    let end = now + SimDuration::from_micros(st.frame_us);
                    let ids: Vec<u64> = chans
                        .iter_mut()
                        .map(|c| c.begin(NodeId(i as u32), p, st.range_m, now, end))
                        .collect();
                    prop_assert!(ids.iter().all(|&id| id == ids[0]), "tx ids diverged: {:?}", ids);
                    txs.push((ids[0], p, now, end));
                }
                6..=7 => {
                    let want = chans[0].ch.busy_until(p, now);
                    for (k, c) in chans.iter().enumerate().skip(1) {
                        prop_assert_eq!(c.ch.busy_until(p, now), want, "busy_until diverged on channel {}", k);
                    }
                }
                _ => {
                    // a reception the simulator could still check: it
                    // started within the grace (it ends by now or soon)
                    let recent: Vec<_> = txs
                        .iter()
                        .filter(|&&(_, _, s, _)| s + CHANNEL_GC_GRACE >= now)
                        .collect();
                    if !recent.is_empty() {
                        let &(id, origin, s, e) = recent[st.pick % recent.len()];
                        let want = chans[0].ch.corrupted(id, origin, p, s, e);
                        for (k, c) in chans.iter().enumerate().skip(1) {
                            prop_assert_eq!(
                                c.ch.corrupted(id, origin, p, s, e),
                                want,
                                "corrupted diverged on channel {}",
                                k
                            );
                        }
                    }
                }
            }
            // retention bound of the strided channels
            let window = CHANNEL_GC_GRACE + CHANNEL_GC_STRIDE;
            let bound = txs.iter().filter(|&&(_, _, _, e)| e + window > now).count();
            for c in chans.iter().filter(|c| c.next_gc.is_some()) {
                prop_assert!(
                    c.ch.in_flight() <= bound,
                    "{} live entries, but only {} transmissions overlap the last {:?}",
                    c.ch.in_flight(),
                    bound,
                    window
                );
            }
        }
    }
}
