//! A host-speed gauge for the timed metrics.
//!
//! On a shared host the same code runs up to ~1.8× slower for stretches
//! of seconds to minutes, while the thread stays on its CPU the whole
//! time. [`HostClock`] runs a fixed reference loop in short units
//! between pipeline points and between slices of a point's simulation,
//! so each repetition's wall can be rescaled to a nominal host speed. The loop does the kind of work a discrete-event
//! simulation does: a timer heap, scattered reads and writes over 4 MiB
//! of per-node state, floating-point updates, and number formatting and
//! parsing. It uses no repository crate, so no change to the program
//! changes it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Nodes in the reference loop: 4 MiB of state, past a core's L2.
const NODES: usize = 1 << 17;
/// Events in one unit of the reference loop.
const UNIT_EVENTS: u32 = 60_000;
/// The time one unit takes on the nominal host: about its time in the
/// fastest stretches seen on a shared 2-vCPU Intel Xeon (Sapphire
/// Rapids) KVM guest.
pub const NOMINAL_UNIT: Duration = Duration::from_micros(9_000);
/// One unit is run per this much timed wall, so the gauge samples every
/// stretch of a repetition in proportion to its length.
const UNIT_EVERY: Duration = Duration::from_millis(50);
/// At most this many units run at one sampling point.
const MAX_UNITS: u32 = 16;

#[derive(Clone, Copy, Default)]
struct NodeState {
    cwnd: f64,
    srtt: f64,
    bytes: u64,
    next: u32,
}

/// The reference loop's state, kept between units so a unit never pays
/// for allocating it.
struct RefLoop {
    nodes: Vec<NodeState>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    rng: u64,
    text: String,
    acc: u64,
}

impl RefLoop {
    fn new() -> Self {
        let mut nodes = vec![NodeState::default(); NODES];
        for (i, n) in nodes.iter_mut().enumerate() {
            n.cwnd = 10.0;
            n.srtt = 0.05;
            n.next = ((i as u64 * 0x9e37_79b9) % NODES as u64) as u32;
        }
        let mut rng: u64 = 0x853c_49e6_748f_ea9b;
        let mut heap = BinaryHeap::with_capacity(16_384);
        for i in 0..16_384u32 {
            heap.push(Reverse((xorshift(&mut rng) % 1_000_000, i)));
        }
        RefLoop {
            nodes,
            heap,
            rng,
            text: String::with_capacity(64),
            acc: 0,
        }
    }

    /// One unit: pop an event, update its node, schedule a successor.
    fn unit(&mut self) {
        for e in 0..UNIT_EVENTS {
            let Reverse((now, idx)) = self.heap.pop().expect("the heap never drains");
            let r = xorshift(&mut self.rng);
            let n = &mut self.nodes[idx as usize];
            n.bytes += 1500;
            n.srtt = 0.875 * n.srtt + 0.125 * ((r & 0xffff) as f64 * 1e-6);
            if r & 7 == 0 {
                n.cwnd = (n.cwnd * 0.7).max(2.0);
            } else {
                n.cwnd += 1.0 / n.cwnd;
            }
            let (next, cwnd, srtt) = (n.next, n.cwnd, n.srtt);
            self.nodes[next as usize].next = (r >> 16) as u32 % NODES as u32;
            self.heap.push(Reverse((now + 1 + (r >> 40) % 5_000, next)));
            if e % 64 == 0 {
                self.text.clear();
                let _ = write!(self.text, "{{\"cwnd\":{cwnd},\"srtt\":{srtt}}}");
                let end = self.text.find(',').unwrap_or(9);
                let v: f64 = self.text[8..end].parse().unwrap_or(0.0);
                self.acc = self.acc.wrapping_add(v as u64);
            }
        }
        std::hint::black_box(self.acc);
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Samples host speed between stretches of timed work.
pub struct HostClock {
    reference: RefLoop,
    /// End of the last sampling point.
    since: Instant,
    /// Reference-loop wall since the last [`HostClock::take_slowdown`].
    spent: Duration,
    /// Units run since the last [`HostClock::take_slowdown`].
    units: u32,
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

impl HostClock {
    /// A gauge whose first sample covers the time from now.
    pub fn new() -> Self {
        let mut reference = RefLoop::new();
        // bring the heap and state into their steady shape
        reference.unit();
        HostClock {
            reference,
            since: Instant::now(),
            spent: Duration::ZERO,
            units: 0,
        }
    }

    /// Run one reference unit, whatever ran since the last sample: the
    /// first sample of a stretch of timed work.
    pub fn start(&mut self) {
        self.run(1);
    }

    /// Run one reference unit per whole [`UNIT_EVERY`] of wall since the
    /// last sample (none before the first is due, at most
    /// [`MAX_UNITS`]). Cheap to call often.
    pub fn sample(&mut self) {
        let due = self.since.elapsed().as_nanos() / UNIT_EVERY.as_nanos();
        if due > 0 {
            self.run(due.min(MAX_UNITS as u128) as u32);
        }
    }

    fn run(&mut self, units: u32) {
        let t = Instant::now();
        for _ in 0..units {
            self.reference.unit();
        }
        self.spent += t.elapsed();
        self.units += units;
        self.since = Instant::now();
    }

    /// How much slower than nominal the host ran the reference loop over
    /// the samples since the last call (1.0 = nominal), and reset.
    pub fn take_slowdown(&mut self) -> f64 {
        let slowdown = if self.units == 0 {
            1.0
        } else {
            self.spent.as_secs_f64() / (NOMINAL_UNIT.as_secs_f64() * self.units as f64)
        };
        self.spent = Duration::ZERO;
        self.units = 0;
        slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_covers_the_samples_since_the_last_take() {
        let mut clock = HostClock::new();
        assert_eq!(clock.take_slowdown(), 1.0, "no samples yet");
        clock.start();
        clock.sample(); // nothing due yet
        assert_eq!(clock.units, 1);
        std::thread::sleep(UNIT_EVERY * 2);
        clock.sample();
        assert_eq!(clock.units, 3);
        let k = clock.take_slowdown();
        assert!(k.is_finite() && k > 0.0, "slowdown {k}");
        assert_eq!(clock.take_slowdown(), 1.0, "a take resets");
    }
}
