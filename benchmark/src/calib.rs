//! Host-speed calibration.
//!
//! The reference box is a shared 2-vCPU VM whose execution speed moves
//! between plateaus 15–75 % apart that last seconds to minutes (on-CPU time
//! tracks wall time, so it is the processor that slows, not the scheduler).
//! Raw medians of a 20 s run therefore differ by 10–20 % between identical
//! runs. A small fixed kernel — a heap-ordered event loop over a hashed
//! table, the same kind of work the simulator does — is timed immediately
//! before and after every measured unit, and each measured time is divided
//! by how much slower than the reference the kernel ran around it. In a
//! scratch series whose raw pass times ranged 1.77–2.52 s the normalised
//! medians of six 7-pass groups stayed within 1.3 % of each other (raw:
//! 5.8 %). Every timed metric is reported in these reference seconds; the
//! raw factor is printed beside them as `bench.calib_factor`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Kernel steps per timing.
const STEPS: usize = 10_000;
/// Timings per calibration; the median is used.
const REPS: usize = 5;
/// Table entries (~0.5 MiB, straddling L2). The size sets how sensitive the
/// kernel is to a busy neighbour: over the same disturbed series the grid's
/// unit times scaled with a 4 k-entry kernel's time to the power 1.29, with
/// 16 k to the power 0.92, with 64 k and 1 M to the power 0.64–0.68 — the
/// larger tables slow down more than the simulator does and over-correct.
const ENTRIES: u64 = 1 << 14;
/// Seconds [`STEPS`] take on the reference box (Xeon @ 2.1 GHz VM) in its
/// fast state. A factor of 1.0 means "as fast as that".
const REFERENCE_S: f64 = 1.27e-3;

const KEY_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The calibration kernel and its state.
pub struct Calibrator {
    table: HashMap<u64, u64>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    rng: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: (0..ENTRIES).map(|i| (i.wrapping_mul(KEY_MIX), i)).collect(),
            queue: (0..10_000u64)
                .map(|i| Reverse((i * 7 % 10_000, i)))
                .collect(),
            rng: 88_172_645_463_325_252,
        }
    }

    fn next_random(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn timed_steps(&mut self) -> f64 {
        let clock = Instant::now();
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let Reverse((at, id)) = self.queue.pop().expect("queue is refilled every step");
            let read = (self.next_random() % ENTRIES).wrapping_mul(KEY_MIX);
            let write = (self.next_random() % ENTRIES).wrapping_mul(KEY_MIX);
            let value = self.table.get(&read).copied().unwrap_or(0);
            if let Some(slot) = self.table.get_mut(&write) {
                *slot = slot.wrapping_add(value ^ id);
                acc ^= *slot;
            }
            let delay = self.next_random() % 5_000;
            self.queue.push(Reverse((at + delay, id)));
        }
        std::hint::black_box(acc);
        clock.elapsed().as_secs_f64()
    }

    /// How much slower than the reference this thread runs right now
    /// (1.0 = reference speed, 1.3 = 30 % slower).
    pub fn factor(&mut self) -> f64 {
        let mut times = [0.0; REPS];
        for t in &mut times {
            *t = self.timed_steps();
        }
        times.sort_by(f64::total_cmp);
        times[REPS / 2] / REFERENCE_S
    }
}

/// A measured duration with the calibrations that bracket it.
#[derive(Debug, Clone, Copy)]
pub struct Bracketed {
    pub raw_s: f64,
    pub before: f64,
    pub after: f64,
}

impl Bracketed {
    /// The host-speed factor while the unit ran.
    pub fn factor(&self) -> f64 {
        (self.before + self.after) / 2.0
    }

    /// `raw` seconds (or any time measured inside the bracket) in
    /// reference seconds.
    pub fn normalise(&self, raw: f64) -> f64 {
        raw / self.factor()
    }

    /// The bracketed duration itself in reference seconds.
    pub fn normalised_s(&self) -> f64 {
        self.normalise(self.raw_s)
    }
}
