//! The host clock: how slow the machine is right now.
//!
//! The development container is a 2-vCPU microVM on a shared host. For
//! minutes at a time everything on it runs 1.4–1.7× slower (measured on
//! `serve_ladder`: 2900 and 1750 frames/s in alternating phases of one
//! commit and one seed), and inside a phase single seconds are 10–100 %
//! slower still. Best-of-passes survives the second kind; nothing a 15 s run
//! does survives the first. So every timed operation is divided by the
//! *host slowdown* measured next to it: the wall time of a fixed reference
//! kernel owned by this benchmark — dense multiply-adds, scattered loads
//! from a 16 MB table, a streaming pass, in the proportions of a render —
//! over that kernel's time on the quiet container ([`NOMINAL_MS`]).
//!
//! The end-to-end times are therefore in *reference-host* milliseconds: what
//! the operation would take on the quiet development container. The kernel
//! calls nothing in `crates/`, so no change to the repository can move it;
//! it is frozen with the rest of this directory. The raw wall figures and
//! the slowdown are printed beside the normalised ones.

use std::hint::black_box;
use std::time::Instant;

/// Best time of one [`HostClock::kernel`] call on the quiet development
/// container, ms. The scale of every normalised metric: change it and every
/// recorded baseline changes with it.
pub const NOMINAL_MS: f64 = 3.8;

/// Kernel calls per reading; the reading is the best of them, so that a
/// hiccup during the reading does not pass for a slow host.
const CALLS: usize = 3;

const TABLE_WORDS: usize = 4 << 20;
const DIM: usize = 64;
const BLOCK: usize = 16;
const STREAM_WORDS: usize = 256 << 10;

pub struct HostClock {
    table: Vec<u32>,
    weights: Vec<f32>,
    acts: Vec<f32>,
    next: Vec<f32>,
    stream: Vec<f32>,
}

impl Default for HostClock {
    fn default() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut word = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        HostClock {
            table: (0..TABLE_WORDS).map(|_| word() as u32).collect(),
            weights: (0..DIM * DIM)
                .map(|_| (word() % 2001) as f32 / 64_000.0 - 1.0 / 64.0)
                .collect(),
            acts: vec![0.5; DIM * BLOCK],
            next: vec![0.0; DIM * BLOCK],
            stream: vec![1.0; STREAM_WORDS],
        }
    }
}

impl HostClock {
    /// One call of the reference kernel, in the proportions of a render:
    /// a block MLP layer, scattered feature loads, a frame-buffer pass.
    fn kernel(&mut self) {
        // Dense layer over a 16-sample block, sample-minor like the decoder.
        for _ in 0..160 {
            for o in 0..DIM {
                let row = &self.weights[o * DIM..(o + 1) * DIM];
                let out = &mut self.next[o * BLOCK..(o + 1) * BLOCK];
                out.fill(0.0);
                for (i, &w) in row.iter().enumerate() {
                    let input = &self.acts[i * BLOCK..(i + 1) * BLOCK];
                    for (y, &a) in out.iter_mut().zip(input) {
                        *y += w * a;
                    }
                }
                for y in out.iter_mut() {
                    *y = y.max(0.0) + 0.01;
                }
            }
            std::mem::swap(&mut self.acts, &mut self.next);
        }
        // Scattered loads, independent of each other like a gather's.
        let mut index = self.acts[0].to_bits() as usize | 1;
        let mut sum = 0u32;
        for _ in 0..60_000 {
            index = index.wrapping_mul(0x9e37_79b9).wrapping_add(0x7f4a_7c15);
            sum = sum.wrapping_add(self.table[index % TABLE_WORDS]);
        }
        // One streaming read-modify-write pass.
        let bump = 1.0 + (sum % 2) as f32 * 1e-9;
        for v in &mut self.stream {
            *v = *v * bump + 1e-6;
        }
        black_box((&self.acts, &self.stream, sum));
    }

    /// The reference kernel's best wall time of [`CALLS`] calls, ms.
    pub fn kernel_ms(&mut self) -> f64 {
        (0..CALLS)
            .map(|_| {
                let t = Instant::now();
                self.kernel();
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The host slowdown right now: 1.0 on the quiet development container.
    pub fn slowdown(&mut self) -> f64 {
        self.kernel_ms() / NOMINAL_MS
    }

    /// Runs `f` once and returns its time in reference-host seconds: wall
    /// time over the mean of the slowdown read before and after it. For
    /// operations long enough (tenths of a second up) that two readings do
    /// not matter next to them.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.slowdown();
        let t = Instant::now();
        let r = f();
        let wall = t.elapsed().as_secs_f64();
        let after = self.slowdown();
        (r, wall / ((before + after) / 2.0))
    }
}

/// Readings on each side of an operation whose median it is charged with.
const NEIGHBOURS: usize = 3;

/// Slowdown readings taken between operations. [`Readings::normalised`]
/// divides each operation by the median of the readings around it: a single
/// reading is itself jittery (±5 %), and dividing by it and then taking the
/// best of the passes would select for readings that happened to be slow.
#[derive(Default)]
pub struct Readings {
    /// `(operations completed when read, slowdown)`, in order.
    marks: Vec<(usize, f64)>,
}

impl Readings {
    fn mark(&mut self, done: usize, host: &mut HostClock) {
        self.marks.push((done, host.slowdown()));
    }

    /// The slowdown to charge operation `i` with: the median of the
    /// [`NEIGHBOURS`] readings before it and the [`NEIGHBOURS`] after it.
    fn around(&self, i: usize) -> f64 {
        let after = self.marks.partition_point(|&(done, _)| done <= i);
        let from = after.saturating_sub(NEIGHBOURS);
        let to = (after + NEIGHBOURS).min(self.marks.len());
        let near: Vec<f64> = self.marks[from..to].iter().map(|m| m.1).collect();
        crate::stats::median(&near)
    }

    /// The slowdown to charge each of `n` operations with.
    pub fn per_operation(&self, n: usize) -> Vec<f64> {
        assert!(!self.marks.is_empty(), "no host readings");
        (0..n).map(|i| self.around(i)).collect()
    }

    pub fn normalised(&self, raw_ms: &[f64]) -> Vec<f64> {
        let slowdown = self.per_operation(raw_ms.len());
        raw_ms.iter().zip(slowdown).map(|(ms, s)| ms / s).collect()
    }

    pub fn slowdowns(&self) -> impl Iterator<Item = f64> + '_ {
        self.marks.iter().map(|m| m.1)
    }
}

/// Takes host readings while a sequence of operations runs: one before the
/// first, one whenever `every_s` seconds of operations have gone by, one
/// after the last.
pub struct Pacer {
    readings: Readings,
    every_s: f64,
    since_reading: f64,
    done: usize,
}

impl Pacer {
    pub fn start(every_s: f64, host: &mut HostClock) -> Self {
        let mut readings = Readings::default();
        readings.mark(0, host);
        Pacer {
            readings,
            every_s,
            since_reading: 0.0,
            done: 0,
        }
    }

    /// Notes one more operation that took `secs`.
    pub fn after(&mut self, secs: f64, host: &mut HostClock) {
        self.done += 1;
        self.since_reading += secs;
        if self.since_reading >= self.every_s {
            self.readings.mark(self.done, host);
            self.since_reading = 0.0;
        }
    }

    pub fn finish(mut self, host: &mut HostClock) -> Readings {
        self.readings.mark(self.done, host);
        self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_are_charged_with_the_readings_around_them() {
        // A reading after every second operation; the fourth is an outlier.
        let marks = [1.0, 1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0, 2.0];
        let r = Readings {
            marks: marks.iter().enumerate().map(|(k, &s)| (2 * k, s)).collect(),
        };
        // Operation 0: readings 0 (before) and 1..=3 (after) -> median 1.
        assert_eq!(r.around(0), 1.0);
        // Operation 7 sits between readings 3 and 4: three each side, and
        // the outlier does not carry.
        assert_eq!(r.around(7), 1.5);
        // Past the phase change the operations are charged the slow phase.
        assert_eq!(r.around(12), 2.0);
        assert_eq!(r.around(16), 2.0);
        assert_eq!(r.normalised(&[3.0, 3.0])[0], 3.0);
        assert_eq!(r.slowdowns().count(), 9);
    }

    #[test]
    fn the_reference_kernel_runs_and_stays_finite() {
        let mut host = HostClock::default();
        let ms = host.kernel_ms();
        assert!(ms > 0.0 && ms.is_finite());
        host.kernel();
        assert!(host.acts.iter().all(|a| a.is_finite()));
        assert!(host.stream.iter().all(|v| v.is_finite()));
    }
}
