//! A pool of simulated SoC workers with per-worker availability clocks.
//!
//! The single-client pipeline overlaps one reference render with one stream
//! of warped frames (Fig. 10/11). A serving system generalizes that overlap
//! across clients: many sessions' reference renders and target warps compete
//! for a fixed set of SoCs. [`WorkerPool`] provides the substrate — each
//! worker is a [`SocModel`] plus a simulated-time availability cursor — and
//! the `cicero-serve` scheduler decides placement on top of it.

use crate::config::SocConfig;
use crate::soc::SocModel;

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of SoC workers.
    pub workers: usize,
    /// Hardware configuration shared by every worker.
    pub soc: SocConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            soc: SocConfig::default(),
        }
    }
}

/// A scheduled span of work on one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpan {
    /// Index of the worker the job ran on.
    pub worker: usize,
    /// Simulated start time, seconds.
    pub start_s: f64,
    /// Simulated completion time, seconds.
    pub end_s: f64,
}

/// One simulated SoC worker.
#[derive(Debug, Clone)]
pub struct Worker {
    /// The hardware model pricing this worker's jobs.
    pub soc: SocModel,
    free_at: f64,
    busy_s: f64,
    quarantines: u64,
}

impl Worker {
    /// Simulated time at which the worker next becomes idle.
    pub fn free_at(&self) -> f64 {
        self.free_at
    }

    /// Total busy time accumulated, seconds.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_s
    }

    /// Times this worker was quarantined after a simulated crash.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }
}

/// A fixed set of SoC workers sharing one simulated clock domain.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Creates `cfg.workers` identical workers.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers == 0`.
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(cfg.workers >= 1, "a pool needs at least one worker");
        WorkerPool {
            workers: (0..cfg.workers)
                .map(|_| Worker {
                    soc: SocModel::new(cfg.soc),
                    free_at: 0.0,
                    busy_s: 0.0,
                    quarantines: 0,
                })
                .collect(),
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Always `false`: pools have at least one worker.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The workers, for inspection.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Index of the worker that becomes idle soonest.
    pub fn least_loaded(&self) -> usize {
        self.workers
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.free_at.total_cmp(&b.free_at))
            .map(|(i, _)| i)
            .unwrap()
    }

    /// Schedules a job of `duration` seconds on `worker`, starting no earlier
    /// than `ready_at` and no earlier than the worker's previous job end.
    pub fn assign(&mut self, worker: usize, ready_at: f64, duration: f64) -> JobSpan {
        let w = &mut self.workers[worker];
        let start_s = w.free_at.max(ready_at);
        let end_s = start_s + duration;
        w.free_at = end_s;
        w.busy_s += duration;
        JobSpan {
            worker,
            start_s,
            end_s,
        }
    }

    /// Takes `worker` out of rotation until simulated time `until_s`,
    /// modeling the respawn delay after a crash. Idle time spent in
    /// quarantine is not billed as busy time, so utilization reflects the
    /// capacity loss. A no-op on the clock if the worker is already busy
    /// past `until_s`, but still counted.
    pub fn quarantine(&mut self, worker: usize, until_s: f64) {
        let w = &mut self.workers[worker];
        w.free_at = w.free_at.max(until_s);
        w.quarantines += 1;
    }

    /// Total quarantines across the pool.
    pub fn quarantines(&self) -> u64 {
        self.workers.iter().map(|w| w.quarantines).sum()
    }

    /// Mean worker utilization over `[0, makespan]`.
    pub fn utilization(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 || self.workers.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy_s).sum();
        busy / (makespan * self.workers.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_respects_ready_time_and_worker_clock() {
        let mut pool = WorkerPool::new(PoolConfig {
            workers: 2,
            ..Default::default()
        });
        let a = pool.assign(0, 0.0, 1.0);
        assert_eq!((a.start_s, a.end_s), (0.0, 1.0));
        // Same worker: serialized behind the first job.
        let b = pool.assign(0, 0.5, 1.0);
        assert_eq!((b.start_s, b.end_s), (1.0, 2.0));
        // Ready time later than the worker clock dominates.
        let c = pool.assign(1, 3.0, 0.5);
        assert_eq!((c.start_s, c.end_s), (3.0, 3.5));
    }

    #[test]
    fn least_loaded_balances() {
        let mut pool = WorkerPool::new(PoolConfig {
            workers: 3,
            ..Default::default()
        });
        for _ in 0..6 {
            let idlest = pool.least_loaded();
            pool.assign(idlest, 0.0, 1.0);
        }
        // Round-robin-equivalent: every worker got two unit jobs.
        assert!(pool
            .workers()
            .iter()
            .all(|w| (w.busy_seconds() - 2.0).abs() < 1e-12 && w.free_at() == 2.0));
        assert!((pool.utilization(2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quarantine_pushes_the_clock_without_billing_busy_time() {
        let mut pool = WorkerPool::new(PoolConfig {
            workers: 2,
            ..Default::default()
        });
        pool.assign(0, 0.0, 1.0);
        pool.quarantine(0, 5.0);
        assert_eq!(pool.workers()[0].free_at(), 5.0);
        assert_eq!(pool.workers()[0].busy_seconds(), 1.0);
        // Quarantine behind an already-later clock leaves the clock alone
        // but still counts.
        pool.quarantine(0, 2.0);
        assert_eq!(pool.workers()[0].free_at(), 5.0);
        assert_eq!(pool.workers()[0].quarantines(), 2);
        assert_eq!(pool.quarantines(), 2);
        // The next job serializes behind the quarantine window.
        let s = pool.assign(0, 0.0, 1.0);
        assert_eq!((s.start_s, s.end_s), (5.0, 6.0));
    }
}
