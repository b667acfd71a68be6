//! Admission control: bound the load the pool commits to.
//!
//! A serving deployment must refuse work it cannot sustain — a saturated SoC
//! pool misses every deadline rather than some. Admission estimates each
//! candidate session's steady-state worker occupancy from its frame rate,
//! resolution and warping window, and rejects sessions that would push the
//! pool past a utilization ceiling (or a hard session count).

use crate::session::SessionSpec;
use cicero_accel::soc::{Scenario, Variant};
use cicero_math::Intrinsics;
use std::fmt;

/// Why a session was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The configured session limit is reached.
    SessionLimit {
        /// The limit that was hit.
        max_sessions: usize,
    },
    /// Admitting the session would exceed the pool's utilization ceiling.
    Saturated {
        /// Estimated worker occupancy of the candidate (workers' worth).
        estimated_load: f64,
        /// Load already committed (workers' worth).
        committed_load: f64,
        /// Admissible total (workers × max utilization).
        capacity: f64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::SessionLimit { max_sessions } => {
                write!(f, "session limit reached ({max_sessions})")
            }
            AdmissionError::Saturated { estimated_load, committed_load, capacity } => write!(
                f,
                "pool saturated: committed {committed_load:.2} + new {estimated_load:.2} > capacity {capacity:.2}"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Admission policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Hard cap on concurrently admitted sessions.
    pub max_sessions: usize,
    /// Fraction of total pool capacity that may be committed (headroom for
    /// reference-render bursts).
    pub max_utilization: f64,
    /// Estimated full-render seconds per pixel (reference frames).
    pub full_s_per_pixel: f64,
    /// Estimated warp + sparse-render seconds per pixel (target frames).
    pub target_s_per_pixel: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_sessions: 256,
            max_utilization: 0.85,
            // Defaults calibrated against SocConfig::default() at 128×128:
            // a full frame ≈ 50 ms, a target frame ≈ 3 ms.
            full_s_per_pixel: 3.0e-6,
            target_s_per_pixel: 2.0e-7,
        }
    }
}

/// Tracks committed load against the policy.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    workers: usize,
    remote_speedup: f64,
    committed_load: f64,
    admitted: usize,
    rejected: usize,
}

impl AdmissionController {
    /// Creates a controller for a pool of `workers` SoCs whose workstation
    /// tier runs `remote_speedup`× mobile speed
    /// (`SocConfig::remote.speedup_over_mobile`) — the same figure the
    /// scheduler bills remote reference renders with.
    pub fn new(policy: AdmissionPolicy, workers: usize, remote_speedup: f64) -> Self {
        AdmissionController {
            policy,
            workers,
            remote_speedup: remote_speedup.max(1e-9),
            committed_load: 0.0,
            admitted: 0,
            rejected: 0,
        }
    }

    /// Estimated steady-state worker occupancy of `spec` (1.0 = one worker
    /// fully busy).
    pub fn estimate_load(&self, spec: &SessionSpec, intrinsics: Intrinsics, fps: f64) -> f64 {
        let pixels = intrinsics.pixel_count() as f64;
        // Remote sessions' full renders run on the workstation, so they
        // occupy the pool for 1/speedup of the local cost — mirroring how
        // the scheduler bills them (`SocModel::price`'s remote rows) on
        // the *pool's* hardware.
        let full_speedup = match spec.config.scenario {
            Scenario::Local => 1.0,
            Scenario::Remote => self.remote_speedup,
        };
        let full_s = pixels * self.policy.full_s_per_pixel / full_speedup;
        let frame_s = match spec.config.variant {
            Variant::Baseline => full_s,
            _ => {
                pixels * self.policy.target_s_per_pixel + full_s / spec.config.window.max(1) as f64
            }
        };
        frame_s * fps
    }

    /// Admits or rejects `spec`. On success the estimated load is committed
    /// and returned, so the caller can hand the same figure back to
    /// [`release`](Self::release) when the session drains.
    pub fn admit(
        &mut self,
        spec: &SessionSpec,
        intrinsics: Intrinsics,
        fps: f64,
    ) -> Result<f64, AdmissionError> {
        if self.admitted >= self.policy.max_sessions {
            self.rejected += 1;
            return Err(AdmissionError::SessionLimit {
                max_sessions: self.policy.max_sessions,
            });
        }
        let estimated_load = self.estimate_load(spec, intrinsics, fps);
        let capacity = self.capacity();
        if self.committed_load + estimated_load > capacity {
            self.rejected += 1;
            return Err(AdmissionError::Saturated {
                estimated_load,
                committed_load: self.committed_load,
                capacity,
            });
        }
        self.committed_load += estimated_load;
        self.admitted += 1;
        Ok(estimated_load)
    }

    /// Commits `load` **without** a capacity or session-limit check — the
    /// fleet failover path: a session adopted from a dead shard was already
    /// admitted once, and dropping it to enforce this shard's bound would be
    /// strictly worse than running temporarily hot. The committed ledger may
    /// exceed [`capacity`](Self::capacity) afterwards, which correctly
    /// pushes back on *future* ordinary admissions.
    pub fn force_commit(&mut self, load: f64) {
        self.committed_load += load;
        self.admitted += 1;
    }

    /// Releases a drained session's committed load so its slot and capacity
    /// become available to future submissions.
    pub fn release(&mut self, load: f64) {
        self.committed_load = (self.committed_load - load).max(0.0);
        self.admitted = self.admitted.saturating_sub(1);
    }

    /// Total admissible load: workers × max-utilization.
    pub fn capacity(&self) -> f64 {
        self.workers as f64 * self.policy.max_utilization
    }

    /// Whether `load` more workers' worth of occupancy would be admitted
    /// right now (session slot available and capacity not exceeded). A
    /// side-effect-free probe for QoS policies exploring degradation rungs —
    /// unlike [`admit`](Self::admit), it counts nothing.
    pub fn would_fit(&self, load: f64) -> bool {
        self.admitted < self.policy.max_sessions && self.committed_load + load <= self.capacity()
    }

    /// Load currently committed, in workers' worth of occupancy.
    pub fn committed_load(&self) -> f64 {
        self.committed_load
    }

    /// Sessions admitted so far.
    pub fn admitted(&self) -> usize {
        self.admitted
    }

    /// Sessions rejected so far.
    pub fn rejected(&self) -> usize {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::QosClass;
    use cicero::PipelineConfig;

    const POOL_SPEEDUP: f64 = 10.0;

    fn spec(window: usize) -> SessionSpec {
        SessionSpec {
            name: "t".into(),
            scene_key: "lego".into(),
            qos: QosClass::Standard,
            start_offset_s: 0.0,
            config: PipelineConfig {
                window,
                ..Default::default()
            },
        }
    }

    #[test]
    fn saturation_rejects_with_reason() {
        let mut ctl = AdmissionController::new(
            AdmissionPolicy {
                max_utilization: 0.5,
                ..Default::default()
            },
            1,
            POOL_SPEEDUP,
        );
        let k = Intrinsics::from_fov(128, 128, 0.9);
        // Each 30 fps, 128² session commits ~0.28 workers; half a worker of
        // capacity admits one and rejects the second.
        let mut admitted = 0;
        let mut err = None;
        for _ in 0..64 {
            match ctl.admit(&spec(8), k, 30.0) {
                Ok(_) => admitted += 1,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(admitted >= 1, "at least one session fits");
        assert!(matches!(err, Some(AdmissionError::Saturated { .. })));
        assert_eq!(ctl.rejected(), 1);
    }

    #[test]
    fn session_limit_is_hard() {
        let mut ctl = AdmissionController::new(
            AdmissionPolicy {
                max_sessions: 2,
                ..Default::default()
            },
            64,
            POOL_SPEEDUP,
        );
        let k = Intrinsics::from_fov(16, 16, 0.9);
        assert!(ctl.admit(&spec(16), k, 30.0).is_ok());
        assert!(ctl.admit(&spec(16), k, 30.0).is_ok());
        assert!(matches!(
            ctl.admit(&spec(16), k, 30.0),
            Err(AdmissionError::SessionLimit { .. })
        ));
    }

    #[test]
    fn larger_windows_commit_less_load() {
        let ctl = AdmissionController::new(AdmissionPolicy::default(), 4, POOL_SPEEDUP);
        let k = Intrinsics::from_fov(64, 64, 0.9);
        assert!(ctl.estimate_load(&spec(16), k, 30.0) < ctl.estimate_load(&spec(2), k, 30.0));
    }

    #[test]
    fn remote_sessions_commit_less_pool_load_than_local() {
        let ctl = AdmissionController::new(AdmissionPolicy::default(), 4, POOL_SPEEDUP);
        let k = Intrinsics::from_fov(128, 128, 0.9);
        let mut remote = spec(8);
        remote.config.scenario = cicero::Scenario::Remote;
        let local_load = ctl.estimate_load(&spec(8), k, 30.0);
        let remote_load = ctl.estimate_load(&remote, k, 30.0);
        // Full renders run on the workstation, so the pool is occupied for
        // 1/speedup (default 10x) of the reference share.
        assert!(
            remote_load < local_load,
            "remote {remote_load} vs local {local_load}"
        );
        let mut remote_base = remote.clone();
        remote_base.config.variant = Variant::Baseline;
        let speedup = POOL_SPEEDUP;
        let mut local_base = spec(8);
        local_base.config.variant = Variant::Baseline;
        let ratio =
            ctl.estimate_load(&local_base, k, 30.0) / ctl.estimate_load(&remote_base, k, 30.0);
        assert!((ratio - speedup).abs() < 1e-9, "ratio {ratio} vs {speedup}");
    }
}
