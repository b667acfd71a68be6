//! Warping-window scheduling and reference-pose placement (paper §III-C).
//!
//! The key SPARW design decision: reference frames need not lie on the camera
//! trajectory. Their poses are *extrapolated* from recent target poses
//! (Eq. 5–6), which decouples reference rendering from the frame stream and
//! lets the expensive full-frame NeRF render overlap the cheap warped frames
//! (Fig. 10/11b). [`RefPlacement`] also provides the serialized on-trajectory
//! placement of prior work (Fig. 11a, the Temp-N baseline) for comparison.

use cicero_math::Pose;
use cicero_scene::Trajectory;

/// How reference-frame poses are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefPlacement {
    /// Off-trajectory, velocity-extrapolated at window start (the paper's
    /// scheme). The prediction horizon is `window + window/2` frames: the
    /// pose is decided one window ahead (so rendering can overlap) and aims
    /// at the *center* of the window it will serve (the paper's `t_r = N/2·Δt`
    /// centering rule, Eq. 6).
    Extrapolated,
    /// Oracle: the reference sits exactly at the center pose of the window it
    /// serves. Upper-bounds warp quality; used in ablations.
    OracleCentered,
    /// On-trajectory: the reference is the first frame of its own window
    /// (rendered in-stream, serializing reference and target work — Fig. 11a
    /// and the Temp-N baseline of Fig. 16).
    OnTrajectory,
}

/// Per-frame plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePlan {
    /// Render the full frame with the NeRF model (and publish it as
    /// reference `ref_index`).
    FullRender {
        /// Index into [`Schedule::references`].
        ref_index: usize,
    },
    /// Warp from reference `ref_index`, then sparse-render the holes.
    Warp {
        /// Index into [`Schedule::references`].
        ref_index: usize,
    },
}

/// A complete schedule for a trajectory.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Reference poses, in creation order.
    pub references: Vec<Pose>,
    /// Which references are rendered *off-stream* (overlapped with target
    /// rendering) rather than as displayed frames.
    pub off_trajectory: Vec<bool>,
    /// One plan per trajectory frame.
    pub plans: Vec<FramePlan>,
}

impl Schedule {
    /// An empty schedule, the starting point for incremental
    /// [`extend`](Self::extend) planning over a streaming trajectory.
    pub fn empty() -> Schedule {
        Schedule {
            references: Vec::new(),
            off_trajectory: Vec::new(),
            plans: Vec::new(),
        }
    }

    /// Builds the schedule for `traj` with warping window `window`.
    ///
    /// Frame 0 is always a full render (bootstrap); thereafter each window of
    /// `window` frames shares one reference.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn plan(traj: &Trajectory, window: usize, placement: RefPlacement) -> Schedule {
        let mut s = Schedule::empty();
        s.extend(traj, window, placement, true);
        s
    }

    /// Extends the plans over as many additional frames of `traj` as the
    /// placement policy can commit to, and returns how many were added.
    ///
    /// This is the streaming-ingestion half of [`plan`](Self::plan): a session that
    /// receives poses one at a time re-invokes `extend` after each arrival.
    /// Planning is **window-atomic** — a window's frames are planned only
    /// once the window is fully covered by arrived poses (or `closed` marks
    /// the stream complete, permitting a final partial window). That is what
    /// keeps incremental planning bit-identical to planning the finished
    /// trajectory in one shot: a window's reference pose and its
    /// targets-per-reference amortization count never depend on poses that
    /// have not arrived yet.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `self` was planned with a different
    /// window/placement (detectable as a non-window-aligned resume point).
    pub fn extend(
        &mut self,
        traj: &Trajectory,
        window: usize,
        placement: RefPlacement,
        closed: bool,
    ) -> usize {
        assert!(window >= 1, "warping window must be ≥ 1");
        let n = traj.len();
        let references = &mut self.references;
        let off_trajectory = &mut self.off_trajectory;
        let plans = &mut self.plans;
        let planned_before = plans.len();

        // Bootstrap: frame 0 renders fully and becomes reference 0.
        if plans.is_empty() {
            if n == 0 {
                return 0;
            }
            references.push(*traj.pose(0));
            off_trajectory.push(false);
            plans.push(FramePlan::FullRender { ref_index: 0 });
        }

        // Resume at the next window boundary (windows start at frame 1).
        let mut frame = plans.len();
        if frame >= n {
            // Fully planned (e.g. a repeated close after a partial tail
            // window): nothing to do. Checked before the alignment assert —
            // a flushed partial window legitimately ends off-boundary.
            return plans.len() - planned_before;
        }
        assert!(
            frame == 1 || (frame - 1).is_multiple_of(window),
            "schedule resumed with a mismatched window"
        );
        while frame < n {
            // An open stream plans only complete windows: a partial window's
            // reference pose (OracleCentered) and warp count (amortization)
            // would change when more poses arrive.
            if !closed && frame + window > n {
                break;
            }
            let end = (frame + window).min(n);
            let ref_index = if frame == 1 {
                // The first window reuses the bootstrap reference: no pose
                // history exists yet to extrapolate from.
                0
            } else {
                let pose = match placement {
                    RefPlacement::Extrapolated => {
                        // Decided at the previous window's start (last known
                        // poses: frame-window-1, frame-window-2), aiming at
                        // this window's center — horizon 1.5 × window.
                        let known = frame.saturating_sub(window + 1);
                        let prev = known.saturating_sub(1);
                        let horizon = window as f32 + window as f32 * 0.5;
                        Pose::extrapolate(traj.pose(prev), traj.pose(known), horizon)
                    }
                    RefPlacement::OracleCentered => {
                        let center = (frame + (end - frame) / 2).min(n - 1);
                        *traj.pose(center)
                    }
                    RefPlacement::OnTrajectory => *traj.pose(frame),
                };
                references.push(pose);
                off_trajectory.push(placement != RefPlacement::OnTrajectory);
                references.len() - 1
            };
            for f in frame..end {
                // Under on-trajectory placement the window's first frame IS
                // the reference render (serialized, Fig. 11a).
                if placement == RefPlacement::OnTrajectory && f == frame && frame != 1 {
                    plans.push(FramePlan::FullRender { ref_index });
                } else {
                    plans.push(FramePlan::Warp { ref_index });
                }
            }
            frame = end;
        }
        plans.len() - planned_before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_scene::library;

    fn traj(frames: usize) -> Trajectory {
        let scene = library::scene_by_name("lego").unwrap();
        Trajectory::orbit(&scene, frames, 30.0)
    }

    #[test]
    fn bootstrap_plus_windows() {
        let t = traj(17);
        let s = Schedule::plan(&t, 4, RefPlacement::Extrapolated);
        assert_eq!(s.plans.len(), 17);
        assert!(matches!(s.plans[0], FramePlan::FullRender { ref_index: 0 }));
        // Frames 1..=4 share reference 0 (bootstrap), 5..=8 share ref 1, etc.
        for f in 1..=4 {
            assert!(
                matches!(s.plans[f], FramePlan::Warp { ref_index: 0 }),
                "frame {f}"
            );
        }
        for f in 5..=8 {
            assert!(
                matches!(s.plans[f], FramePlan::Warp { ref_index: 1 }),
                "frame {f}"
            );
        }
        // 17 frames: bootstrap ref + windows {5-8, 9-12, 13-16} each adding
        // one (window 1-4 reuses the bootstrap) → 4 references.
        assert_eq!(s.references.len(), 4);
    }

    #[test]
    fn extrapolated_references_are_near_their_window() {
        let t = traj(40);
        let s = Schedule::plan(&t, 8, RefPlacement::Extrapolated);
        // Reference serving frames 17..25 should be closer to that window's
        // center than to the trajectory start.
        let FramePlan::Warp { ref_index } = s.plans[20] else {
            panic!("expected warp")
        };
        let r = &s.references[ref_index];
        let center = t.pose(20);
        let start = t.pose(0);
        assert!(r.distance_to(center) < r.distance_to(start));
        // And reasonably close in absolute terms for a smooth orbit.
        assert!(
            r.distance_to(center) < 3.0 * t.mean_frame_delta() * 8.0,
            "extrapolation error {}",
            r.distance_to(center)
        );
    }

    #[test]
    fn oracle_reference_is_exact_center() {
        let t = traj(17);
        let s = Schedule::plan(&t, 8, RefPlacement::OracleCentered);
        let FramePlan::Warp { ref_index } = s.plans[12] else {
            panic!()
        };
        // Window 9..17, center at frame 13.
        assert_eq!(s.references[ref_index], *t.pose(13));
    }

    #[test]
    fn on_trajectory_serializes_reference_renders() {
        let t = traj(17);
        let s = Schedule::plan(&t, 4, RefPlacement::OnTrajectory);
        // Window starting at frame 5 renders frame 5 fully.
        assert!(matches!(s.plans[5], FramePlan::FullRender { .. }));
        assert!(matches!(s.plans[6], FramePlan::Warp { .. }));
        assert!(s.off_trajectory.iter().skip(1).all(|&o| !o));
    }

    #[test]
    fn window_one_still_warps_every_frame_once() {
        let t = traj(5);
        let s = Schedule::plan(&t, 1, RefPlacement::Extrapolated);
        let warps = s
            .plans
            .iter()
            .filter(|p| matches!(p, FramePlan::Warp { .. }))
            .count();
        assert_eq!(warps, 4);
        assert_eq!(s.references.len(), 4); // bootstrap + one ref per frame 2..5
    }

    #[test]
    fn incremental_extend_matches_one_shot_plan() {
        let full = traj(23);
        for placement in [
            RefPlacement::Extrapolated,
            RefPlacement::OracleCentered,
            RefPlacement::OnTrajectory,
        ] {
            for window in [1, 3, 4, 8] {
                let oracle = Schedule::plan(&full, window, placement);
                // Feed the poses one at a time, extending after each arrival,
                // then close to flush the final partial window.
                let mut streamed = Trajectory::streaming(full.fps());
                let mut s = Schedule::empty();
                for (i, p) in full.poses().iter().enumerate() {
                    streamed.push(*p);
                    s.extend(&streamed, window, placement, false);
                    // Nothing planned may ever wait on an unarrived pose.
                    assert!(
                        s.plans.len() <= streamed.len(),
                        "{placement:?}/w{window}@{i}"
                    );
                }
                s.extend(&streamed, window, placement, true);
                // Closing is idempotent even when the tail window was
                // partial (plans end off a window boundary).
                s.extend(&streamed, window, placement, true);
                assert_eq!(s.plans, oracle.plans, "{placement:?} window {window}");
                assert_eq!(s.references, oracle.references);
                assert_eq!(s.off_trajectory, oracle.off_trajectory);
            }
        }
    }

    #[test]
    fn larger_windows_render_fewer_references() {
        let t = traj(33);
        let small = Schedule::plan(&t, 4, RefPlacement::Extrapolated);
        let large = Schedule::plan(&t, 16, RefPlacement::Extrapolated);
        assert!(large.references.len() < small.references.len());
    }
}
