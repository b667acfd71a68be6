//! VR headset scenario: handheld 6-DoF head motion at 60 FPS rendered with
//! every pipeline variant on the local SoC — the paper's Fig. 19a situation —
//! then served live through the `cicero-serve` scheduler with overload
//! control armed, the way a headset actually talks to the runtime.
//!
//! ```text
//! cargo run --release --example vr_headset [-- --scene NAME] [--frames N]
//! ```
//!
//! Every fallible path routes an error instead of panicking: CLI mistakes
//! exit through `usage`, runtime failures (an unknown scene, a refused
//! serve call) through `fail` — the serve API returns [`ServeError`]
//! everywhere precisely so a client binary never dies on a backtrace.

use cicero::pipeline::{run_pipeline, PipelineConfig};
use cicero::Variant;
use cicero_field::{bake, GridConfig};
use cicero_math::Intrinsics;
use cicero_scene::{library, Trajectory, TrajectoryKind};
use cicero_serve::{
    Fleet, FleetConfig, OverloadControl, QosClass, ServeConfig, ServeError, SessionSpec,
    Submission, SubmitOutcome,
};

/// A CLI mistake is the *user's* error, not a pipeline fault: explain and
/// exit instead of panicking with a backtrace.
fn usage(msg: &str) -> ! {
    eprintln!("vr_headset: {msg}");
    eprintln!("usage: vr_headset [--scene NAME] [--frames N]");
    std::process::exit(2);
}

/// A runtime failure (an unknown scene, a rejected serve call) surfaces as
/// a message and a nonzero exit, never a panic.
fn fail(context: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("vr_headset: {context}: {e}");
    std::process::exit(1);
}

struct Args {
    scene: String,
    frames: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        scene: "chair".into(),
        frames: 24,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scene" => {
                args.scene = it.next().unwrap_or_else(|| usage("--scene takes a name"));
            }
            "--frames" => {
                args.frames = it
                    .next()
                    .unwrap_or_else(|| usage("--frames takes a count"))
                    .parse()
                    .unwrap_or_else(|_| usage("--frames must be a number"));
                if args.frames == 0 {
                    usage("--frames must be at least 1");
                }
            }
            other => usage(&format!("unexpected argument {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let scene = library::scene_by_name(&args.scene)
        .unwrap_or_else(|| fail("loading scene", format!("unknown scene {:?}", args.scene)));
    let model = bake::bake_grid(
        &scene,
        &GridConfig {
            resolution: 64,
            ..Default::default()
        },
    );
    // 60 FPS handheld head motion, seed-controlled shake.
    let traj = Trajectory::generate(&scene, args.frames, 60.0, TrajectoryKind::Handheld, 42);
    let intrinsics = Intrinsics::from_fov(96, 96, 1.1);

    println!(
        "VR trace: {} frames at {} FPS, mean pose delta {:.4}",
        traj.len(),
        traj.fps(),
        traj.mean_frame_delta()
    );
    println!(
        "\n{:<10} {:>9} {:>12} {:>9}",
        "variant", "FPS", "energy (mJ)", "PSNR dB"
    );

    let mut base_fps = 0.0;
    for variant in Variant::ALL {
        let cfg = PipelineConfig {
            variant,
            window: 8,
            ..Default::default()
        };
        let run = run_pipeline(&scene, &model, &traj, intrinsics, &cfg);
        if variant == Variant::Baseline {
            base_fps = run.mean_fps();
        }
        println!(
            "{:<10} {:>9.2} {:>12.1} {:>9.2}",
            variant.label(),
            run.mean_fps(),
            run.mean_energy() * 1e3,
            run.mean_psnr()
        );
    }
    println!("\n(baseline {base_fps:.2} FPS — the ladder above is the paper's Fig. 19a shape)");

    // The same headset, served: a live interactive session streamed
    // pose-by-pose through the scheduler with overload control armed. A
    // lone headset always fits, but the match is the client idiom — a
    // queue ticket is an outcome and explicit backpressure an error value
    // to branch on, not a crash.
    let mut fleet = Fleet::new(FleetConfig {
        base: ServeConfig {
            overload: Some(OverloadControl::default()),
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap_or_else(|e| fail("serve config refused", e));
    let spec = SessionSpec {
        name: format!("{}-headset", args.scene),
        scene_key: args.scene.clone(),
        qos: QosClass::Interactive,
        start_offset_s: 0.0,
        config: PipelineConfig {
            variant: Variant::Cicero,
            window: 8,
            ..Default::default()
        },
    };
    let id = match fleet.submit(Submission::stream(
        spec,
        &scene,
        &model,
        traj.fps(),
        intrinsics,
    )) {
        Ok(SubmitOutcome::Admitted(id)) => id,
        Ok(SubmitOutcome::Queued(ticket)) => fail(
            "headset session queued",
            format!("ticket {ticket}: buffer poses until it admits"),
        ),
        Err(ServeError::Overloaded { retry_after_s }) => {
            fail(
                "headset session pushed back",
                format!("fleet overloaded; retry after {retry_after_s}s"),
            );
        }
        Err(e) => fail("headset session rejected", e),
    };
    for pose in traj.poses() {
        fleet
            .push_pose(id, *pose)
            .unwrap_or_else(|e| fail("streamed pose refused", e));
    }
    fleet
        .close_stream(id)
        .unwrap_or_else(|e| fail("stream close refused", e));
    let report = fleet.run();
    println!(
        "\nserved live: {} frames, p99 latency {:.2} ms, {} deadline misses",
        report.frames,
        report.p99_latency_s * 1e3,
        report.deadline_misses
    );
}
