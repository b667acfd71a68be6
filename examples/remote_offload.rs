//! Remote rendering: reference frames render on a tethered workstation GPU
//! while the headset warps and sparse-renders locally — the paper's Fig. 19b
//! scenario, including the window sweep of Fig. 22b — then the swept-out
//! winner served as a live remote session through the scheduler.
//!
//! ```text
//! cargo run --release --example remote_offload [-- --scene NAME]
//! ```
//!
//! Every fallible path routes an error instead of panicking: CLI mistakes
//! exit through `usage`, runtime failures (an unknown scene, a refused
//! serve call) through `fail` — the serve API returns [`ServeError`]
//! everywhere precisely so a client binary never dies on a backtrace.

use cicero::pipeline::{run_pipeline, PipelineConfig};
use cicero::{Scenario, Variant};
use cicero_field::{bake, GridConfig};
use cicero_math::Intrinsics;
use cicero_scene::{library, Trajectory};
use cicero_serve::{Fleet, FleetConfig, QosClass, SessionSpec, Submission};

/// A CLI mistake is the *user's* error, not a pipeline fault: explain and
/// exit instead of panicking with a backtrace.
fn usage(msg: &str) -> ! {
    eprintln!("remote_offload: {msg}");
    eprintln!("usage: remote_offload [--scene NAME]");
    std::process::exit(2);
}

/// A runtime failure (an unknown scene, a rejected serve call) surfaces as
/// a message and a nonzero exit, never a panic.
fn fail(context: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("remote_offload: {context}: {e}");
    std::process::exit(1);
}

fn parse_args() -> String {
    let mut scene = "mic".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scene" => {
                scene = it.next().unwrap_or_else(|| usage("--scene takes a name"));
            }
            other => usage(&format!("unexpected argument {other}")),
        }
    }
    scene
}

fn main() {
    let scene_name = parse_args();
    let scene = library::scene_by_name(&scene_name)
        .unwrap_or_else(|| fail("loading scene", format!("unknown scene {scene_name:?}")));
    let model = bake::bake_grid(
        &scene,
        &GridConfig {
            resolution: 64,
            ..Default::default()
        },
    );
    let intrinsics = Intrinsics::from_fov(96, 96, 0.9);

    println!("remote offload: reference NeRF on the workstation, warping on device\n");
    println!(
        "{:>7} {:>10} {:>14} {:>9}",
        "window", "FPS", "device mJ/frame", "PSNR dB"
    );
    let mut best_window = 2usize;
    let mut best_fps = 0.0;
    for window in [2usize, 4, 8, 16] {
        let traj = Trajectory::orbit(&scene, window * 2 + 2, 30.0);
        let cfg = PipelineConfig {
            variant: Variant::Cicero,
            scenario: Scenario::Remote,
            window,
            ..Default::default()
        };
        let run = run_pipeline(&scene, &model, &traj, intrinsics, &cfg);
        if run.mean_fps() > best_fps {
            best_fps = run.mean_fps();
            best_window = window;
        }
        println!(
            "{:>7} {:>10.2} {:>14.2} {:>9.2}",
            window,
            run.mean_fps(),
            run.mean_energy() * 1e3,
            run.mean_psnr()
        );
    }
    println!("\nLarger windows hide more of the remote render latency (Fig. 22b)");
    println!("but ship fewer reference pixels per frame (lower wireless energy).");

    // Serve the sweep's best window as a live remote session: the same
    // client, now going through admission and the batch scheduler, with
    // every serve call routed through `ServeError` instead of a panic.
    let mut fleet =
        Fleet::new(FleetConfig::default()).unwrap_or_else(|e| fail("serve config refused", e));
    let traj = Trajectory::orbit(&scene, best_window * 2 + 2, 30.0);
    let spec = SessionSpec {
        name: format!("{scene_name}-remote"),
        scene_key: scene_name.clone(),
        qos: QosClass::Standard,
        start_offset_s: 0.0,
        config: PipelineConfig {
            variant: Variant::Cicero,
            scenario: Scenario::Remote,
            window: best_window,
            ..Default::default()
        },
    };
    fleet
        .submit(Submission::trajectory(
            spec, &scene, &model, &traj, intrinsics,
        ))
        .unwrap_or_else(|e| fail("remote session rejected", e));
    let report = fleet.run();
    println!(
        "\nserved live at window {best_window}: {} frames, p99 latency {:.2} ms, {} deadline misses",
        report.frames,
        report.p99_latency_s * 1e3,
        report.deadline_misses
    );
}
