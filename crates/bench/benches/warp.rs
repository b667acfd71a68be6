//! SPARW warping kernel (paper §III, Fig. 17's "Others" cost): point-cloud
//! conversion + transform + z-buffered re-projection of a full frame.

use cicero::{warp_frame, WarpOptions};
use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_scene::ground_truth::render_frame;
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, RadianceSource};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_warp(c: &mut Criterion) {
    let scene = library::scene_by_name("lego").expect("library scene");
    let cam0 = Camera::new(
        Intrinsics::from_fov(128, 128, 0.9),
        Pose::look_at(Vec3::new(0.0, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let cam1 = Camera::new(
        cam0.intrinsics,
        Pose::look_at(Vec3::new(0.15, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let reference = render_frame(&scene, &cam0, &MarchParams::default());
    let bg = scene.background();

    let mut g = c.benchmark_group("warp");
    g.bench_function("warp_128x128", |b| {
        b.iter(|| {
            warp_frame(
                black_box(&reference),
                &cam0,
                &cam1,
                bg,
                &WarpOptions::default(),
            )
        })
    });
    g.bench_function("warp_128x128_phi", |b| {
        let opts = WarpOptions { phi: Some(0.05) };
        b.iter(|| warp_frame(black_box(&reference), &cam0, &cam1, bg, &opts))
    });
    g.finish();
}

criterion_group!(benches, bench_warp);
criterion_main!(benches);
