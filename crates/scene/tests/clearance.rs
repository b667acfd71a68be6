//! The ground truth marches each ray against only the objects whose padded
//! bounds it meets and skips empty space by their signed distance
//! ([`AnalyticScene::march`], [`SourceSample::clearance`]); these tests
//! hold it to the per-step walk over the whole scene and guard the
//! invariants it stands on.
//!
//! - Every library scene marched per ray by `AnalyticScene::march` equals
//!   the scene marched whole as a `RadianceSource`, which keeps the trait's
//!   default `sample_at` — no clearance, every object at every step, one SDF
//!   evaluation for the density and one more for the radiance — bit for bit
//!   in colour, depth and transmittance, with no more queries on any ray
//!   and strictly fewer on every frame.
//! - Every `Shape::sdf` and `AnalyticScene::sdf` is 1-Lipschitz. A shape
//!   that is not would over-state its clearance, and must fail here rather
//!   than as a PSNR drift.
//! - Every `Shape::sdf` is positive outside the shape's bounds grown by
//!   [`CULL_PAD`]. A shape whose bounds are too small would be culled from
//!   rays that meet it.
//!
//! [`SourceSample::clearance`]: cicero_scene::SourceSample::clearance
//! [`AnalyticScene::march`]: cicero_scene::AnalyticScene::march
//! [`CULL_PAD`]: cicero_scene::CULL_PAD

use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_scene::library::{scene_by_name, REAL_WORLD_SCENES, SYNTHETIC_SCENES};
use cicero_scene::volume::{march_ray_auto, MarchParams, MarchResult};
use cicero_scene::{
    AnalyticScene, Material, RadianceSource, SceneBuilder, Shape, Trajectory, CULL_PAD,
};
use proptest::prelude::*;

/// Four handheld cameras a quarter orbit apart, and one inside the bounds
/// (rays start at `t0 = 0`, some of them inside an object's clearance and
/// some inside matter).
fn cameras(scene: &AnalyticScene, side: usize, seed: u64) -> Vec<Camera> {
    let k = Intrinsics::from_fov(side, side, 0.9);
    // 18 degrees a second at 0.2 poses a second: 0, 90, 180 and 270 degrees.
    let path = Trajectory::handheld(scene, 4, 0.2, seed);
    let mut cams: Vec<Camera> = (0..path.len()).map(|i| path.camera(i, k)).collect();
    let b = scene.bounds();
    let eye = b.center() + b.size() * 0.45;
    assert!(b.contains(eye));
    cams.push(Camera::new(k, Pose::look_at(eye, b.center(), Vec3::Y)));
    cams
}

/// Marches every pixel's ray through `AnalyticScene::march` and through
/// the whole scene at every step, compares the results bit for bit and
/// returns `(queries, oracle queries)`.
fn compare_frame(scene: &AnalyticScene, cam: &Camera, params: &MarchParams) -> (u64, u64) {
    let (mut queries, mut oracle_queries) = (0u64, 0u64);
    for y in 0..cam.intrinsics.height {
        for x in 0..cam.intrinsics.width {
            let ray = cam.primary_ray(x as f32 + 0.5, y as f32 + 0.5);
            let got = scene.march(&ray, params);
            let want = march_ray_auto(scene, &ray, params);
            let bits = |r: &MarchResult| {
                [
                    r.color.x.to_bits(),
                    r.color.y.to_bits(),
                    r.color.z.to_bits(),
                    r.depth_t.to_bits(),
                    r.transmittance.to_bits(),
                ]
            };
            assert_eq!(
                bits(&got),
                bits(&want),
                "{} pixel ({x}, {y}) step {}: {got:?} vs {want:?}",
                scene.name,
                params.step
            );
            assert!(got.samples <= want.samples);
            queries += got.samples as u64;
            oracle_queries += want.samples as u64;
        }
    }
    (queries, oracle_queries)
}

fn skip_equals_every_step(side: usize) {
    let names = SYNTHETIC_SCENES.iter().chain(&REAL_WORLD_SCENES);
    for (i, name) in names.enumerate() {
        let scene = scene_by_name(name).unwrap();
        let (mut queries, mut oracle_queries) = (0, 0);
        for (c, cam) in cameras(&scene, side, 7 + i as u64).iter().enumerate() {
            for step in [0.004, 0.01, 0.03] {
                let params = MarchParams {
                    step,
                    ..Default::default()
                };
                let (q, o) = compare_frame(&scene, cam, &params);
                assert!(q < o, "{name} camera {c} step {step}: {q} queries vs {o}");
                queries += q;
                oracle_queries += o;
            }
        }
        println!(
            "{name}: {queries} queries for the oracle's {oracle_queries} ({:.1}x fewer)",
            oracle_queries as f64 / queries as f64
        );
    }
}

#[test]
fn skip_equals_every_step_on_every_library_scene() {
    skip_equals_every_step(12);
}

/// The same at the benchmark's frame size (about 5 s at the dev profile).
#[test]
fn skip_equals_every_step_on_every_library_scene_52px() {
    skip_equals_every_step(52);
}

/// A shape of each kind, sized from four unit draws.
fn shape(kind: usize, s: (f32, f32, f32, f32)) -> Shape {
    let half = Vec3::new(0.1 + s.0, 0.1 + s.1, 0.1 + s.2);
    match kind {
        0 => Shape::Sphere { radius: 0.1 + s.0 },
        1 => Shape::Box { half },
        2 => Shape::Torus {
            major: 0.3 + s.0,
            minor: 0.05 + 0.3 * s.1,
        },
        3 => Shape::Cylinder {
            radius: 0.1 + s.0,
            half_height: 0.1 + s.1,
        },
        4 => Shape::RoundedBox {
            half,
            round: 0.3 * s.3,
        },
        _ => Shape::Capsule {
            a: Vec3::new(-0.1 - s.0, s.1 - 0.5, -s.2),
            b: Vec3::new(0.1 + s.2, 0.5 - s.1, s.0),
            radius: 0.05 + 0.4 * s.3,
        },
    }
}

fn vec3((x, y, z): (f32, f32, f32)) -> Vec3 {
    Vec3::new(x, y, z)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `|sdf(p) − sdf(q)| ≤ |p − q|` up to rounding, for every shape kind at
    /// every size, far pairs and near ones.
    #[test]
    fn every_shape_sdf_is_1_lipschitz(
        kind in 0usize..6,
        size in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
        p in (-4.0f32..4.0, -4.0f32..4.0, -4.0f32..4.0),
        d in (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
        reach in 0.0f32..1.0,
    ) {
        let s = shape(kind, size);
        let p = vec3(p);
        // Cubing the reach puts half the pairs within 0.5 of each other and
        // a fifth within 0.03, where a kink in the distance would show.
        let q = p + vec3(d) * (4.0 * reach * reach * reach);
        let gap = (s.sdf(p) - s.sdf(q)).abs();
        prop_assert!(
            gap <= (p - q).length() + 1e-5,
            "{s:?}: |sdf({p}) - sdf({q})| = {gap} > {}",
            (p - q).length()
        );
    }

    /// The union of translated shapes keeps the bound, and so the clearance
    /// `AnalyticScene::march` reads is one.
    #[test]
    fn every_scene_sdf_is_1_lipschitz(
        kinds in prop::collection::vec(0usize..6, 1..8),
        size in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
        spread in 0.0f32..2.0,
        p in (-4.0f32..4.0, -4.0f32..4.0, -4.0f32..4.0),
        d in (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
        reach in 0.0f32..1.0,
    ) {
        let mut builder = SceneBuilder::new("prop");
        for (i, &kind) in kinds.iter().enumerate() {
            // Sizes and offsets differ per object but derive from the draws.
            let f = (i as f32 * 0.37).fract();
            let sz = (size.0 * (1.0 - f), size.1 * f, size.2, (size.3 + f).fract());
            let at = Vec3::new((i as f32 * 2.4).sin(), (i as f32 * 1.7).cos(), f - 0.5) * spread;
            builder = builder.object(shape(kind, sz), at, Material::default());
        }
        let scene = builder.build();
        let p = vec3(p);
        let q = p + vec3(d) * (4.0 * reach * reach * reach);
        let gap = (scene.sdf(p).0 - scene.sdf(q).0).abs();
        prop_assert!(
            gap <= (p - q).length() + 1e-5,
            "|sdf({p}) - sdf({q})| = {gap} > {}",
            (p - q).length()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    /// Outside its bounds grown by `CULL_PAD` a shape's distance is
    /// positive, for every shape kind at every size: `AnalyticScene::march`
    /// culls by this as the clearance skips by the Lipschitz bound. The
    /// points lie on and beyond the grown box's faces, where a bound that
    /// cuts into its shape would show.
    #[test]
    fn every_shape_sdf_is_positive_outside_its_padded_bounds(
        kind in 0usize..6,
        size in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
        face in 0usize..6,
        on in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
        centred in 0usize..2,
        reach in 0.0f32..1.0,
    ) {
        let s = shape(kind, size);
        let b = s.bounds();
        let (lo, hi) = (b.min - Vec3::splat(CULL_PAD), b.max + Vec3::splat(CULL_PAD));
        // A point of the grown box — half the time drawn nearer its centre,
        // where a sphere, a cylinder's side or a capsule's end touches it —
        // moved onto one face and out along its normal, a sixth of the time
        // by less than 0.01.
        let spread = |u: f32| (2.0 * u - 1.0).powi(1 + 2 * centred as i32);
        let (on, half) = (vec3(on), (hi - lo) * 0.5);
        let mut p = (lo + hi) * 0.5 + half * Vec3::new(spread(on.x), spread(on.y), spread(on.z));
        let (axis, out) = (face % 3, 2.0 * reach * reach * reach);
        p[axis] = if face < 3 { lo[axis] - out } else { hi[axis] + out };
        prop_assert!(
            s.sdf(p) > 0.0,
            "{s:?}: sdf({p}) = {} outside the bounds grown by {CULL_PAD}",
            s.sdf(p)
        );
    }
}
