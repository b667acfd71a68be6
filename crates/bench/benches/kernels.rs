//! `kernels` — scalar vs wide microbench for the explicit SIMD kernel layer
//! (ISSUE 9, 12, 13): the decoder MLP's `forward_block` and the three
//! encoding gathers, each timed on the portable instance ("scalar") and
//! then under every wider backend cap the host supports (`sse2`, `avx`,
//! `avx512`). The gathers are timed on a cache-hot and a cache-cold working
//! set. Last, what the batched marcher hands those kernels: the cost of a
//! candidate step through the lego occupancy, tested one by one and walked
//! by clearance — through the analytic grid alone and under the grid
//! model's support mask — and lanes evaluated per lane committed at blocks
//! 4/16/64 for a sink that observes samples and one that does not.
//!
//! ```text
//! cargo bench -p cicero-bench --bench kernels
//! ```
//!
//! Off x86_64 no wide backend exists and only the scalar column prints.
//! Each line reports Msamples/s per backend plus the ratio to
//! scalar; the recorded figure is the frozen benchmark's
//! `field.mlp.forward_block.ns_per_sample`, not this bench.
//!
//! Plain `fn main` timing (harness = false), minimum overhead: every kernel
//! runs a calibrated iteration count so each measurement spans ≥ 50 ms, and
//! reads the best of five.

use cicero_field::render::render_full;
use cicero_field::simd::{self, Backend};
use cicero_field::{
    bake, DenseGrid, GatherPlan, GridConfig, HashConfig, HashGrid, Mlp, MlpBlockScratch, NerfModel,
    NullSink, RenderOptions, TensorConfig, VmTensor,
};
use cicero_math::{Aabb, Camera, Intrinsics, Pose, Vec3};
use cicero_telemetry::{self as telemetry, Counter};
use std::hint::black_box;
use std::time::Instant;

const HIDDENS: [usize; 2] = [16, 64];
const BLOCKS: [usize; 2] = [16, 64];

/// Calibrated throughput: grows the repeat count until the timed region
/// spans at least 50 ms, then returns samples per second at the best of
/// five such regions (the container's neighbours come and go in bursts).
fn throughput(samples_per_iter: usize, f: &mut impl FnMut() -> f32) -> f64 {
    let mut time = |iters: u64| {
        let t0 = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..iters {
            acc += f();
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    };
    let mut iters: u64 = 8;
    while time(iters) < 0.05 && iters < 1 << 26 {
        iters = iters.saturating_mul(4);
    }
    let best = (0..5).map(|_| time(iters)).fold(f64::INFINITY, f64::min);
    samples_per_iter as f64 * iters as f64 / best
}

/// Times `f` on the portable instance, then at each wider backend cap the
/// host supports, and prints one line.
fn compare(name: &str, samples_per_iter: usize, mut f: impl FnMut() -> f32) {
    simd::set_backend_cap(Backend::Portable);
    let scalar = throughput(samples_per_iter, &mut f);
    print!("  {name:<28} scalar {:>8.2} Msamples/s", scalar / 1e6);
    for cap in Backend::ALL.into_iter().filter(|&b| b != Backend::Portable) {
        if !cap.supported() {
            continue;
        }
        simd::set_backend_cap(cap);
        let wide = throughput(samples_per_iter, &mut f);
        print!(
            " | {:<8} {:>8.2} Msamples/s {:>5.2}x",
            simd::backend(),
            wide / 1e6,
            wide / scalar
        );
    }
    println!();
}

/// Samples per gather call, the renderer's default block.
const GATHER_BLOCK: usize = 16;

/// The two working sets every gather is timed on, so the compute floor and
/// the cost of misses read as separate numbers: *hot* is 16 positions
/// repeated (every entry row stays in L1), *cold* is 65 536 seeded uniform
/// positions in the bounds (at the default table sizes each block lands on
/// rows the previous ones did not touch).
fn working_sets(bounds: Aabb) -> [(&'static str, Vec<Vec3>); 2] {
    let mut state = 0x5eed_c1ce_0000_0001u64;
    let mut unit = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32
    };
    let size = bounds.size();
    let cold: Vec<Vec3> = (0..1 << 16)
        .map(|_| bounds.min + Vec3::new(size.x * unit(), size.y * unit(), size.z * unit()))
        .collect();
    [("hot", cold[..GATHER_BLOCK].to_vec()), ("cold", cold)]
}

/// One `compare` line per working set: `gather` fills `out` from a block
/// of positions, `rows` feature rows per sample.
fn compare_gather(
    name: &str,
    bounds: Aabb,
    rows: usize,
    gather: impl Fn(&[Vec3], &mut [f32], usize),
) {
    let mut out = vec![0.0f32; rows * GATHER_BLOCK];
    for (set, ps) in working_sets(bounds) {
        compare(&format!("{name} {set:<4}"), ps.len(), || {
            for block in ps.chunks(GATHER_BLOCK) {
                gather(black_box(block), &mut out, GATHER_BLOCK);
            }
            out[0]
        });
    }
}

/// A cheap, seedless fill value in `[-1, 1)` for table entry `i`.
fn fill(i: usize) -> f32 {
    ((i as u32).wrapping_mul(2_654_435_761) >> 8) as f32 / (1u32 << 23) as f32 - 1.0
}

/// The batched marcher's side of the sample engine, on the lego grid model
/// (occupancy 48³) seen by a 128² camera at the default step.
fn marcher() {
    let scene = cicero_scene::library::scene_by_name("lego").expect("library scene");
    let config = GridConfig {
        resolution: 48,
        ..Default::default()
    };
    let model = bake::bake_grid(&scene, &config);
    let camera = Camera::new(
        Intrinsics::from_fov(128, 128, 0.9),
        Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let step = RenderOptions::default().march.step;
    let rays: Vec<_> = (0..128 * 128)
        .filter_map(|i| {
            let ray = camera.primary_ray((i % 128) as f32 + 0.5, (i / 128) as f32 + 0.5);
            let (t0, t1) = model.bounds().intersect(&ray)?;
            Some((ray, t0, ((t1 - t0) / step).ceil() as u32))
        })
        .collect();
    let candidates: u64 = rays.iter().map(|&(_, _, n)| n as u64).sum();

    // A hash model of the scene carries the same analytic occupancy without
    // a support mask (its levels share no lattice): the unmasked side.
    let unmasked = bake::bake_hash(
        &scene,
        &HashConfig {
            levels: 2,
            max_resolution: 32,
            table_size_log2: 10,
            ..Default::default()
        },
    )
    .occupancy;
    println!("march through the lego occupancy ({candidates} candidate steps, step {step}):");
    for (name, grid) in [
        ("analytic 48³ alone", &unmasked),
        ("∧ the grid model's support", &model.occupancy),
    ] {
        // Both walks find the same occupied steps (returned, so the work stays).
        let per_step = || {
            let mut found = 0u32;
            for &(ray, t0, n) in &rays {
                for i in 0..n {
                    found += grid.occupied(ray.at(t0 + (i as f32 + 0.5) * step)) as u32;
                }
            }
            found as f32
        };
        let mut looked_at = 0u64;
        let mut by_clearance = || {
            let (mut found, mut looked_sum) = (0u32, 0u64);
            for (ray, t0, n) in &rays {
                let mut from = 0;
                while from < *n {
                    let (at, looked) = grid.first_occupied_step(ray, *t0, step, from, *n);
                    looked_sum += looked as u64;
                    found += (at < *n) as u32;
                    from = at + 1;
                }
            }
            looked_at = looked_sum;
            found as f32
        };
        let occupied = per_step();
        assert_eq!(occupied, by_clearance());
        let every = throughput(candidates as usize, &mut || per_step());
        let walked = throughput(candidates as usize, &mut by_clearance);
        println!(
            "  {name:<27} {occupied:>6} occupied | per-step occupied {:>6.2} ns/candidate | clearance walk {:>6.2} ns/candidate {:>5.2}x, looks at {:.1} % of them",
            1e9 / every,
            1e9 / walked,
            walked / every,
            100.0 * looked_at as f64 / candidates as f64
        );
    }

    println!("one 128² frame, lanes evaluated / lanes committed:");
    telemetry::enable();
    let counters = [
        Counter::SampleLanesEvaluated,
        Counter::SampleLanesCommitted,
        Counter::MarchStepsVisited,
    ];
    for block in [4usize, 16, 64] {
        let opts = RenderOptions {
            sample_block: block,
            ..Default::default()
        };
        let counts = |observe: bool| {
            let before = counters.map(telemetry::counter_value);
            let (_, stats) = if observe {
                render_full(
                    &model,
                    &camera,
                    &opts,
                    &mut |_: u32, _: f32, _: &GatherPlan| {},
                )
            } else {
                render_full(&model, &camera, &opts, &mut NullSink)
            };
            let after = counters.map(telemetry::counter_value);
            (
                [0, 1, 2].map(|i| after[i] - before[i]),
                stats.samples_indexed,
            )
        };
        let ([seen, seen_kept, _], _) = counts(true);
        let ([unseen, unseen_kept, looked_at], indexed) = counts(false);
        println!(
            "  block {block:>2}: observing sink {seen:>6} / {seen_kept} = {:.3} | NullSink {unseen:>6} / {unseen_kept} = {:.3} | {looked_at} of {indexed} indexed candidates looked at",
            seen as f64 / seen_kept as f64,
            unseen as f64 / unseen_kept as f64,
        );
    }
    telemetry::disable();
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "kernels: wide backends {} (backend {}), host cores {host_cores}",
        Backend::Sse2.supported(),
        simd::backend()
    );

    // --- Decoder MLP forward_block: in 12 → hidden → hidden → 7 signals,
    // the paper-scale shape at hidden 64. The staging copy runs in every
    // path identically; the measured delta is the register-tiled kernel.
    println!("forward_block (12 → h → h → 7):");
    for hidden in HIDDENS {
        let mlp = Mlp::passthrough_decoder(12, hidden, 7);
        for block in BLOCKS {
            let input: Vec<f32> = (0..12 * block).map(|i| (i as f32 * 0.113).sin()).collect();
            let mut scratch = MlpBlockScratch::new();
            compare(
                &format!("hidden {hidden:>2} block {block:>2}"),
                block,
                || {
                    scratch
                        .stage(input.len())
                        .copy_from_slice(black_box(&input));
                    mlp.forward_block(&mut scratch, block)[0]
                },
            );
        }
    }

    // --- Encoding gathers, SoA block layout (`out[row * stride + s]`), each
    // family at its default (paper-scale) configuration, blocks of 16.
    println!("encoding gathers (block {GATHER_BLOCK}):");
    let bounds = Aabb::centered_cube(1.0);

    let mut grid = DenseGrid::new(GridConfig::default(), bounds);
    let channels = grid.config().channels;
    let n = grid.verts_per_axis() as u32;
    let mut row = vec![0.0f32; channels];
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let v = grid.vertex_index(x, y, z) as usize * channels;
                row.iter_mut()
                    .enumerate()
                    .for_each(|(c, f)| *f = fill(v + c));
                grid.set_vertex(x, y, z, &row);
            }
        }
    }
    compare_gather(
        "grid   160³ × 12  ",
        bounds,
        channels,
        |ps, out, stride| grid.interpolate_block_into(ps, out, stride),
    );

    let mut hash = HashGrid::new(HashConfig::default(), bounds);
    let feats = hash.config().features_per_entry;
    for level in 0..hash.config().levels {
        for e in 0..hash.levels()[level].table_len {
            let entry = hash.entry_mut(level, e as u64);
            entry
                .iter_mut()
                .enumerate()
                .for_each(|(c, f)| *f = fill((e + level) * feats + c));
        }
    }
    let rows = hash.config().levels * feats;
    compare_gather(
        "hash   8 × 2¹⁹ × 8",
        bounds,
        rows,
        |ps, out, stride| hash.interpolate_block_into(ps, out, stride),
    );

    let mut tensor = VmTensor::new(TensorConfig::default(), bounds);
    for o in 0..3 {
        for (i, v) in tensor.plane_mut(o).iter_mut().enumerate() {
            *v = fill(i + o * 7);
        }
        for (i, v) in tensor.line_mut(o).iter_mut().enumerate() {
            *v = fill(i + o * 11);
        }
    }
    compare_gather("tensor 128² × 28  ", bounds, 7, |ps, out, stride| {
        tensor.interpolate_block_into(ps, out, stride)
    });
    drop((grid, hash, tensor));

    marcher();
}
