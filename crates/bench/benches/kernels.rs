//! `kernels` — scalar vs wide microbench for the explicit SIMD kernel layer
//! (ISSUE 9, ISSUE 12): the decoder MLP's `forward_block` and the three
//! encoding gathers, each timed with the runtime kernel switch off and then
//! on under every backend cap the host supports (`sse2`, `avx`).
//!
//! ```text
//! cargo bench -p cicero-bench --features simd --bench kernels
//! ```
//!
//! Without `--features simd` the switch is inert, no wide backend exists and
//! only the scalar column prints. Each line reports Msamples/s per path plus
//! the ratio to scalar; the recorded JSON matrix lives in
//! `results/bench_simd.json` (written by `parallel_baseline --simd-out`),
//! not here.
//!
//! Plain `fn main` timing (harness = false), minimum overhead: every kernel
//! runs a calibrated iteration count so each measurement spans ≥ 50 ms, and
//! reads the best of five.

use cicero_field::simd::{self, Backend};
use cicero_field::{
    DenseGrid, GridConfig, HashConfig, HashGrid, Mlp, MlpBlockScratch, TensorConfig, VmTensor,
};
use cicero_math::{Aabb, Vec3};
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

/// Times `f` with the wide kernels off, then on at each backend cap the
/// host supports, and prints one line. Only `forward_block` has a body per
/// backend; the gathers read the same under every cap.
fn compare(name: &str, samples_per_iter: usize, mut f: impl FnMut() -> f32) {
    simd::set_kernels_enabled(false);
    let scalar = throughput(samples_per_iter, &mut f);
    simd::set_kernels_enabled(true);
    print!("  {name:<28} scalar {:>8.2} Msamples/s", scalar / 1e6);
    for cap in [Backend::Sse2, Backend::Avx] {
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

/// Deterministic sample positions spread over the encoding bounds.
fn positions(n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|i| {
            let t = i as f32 * 0.537;
            Vec3::new(
                t.sin() * 0.9,
                (t * 2.31).cos() * 0.9,
                (t * 0.77).sin() * 0.9,
            )
        })
        .collect()
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "kernels: simd compiled {} (backend {}), host cores {host_cores}",
        simd::compiled(),
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

    // --- Encoding gathers, SoA block layout (`out[row * stride + s]`),
    // feature widths at each family's defaults (all ≥ one F32x8 group).
    println!("encoding gathers:");
    let mut grid = DenseGrid::new(
        GridConfig {
            resolution: 32,
            ..Default::default()
        },
        Aabb::centered_cube(1.0),
    );
    let n = grid.verts_per_axis() as u32;
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let f: Vec<f32> = (0..grid.config().channels)
                    .map(|c| ((x * 59 + y * 11 + z * 3) as usize + c) as f32 * 0.017)
                    .map(f32::sin)
                    .collect();
                grid.set_vertex(x, y, z, &f);
            }
        }
    }
    for block in BLOCKS {
        let ps = positions(block);
        let mut out = vec![0.0f32; grid.config().channels * block];
        compare(&format!("grid   ch 12  block {block:>2}"), block, || {
            grid.interpolate_block_into(black_box(&ps), &mut out, block);
            out[0]
        });
    }

    let mut hash = HashGrid::new(
        HashConfig {
            levels: 4,
            base_resolution: 4,
            max_resolution: 32,
            table_size_log2: 12,
            ..Default::default()
        },
        Aabb::centered_cube(1.0),
    );
    let feats = hash.config().features_per_entry;
    for level in 0..4 {
        for e in 0..hash.levels()[level].table_len as u64 {
            let row: Vec<f32> = (0..feats as u64)
                .map(|c| ((e * 13 + c + level as u64 * 5) as f32 * 0.173).sin())
                .collect();
            hash.entry_mut(level, e).copy_from_slice(&row);
        }
    }
    for block in BLOCKS {
        let ps = positions(block);
        let mut out = vec![0.0f32; 4 * feats * block];
        compare(&format!("hash   4×f8   block {block:>2}"), block, || {
            hash.interpolate_block_into(black_box(&ps), &mut out, block);
            out[0]
        });
    }

    let mut tensor = VmTensor::new(
        TensorConfig {
            resolution: 64,
            ..Default::default()
        },
        Aabb::centered_cube(1.0),
    );
    for o in 0..3 {
        for (i, v) in tensor.plane_mut(o).iter_mut().enumerate() {
            *v = ((i + o * 7) as f32 * 0.0137).sin();
        }
        for (i, v) in tensor.line_mut(o).iter_mut().enumerate() {
            *v = ((i + o * 11) as f32 * 0.0231).cos();
        }
    }
    for block in BLOCKS {
        let ps = positions(block);
        let mut out = vec![0.0f32; 7 * block];
        compare(&format!("tensor ch 28  block {block:>2}"), block, || {
            tensor.interpolate_block_into(black_box(&ps), &mut out, block);
            out[0]
        });
    }
}
