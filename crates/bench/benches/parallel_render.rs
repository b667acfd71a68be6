//! Tile-parallel rendering throughput: threads × resolution sweep.
//!
//! The wall-clock counterpart of the simulated-SoC numbers: how fast the
//! host actually renders a frame through `cicero_field::tiles` as worker
//! threads scale. The recorded figure for the thread axis is the frozen
//! benchmark's `field.tiles.lanes2.speedup`.

use cicero_bench::{bench_camera, bench_model};
use cicero_field::tiles::{render_full_tiled, TileOptions};
use cicero_field::{NullSink, RenderOptions};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_parallel_render(c: &mut Criterion) {
    let model = bench_model();
    let opts = RenderOptions::default();

    let mut g = c.benchmark_group("parallel_render");
    g.sample_size(10);
    for res in [128usize, 256] {
        let cam = bench_camera(res);
        for threads in [1usize, 2, 4, 8] {
            let tile = TileOptions::with_threads(threads);
            g.bench_function(format!("{res}px_{threads}t"), |b| {
                b.iter(|| render_full_tiled(&model, &cam, &opts, &mut NullSink, &tile))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_parallel_render);
criterion_main!(benches);
