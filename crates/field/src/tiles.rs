//! Tile-parallel frame rendering on the persistent worker pool.
//!
//! The paper's SoC pool is simulated, but wall-clock rendering on the host
//! is real: a frame is cut into full-width row bands — the whole frame on
//! one lane, fixed-height tiles on more — and the bands are handed to the
//! lanes of a [`crate::pool::RenderPool`] checkout by
//! [`crate::pool::Checkout::run_items`] — long-lived parked workers, not
//! per-frame `std::thread::scope` spawns. Because every band runs the exact
//! same per-pixel code as the sequential renderer (see [`crate::render`]'s
//! `render_rows`) and all merging is order-fixed (or an order-free integer
//! sum), the output frame, the [`RenderStats`] and the [`GatherSink`]
//! sample stream are all bit-identical to the sequential path at **any**
//! lane count.
//!
//! Zero-allocation contract: the bands are `chunks_mut` of the **output
//! frame** itself — there are no per-tile staging buffers and no merge
//! copies — per-lane sample scratch comes from each pool worker's
//! persistent thread-local, and the sample traces live in a reused
//! thread-local. After the first (warm-up) frame, a render performs zero
//! heap allocations and zero thread spawns; `tests/zero_alloc.rs` enforces
//! this.
//!
//! Sample streams: every sink's frame is marched the same way. For an
//! observing sink (memory-traffic replays) each band records its committed
//! samples into a trace, and the traces are replayed to the sink in band
//! order, each ray-major: the sink sees
//! [`crate::render::render_reference`]'s stream. Sinks that discard samples
//! ([`crate::NullSink`]; [`GatherSink::observes_samples`] returns `false`)
//! get no trace and no plan built.

use crate::model::NerfModel;
use crate::plan::GatherSink;
use crate::pool::RenderPool;
use crate::render::{
    check_inputs, render_rows, with_thread_scratch, RenderOptions, RenderScratch, RenderStats,
    RowBand, SampleTrace,
};
use cicero_math::Camera;
use cicero_scene::ground_truth::Frame;
use cicero_telemetry as telemetry;
use std::cell::RefCell;
use std::sync::Mutex;

/// Tile-engine options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileOptions {
    /// Parallel lanes. `1` renders inline on the calling thread (identical
    /// code path, no pool traffic); values are clamped to at least 1. The
    /// pool may serve fewer lanes when capped or contended — output is
    /// bit-identical either way.
    pub threads: usize,
    /// Tile height in rows. Tiles are full-width row bands so that merging
    /// in tile order reproduces the sequential row-major pixel order. Frames
    /// shorter than `threads × tile_rows` use proportionally shorter tiles
    /// so every lane still gets one.
    pub tile_rows: usize,
}

impl Default for TileOptions {
    fn default() -> Self {
        TileOptions {
            threads: 1,
            tile_rows: 32,
        }
    }
}

impl TileOptions {
    /// Options with the given thread count and the default tile height.
    pub fn with_threads(threads: usize) -> Self {
        TileOptions {
            threads: threads.max(1),
            ..Default::default()
        }
    }
}

std::thread_local! {
    /// The calling thread's sample traces, one per band of an observed
    /// frame; reused across frames, so a warmed observed render allocates
    /// nothing either.
    static TRACES: RefCell<Vec<SampleTrace>> = const { RefCell::new(Vec::new()) };
}

/// Rows per band and lanes of a frame `h` rows tall: one band of `h` rows
/// on one lane, else bands of the tile height.
fn tile_geometry(h: usize, tile: &TileOptions) -> (usize, usize) {
    // Shrink tiles when the frame is shorter than `threads × tile_rows`, so
    // small frames still split across every lane instead of collapsing to
    // one tile (tiling never affects results, only load balance).
    let threads = tile.threads.max(1);
    let tile_rows = tile.tile_rows.max(1).min(h.div_ceil(threads).max(1));
    let workers = threads.min(h.div_ceil(tile_rows).max(1));
    let band_rows = if workers == 1 { h.max(1) } else { tile_rows };
    (band_rows, workers)
}

/// Renders the pixels selected by `mask` (or all pixels when `None`) into an
/// existing frame, tile-parallel on the persistent worker pool.
///
/// Frame, stats and sink stream are bit-identical at any `tile.threads`.
/// With `threads == 1` it *is* the sequential path: the calling thread
/// renders every row through its own reused scratch as one band, with no
/// pass dispatched. After warm-up it performs zero heap allocations and
/// zero thread spawns per frame.
///
/// # Panics
///
/// Panics if the mask length or frame dimensions mismatch the camera, or if
/// a pool worker panics.
pub fn render_tiled<M: NerfModel + ?Sized, S: GatherSink>(
    model: &M,
    camera: &Camera,
    opts: &RenderOptions,
    mask: Option<&[bool]>,
    frame: &mut Frame,
    sink: &mut S,
    tile: &TileOptions,
) -> RenderStats {
    check_inputs(camera, mask, frame);
    let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
    let (band_rows, workers) = tile_geometry(h, tile);
    let band_px = (band_rows * w).max(1);
    // One trace per band for an observing sink, none for the rest.
    let n_traces = if sink.observes_samples() {
        (w * h).div_ceil(band_px)
    } else {
        0
    };
    // Taken out of the cell for the frame, so a render from a sink callback
    // starts from an empty set instead of a `RefCell` panic.
    let mut traces = TRACES.with(|t| std::mem::take(&mut *t.borrow_mut()));
    if traces.len() < n_traces {
        traces.resize_with(n_traces, SampleTrace::default);
    }
    let traces_used = &mut traces[..n_traces];
    let bands = (frame.color.pixels_mut().chunks_mut(band_px))
        .zip(frame.depth.pixels_mut().chunks_mut(band_px))
        .zip(
            traces_used
                .iter_mut()
                .map(Some)
                .chain(std::iter::repeat_with(|| None)),
        )
        .enumerate();
    // Stats are u64 counters: summing per-lane subtotals is order-free and
    // bit-equal to the sequential accumulation.
    let total = Mutex::new(RenderStats::default());
    // The checkout is a temporary: its workers go back to the pool before
    // the replay.
    RenderPool::global()
        .checkout(workers - 1)
        .run_items(bands, |lane, bands| {
            with_thread_scratch(|rs: &mut RenderScratch| {
                let mut local = RenderStats::default();
                for (i, ((color, depth), trace)) in bands {
                    let span_t0 = telemetry::is_enabled().then(telemetry::now_ns);
                    let y0 = i * band_rows;
                    let y1 = (y0 + band_rows).min(h);
                    let band = RowBand {
                        y0,
                        y1,
                        color,
                        depth,
                        trace,
                    };
                    local.accumulate(&render_rows(model, camera, opts, mask, band, rs));
                    if let Some(t0) = span_t0 {
                        telemetry::span_at(
                            telemetry::Phase::RenderTile,
                            t0,
                            telemetry::now_ns(),
                            y0 as u64,
                            (y1 - y0) as u64,
                            lane as u64,
                        );
                    }
                }
                let mut total = total.lock().expect("a lane panicked adding its stats");
                total.accumulate(&local);
            });
        });
    // Bands in ascending order: they are full-width row bands, so this is
    // the sequential row-major order.
    for trace in traces_used {
        trace.replay(model, camera, sink);
    }
    TRACES.with(|t| *t.borrow_mut() = traces);
    total
        .into_inner()
        .expect("a lane panicked adding its stats")
}

/// Renders a full frame tile-parallel, returning the frame and statistics.
/// Bit-identical to [`crate::render::render_full`] at any thread count.
pub fn render_full_tiled<M: NerfModel + ?Sized, S: GatherSink>(
    model: &M,
    camera: &Camera,
    opts: &RenderOptions,
    sink: &mut S,
    tile: &TileOptions,
) -> (Frame, RenderStats) {
    let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
    let mut frame =
        cicero_scene::ground_truth::background_frame(&crate::model::ModelSource(model), w, h);
    let stats = render_tiled(model, camera, opts, None, &mut frame, sink, tile);
    (frame, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bake;
    use crate::encoding::grid::GridConfig;
    use crate::plan::{GatherPlan, NullSink};
    use crate::render::render_full;
    use cicero_math::{Intrinsics, Pose};
    use cicero_scene::library;

    fn setup() -> (crate::GridModel, Camera) {
        let scene = library::scene_by_name("lego").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 32,
                ..Default::default()
            },
        );
        let cam = Camera::new(
            Intrinsics::from_fov(40, 40, 0.9),
            Pose::look_at(
                cicero_math::Vec3::new(0.0, 1.2, -2.6),
                cicero_math::Vec3::ZERO,
                cicero_math::Vec3::Y,
            ),
        );
        (model, cam)
    }

    #[test]
    fn tiled_full_render_matches_sequential_bitwise() {
        let (model, cam) = setup();
        let opts = RenderOptions::default();
        let (seq_frame, seq_stats) = render_full(&model, &cam, &opts, &mut NullSink);
        for threads in [1, 2, 3, 8] {
            let tile = TileOptions {
                threads,
                tile_rows: 7, // deliberately ragged vs the 40-row frame
            };
            let (par_frame, par_stats) =
                render_full_tiled(&model, &cam, &opts, &mut NullSink, &tile);
            assert_eq!(par_frame, seq_frame, "{threads} threads");
            assert_eq!(par_stats, seq_stats, "{threads} threads");
        }
    }

    #[test]
    fn tiled_sink_stream_matches_sequential_order() {
        let (model, cam) = setup();
        let opts = RenderOptions::default();
        let collect = |threads: usize| {
            let mut events: Vec<(u32, f32, u64)> = Vec::new();
            let mut sink = |ray: u32, t: f32, p: &GatherPlan| events.push((ray, t, p.bytes()));
            if threads == 0 {
                render_full(&model, &cam, &opts, &mut sink);
            } else {
                render_full_tiled(
                    &model,
                    &cam,
                    &opts,
                    &mut sink,
                    &TileOptions {
                        threads,
                        tile_rows: 5,
                    },
                );
            }
            events
        };
        let seq = collect(0);
        assert!(!seq.is_empty());
        for threads in [2, 3, 8] {
            assert_eq!(collect(threads), seq, "{threads} threads");
        }
    }

    #[test]
    fn tiled_masked_render_preserves_unmasked_pixels() {
        let (model, cam) = setup();
        let opts = RenderOptions::default();
        let (w, h) = (40, 40);
        let mut mask = vec![false; w * h];
        for (i, m) in mask.iter_mut().enumerate() {
            *m = i % 3 == 0;
        }
        let src = crate::model::ModelSource(&model);
        let sentinel = cicero_math::Vec3::new(0.123, 0.456, 0.789);
        let mut seq = cicero_scene::ground_truth::background_frame(&src, w, h);
        let mut par = cicero_scene::ground_truth::background_frame(&src, w, h);
        for f in [&mut seq, &mut par] {
            *f.color.get_mut(1, 1) = sentinel; // unmasked: must survive
        }
        let one_lane = TileOptions::default();
        let s1 = render_tiled(
            &model,
            &cam,
            &opts,
            Some(&mask),
            &mut seq,
            &mut NullSink,
            &one_lane,
        );
        let s2 = render_tiled(
            &model,
            &cam,
            &opts,
            Some(&mask),
            &mut par,
            &mut NullSink,
            &TileOptions {
                threads: 4,
                tile_rows: 6,
            },
        );
        assert_eq!(par, seq);
        assert_eq!(s1, s2);
        assert_eq!(*par.color.get(1, 1), sentinel);
    }

    #[test]
    fn repeated_pool_renders_reuse_workers() {
        let (model, cam) = setup();
        let opts = RenderOptions::default();
        let tile = TileOptions {
            threads: 3,
            tile_rows: 8,
        };
        // Warm-up spawns at most the checked-out workers.
        let (first, _) = render_full_tiled(&model, &cam, &opts, &mut NullSink, &tile);
        // Other tests share the global pool and can grow it while this one
        // measures (an 8-lane render beside it spawns up to seven workers).
        // The pool only ever grows to peak demand, so a window somebody
        // raced into is measured again; renders that spawned by themselves
        // would do so in every window.
        let reused = (0..5).any(|_| {
            let before = RenderPool::global().spawned_total();
            for _ in 0..5 {
                let (again, _) = render_full_tiled(&model, &cam, &opts, &mut NullSink, &tile);
                assert_eq!(again, first);
            }
            RenderPool::global().spawned_total() == before
        });
        assert!(reused, "warmed pool renders keep spawning threads");
    }
}
