//! The renderer's inner sample loop must perform **zero heap allocations**
//! once its per-thread scratch is warm (the
//! paper's thesis is that per-sample overheads, not FLOPs, dominate neural
//! rendering). A counting global allocator measures a full warmed-up frame
//! render: the second render through the same scratch must not allocate at
//! all.
//!
//! The persistent worker pool widened the contract: a warmed
//! **pool-parallel** frame — checkout, job dispatch, pass barriers, direct
//! frame writes, stats merge, worker release — and a warmed pool warp
//! through [`cicero::sparw::warp_frame_into`] (one checkout, four pass
//! barriers, reused output buffers) must also allocate nothing and spawn no
//! threads. The allocator counter is process-global, so it covers the pool
//! workers' lanes too, not just the calling thread.
//!
//! The telemetry subsystem widened it again: with the recorder
//! **enabled**, the same warmed paths — frame spans, pool job/pass spans,
//! worker busy/idle tallies, counters and histograms — must still allocate
//! nothing. Per-thread rings are pre-sized atomics created lazily at a
//! thread's first record, so the telemetry-on warm-up frame both grows the
//! scratches and materializes every ring; the measured frame then runs
//! entirely on relaxed atomic stores.
//!
//! The analytic ground truth allocates its two images and nothing per ray,
//! at any frame size.
//!
//! A target frame through [`cicero::sparw::render_target`] allocates its
//! own result — the warped frame, its status and render mask — so a warmed
//! one allocates a fixed number of times: the same at 16² as at 48².
//!
//! The traffic sinks joined: a frame rendered into a
//! `PixelCentricTraffic` or a `StreamingTraffic` allocates for the sink's
//! construction and for the growth of its arenas — a few dozen times, not
//! once or more per sample.
//!
//! Every leg that runs a kernel runs once per vector backend the host
//! supports, capped with `simd::set_backend_cap`: the wide instances stage
//! lanes through stack arrays, and must not allocate either.
//!
//! This file deliberately contains a single `#[test]` — the counter is
//! process-global, and concurrent tests in the same binary would perturb it.

use cicero::sparw::{render_target, warp_frame_into, WarpOptions, WarpResult, WarpScratch};
use cicero::traffic::{PixelCentricConfig, PixelCentricTraffic, StreamingConfig, StreamingTraffic};
use cicero_field::pool::RenderPool;
use cicero_field::render::RenderOptions;
use cicero_field::simd::{self, Backend};
use cicero_field::tiles::{render_tiled, TileOptions};
use cicero_field::{bake, GatherPlan, GridConfig, HashConfig, NerfModel, NullSink, TensorConfig};
use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_scene::ground_truth::render_frame;
use cicero_scene::volume::MarchParams;
use cicero_scene::RadianceSource;
use cicero_telemetry as telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// wrapper only increments a counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warmed_sample_loop_performs_zero_heap_allocations() {
    let scene = cicero_scene::library::scene_by_name("lego").unwrap();
    let models: [(&str, Box<dyn NerfModel>); 3] = [
        (
            "grid",
            Box::new(bake::bake_grid(
                &scene,
                &GridConfig {
                    resolution: 24,
                    ..Default::default()
                },
            )),
        ),
        (
            "hash",
            Box::new(bake::bake_hash(
                &scene,
                &HashConfig {
                    levels: 4,
                    base_resolution: 4,
                    max_resolution: 24,
                    table_size_log2: 10,
                    ..Default::default()
                },
            )),
        ),
        (
            "tensor",
            Box::new(bake::bake_tensor(
                &scene,
                &TensorConfig {
                    resolution: 24,
                    ..Default::default()
                },
            )),
        ),
    ];
    let cam = Camera::new(
        Intrinsics::from_fov(32, 32, 0.9),
        Pose::look_at(Vec3::new(0.0, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let opts = RenderOptions::default();
    // One tile lane: the calling thread renders every row.
    let one = TileOptions::default();

    // Every leg below runs the kernels — the MLP block kernel, the gathers,
    // the SPARW passes — so it runs once per backend this host supports:
    // all of them accumulate in registers and stage lanes through stack
    // arrays, and none may add an allocation to a warmed frame.
    // The warp legs warp one ground-truth frame to a nearby pose on four
    // lanes, through one warp scratch and output.
    let scene = cicero_scene::library::scene_by_name("lego").unwrap();
    let k = Intrinsics::from_fov(48, 48, 0.9);
    let look = |from: Vec3| Camera::new(k, Pose::look_at(from, Vec3::ZERO, Vec3::Y));
    let (ref_cam, tgt_cam) = (
        look(Vec3::new(0.0, 1.3, -2.8)),
        look(Vec3::new(0.2, 1.25, -2.7)),
    );
    let reference = render_frame(&scene, &ref_cam, &MarchParams::default());
    let (wopts, background) = (WarpOptions::default(), scene.background());
    let (mut warp_scratch, mut warp_out) = (WarpScratch::new(), WarpResult::empty());
    let mut warp = || {
        let (scratch, out) = (&mut warp_scratch, &mut warp_out);
        warp_frame_into(
            &reference, &ref_cam, &tgt_cam, background, &wopts, scratch, 4, out,
        );
        warp_out.stats().warped
    };

    let pool = RenderPool::global();
    for backend in Backend::ALL.into_iter().filter(|b| b.supported()) {
        simd::set_backend_cap(backend);
        println!("simd::backend() = {}", simd::backend());

        // The marcher must hold the contract at both ends of its lane count: a
        // one-lane block (every processed sample is its own flush) and the
        // default block. Its scratch — lane arrays, per-lane plan levels,
        // ping-pong activation matrices, the slots of the rays in flight — is
        // the calling thread's on one tile lane, and warms on frame one.
        for sample_block in [1usize, cicero_field::DEFAULT_SAMPLE_BLOCK] {
            // An unoptimised one-lane block costs several times more per sample;
            // a quarter of the rays warm and measure the same buffers.
            let side = if sample_block == 1 { 16 } else { 32 };
            let cam = Camera::new(Intrinsics::from_fov(side, side, 0.9), cam.pose);
            for (name, model) in &models {
                let model = model.as_ref();
                let opts = RenderOptions {
                    sample_block,
                    ..opts
                };
                let mut frame = cicero_scene::ground_truth::background_frame(
                    &cicero_field::ModelSource(model),
                    side,
                    side,
                );
                // Warm-up: grows every scratch capacity (features, plan levels,
                // MLP ping-pong activations, sample-block lanes) to its
                // steady-state size.
                let warm = render_tiled(model, &cam, &opts, None, &mut frame, &mut NullSink, &one);
                assert!(warm.samples_processed > 0, "{name}: no samples rendered");

                let before = ALLOCATIONS.load(Ordering::SeqCst);
                let stats = render_tiled(model, &cam, &opts, None, &mut frame, &mut NullSink, &one);
                let after = ALLOCATIONS.load(Ordering::SeqCst);
                assert_eq!(
                    after - before,
                    0,
                    "{name}: warmed block-{sample_block} one-lane render of {} samples allocated {} times",
                    stats.samples_processed,
                    after - before
                );
            }
        }

        // ---- The pool-parallel paths ----
        //
        // Tile rendering through the persistent worker pool: the first frame
        // spawns and warms the workers; after that a frame's checkout, job
        // dispatch, barrier, direct-to-frame tile writes, stats merge and
        // worker release must neither allocate nor spawn.
        {
            let model = models[0].1.as_ref(); // grid
            let tile = TileOptions {
                threads: 4,
                tile_rows: 8,
            };
            let mut frame = cicero_scene::ground_truth::background_frame(
                &cicero_field::ModelSource(model),
                32,
                32,
            );
            for _ in 0..2 {
                render_tiled(model, &cam, &opts, None, &mut frame, &mut NullSink, &tile);
            }
            let spawns_before = pool.spawned_total();
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let stats = render_tiled(model, &cam, &opts, None, &mut frame, &mut NullSink, &tile);
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert!(stats.samples_processed > 0);
            assert_eq!(
                after - before,
                0,
                "warmed pool render allocated {} times",
                after - before
            );
            assert_eq!(
                pool.spawned_total(),
                spawns_before,
                "warmed pool render spawned threads"
            );
        }

        // Pool warping: one checkout, four pass barriers, caller-owned output.
        // `warp_frame_into` reuses the result's frame/status buffers, the warp
        // scratch and the pool workers — a warmed warp is allocation-free end
        // to end.
        warp();
        warp();
        let spawns_before = pool.spawned_total();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let warped = warp();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert!(warped > 0);
        assert_eq!(
            after - before,
            0,
            "warmed pool warp allocated {} times",
            after - before
        );
        assert_eq!(
            pool.spawned_total(),
            spawns_before,
            "warmed pool warp spawned threads"
        );

        // ---- The same paths with telemetry ON ----
        //
        // Enabling the recorder must not reintroduce allocations: probes write
        // into pre-sized per-thread atomic rings. The warm-up pass below doubles
        // as ring creation (each thread's ring is built lazily at its first
        // record, which does allocate — once, covered by the warm-up).
        // Reset: the rings of an earlier backend's pass are full, and the
        // span checks below count what this pass adds.
        telemetry::enable();
        telemetry::reset();
        assert!(telemetry::is_enabled());
        {
            let model = models[0].1.as_ref(); // grid
            let opts = RenderOptions {
                sample_block: cicero_field::DEFAULT_SAMPLE_BLOCK,
                ..opts
            };
            let mut frame = cicero_scene::ground_truth::background_frame(
                &cicero_field::ModelSource(model),
                32,
                32,
            );
            // Single-thread batched render.
            render_tiled(model, &cam, &opts, None, &mut frame, &mut NullSink, &one);
            let events_before = telemetry::event_count();
            let marcher_counts = || {
                [
                    telemetry::Counter::MarchStepsVisited,
                    telemetry::Counter::SampleLanesEvaluated,
                    telemetry::Counter::SampleLanesCommitted,
                ]
                .map(telemetry::counter_value)
            };
            let counts_before = marcher_counts();
            let jobs_before = telemetry::counter_value(telemetry::Counter::PoolJobs);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let stats = render_tiled(model, &cam, &opts, None, &mut frame, &mut NullSink, &one);
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert_eq!(
                telemetry::counter_value(telemetry::Counter::PoolJobs),
                jobs_before,
                "a one-lane render dispatched a pool pass"
            );
            assert!(stats.samples_processed > 0);
            assert_eq!(
                after - before,
                0,
                "telemetry-on warmed render allocated {} times",
                after - before
            );
            assert!(
                telemetry::event_count() > events_before,
                "telemetry-on render recorded no spans"
            );

            // Lane accounting of the batched marcher (this is the only test in
            // its binary, so the global counters see this render alone). Every
            // sink gets one lane per ray per block, so no lane is evaluated
            // past an early exit while the band still has a pixel
            // for every slot; only the last `block - 1` rays can share blocks,
            // and each of them can then lose at most `block - 1` lanes. And the
            // walk through the occupancy looks at far fewer candidates than the
            // render indexes.
            let [visited, evaluated, committed] = {
                let after = marcher_counts();
                [0, 1, 2].map(|i| after[i] - counts_before[i])
            };
            let block = opts.sample_block as u64;
            println!(
                "marcher at block {block}: {visited} candidates visited of {} indexed, {evaluated} lanes evaluated, {committed} committed",
                stats.samples_indexed
            );
            assert_eq!(committed, stats.samples_processed);
            assert!(
                evaluated - committed <= (block - 1) * (block - 1),
                "{evaluated} lanes evaluated for {committed} committed at block {block}"
            );
            assert!(
                visited >= committed && visited * 2 < stats.samples_indexed,
                "{visited} candidates visited of {} indexed",
                stats.samples_indexed
            );

            // Pool-parallel tile render: worker rings, busy/idle tallies, job
            // and pass spans, checkout counters.
            let tile = TileOptions {
                threads: 4,
                tile_rows: 8,
            };
            for _ in 0..2 {
                render_tiled(model, &cam, &opts, None, &mut frame, &mut NullSink, &tile);
            }
            let jobs_before = telemetry::counter_value(telemetry::Counter::PoolJobs);
            let spawns_before = pool.spawned_total();
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            render_tiled(model, &cam, &opts, None, &mut frame, &mut NullSink, &tile);
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert_eq!(
                after - before,
                0,
                "telemetry-on warmed pool render allocated {} times",
                after - before
            );
            assert_eq!(pool.spawned_total(), spawns_before);
            assert!(
                telemetry::counter_value(telemetry::Counter::PoolJobs) > jobs_before,
                "telemetry-on pool render recorded no jobs"
            );
        }

        // Pool warp with telemetry on: warp pass spans ride the pool job spans.
        warp();
        warp();
        let events_before = telemetry::event_count();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let warped = warp();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert!(warped > 0);
        assert_eq!(
            after - before,
            0,
            "telemetry-on warmed pool warp allocated {} times",
            after - before
        );
        assert!(
            telemetry::event_count() > events_before,
            "telemetry-on warp recorded no spans"
        );
        telemetry::disable();
        assert!(!telemetry::is_enabled());
    }
    simd::set_backend_cap(Backend::WIDEST);

    // ---- The ground truth ----
    //
    // The analytic render allocates its colour and depth images and nothing
    // per ray: the per-ray culled source lives on the stack, so a frame of
    // nine times the rays allocates the same twice.
    {
        let count = |side: usize| {
            let cam = Camera::new(Intrinsics::from_fov(side, side, 0.9), ref_cam.pose);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let frame = render_frame(&scene, &cam, &MarchParams::default());
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert!(frame.depth.coverage() > 0.0);
            after - before
        };
        let (small, large) = (count(16), count(48));
        assert_eq!(
            (small, large),
            (2, 2),
            "a lego ground truth allocated {small} times at 16² and {large} at 48²"
        );
    }

    // ---- A target frame ----
    //
    // `render_target` returns a fresh frame each call: the warped frame's
    // color and depth, the pixel status and the render mask. With its warp
    // scratch and the render's thread scratch warm, that is all it
    // allocates, a fixed count whatever the frame size: nothing per pixel
    // or per sample. One lane, so the count is this thread's alone.
    {
        let model = models[0].1.as_ref(); // grid
        let count = |side: usize| {
            let k = Intrinsics::from_fov(side, side, 0.9);
            let (from, to) = (Camera::new(k, ref_cam.pose), Camera::new(k, tgt_cam.pose));
            let reference = render_frame(&scene, &from, &MarchParams::default());
            let mut scratch = WarpScratch::new();
            let mut target = || {
                render_target(
                    model,
                    &opts,
                    &reference,
                    &from,
                    &to,
                    &wopts,
                    &mut scratch,
                    &one,
                    &mut NullSink,
                )
            };
            target();
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let t = target();
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert!(
                t.warp.warped > 0 && t.render.rays > 0,
                "{side}²: {:?}",
                t.warp
            );
            after - before
        };
        let (small, large) = (count(16), count(48));
        println!("a warmed target frame allocated {small} times at 16² and {large} at 48²");
        assert_eq!(
            small, large,
            "a warmed target frame allocated {small} times at 16² and {large} at 48²"
        );
    }

    // ---- The traffic sinks ----
    //
    // A sink that observes samples gets the frame's committed samples
    // recorded into this thread's reused trace and replayed with one reused
    // plan; what is left to allocate is the trace's growth from the small
    // warm-up frame to this one, the sink itself (address map, cache tags,
    // bank loads, one MVoxel partition per dense region) and the doubling of
    // the pixel-centric wave's arenas. None of that depends on the kernels'
    // backend, so this leg runs once, uncapped.
    {
        let side = 48;
        let cam = Camera::new(Intrinsics::from_fov(side, side, 0.9), cam.pose);
        for (name, model) in &models {
            let model = model.as_ref();
            let mut frame = cicero_scene::ground_truth::background_frame(
                &cicero_field::ModelSource(model),
                side,
                side,
            );
            // A small frame warms this thread's trace and replay plan (the
            // legs above rendered into `NullSink`, which gets neither).
            let small = Camera::new(Intrinsics::from_fov(12, 12, 0.9), cam.pose);
            let mut warm = cicero_scene::ground_truth::background_frame(
                &cicero_field::ModelSource(model),
                12,
                12,
            );
            let mut counting = |_: u32, _: f32, _: &GatherPlan| {};
            render_tiled(model, &small, &opts, None, &mut warm, &mut counting, &one);

            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let mut sink = PixelCentricTraffic::new(model, PixelCentricConfig::default());
            let stats = render_tiled(model, &cam, &opts, None, &mut frame, &mut sink, &one);
            let pixel = sink.finish();
            let mid = ALLOCATIONS.load(Ordering::SeqCst);
            let mut sink = StreamingTraffic::new(model, StreamingConfig::default());
            render_tiled(model, &cam, &opts, None, &mut frame, &mut sink, &one);
            let streaming = sink.finish();
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            let samples = stats.samples_processed;
            assert!(samples > 1000, "{name}: {samples} samples");
            assert!(pixel.bank.requests > 0 && streaming.rit_records > 0);
            println!(
                "{name}: {samples} samples, pixel-centric frame allocated {} times, streaming {}",
                mid - before,
                after - mid
            );
            for (sink, allocations) in [("pixel-centric", mid - before), ("streaming", after - mid)]
            {
                assert!(
                    allocations <= 64,
                    "{name}: a {sink} frame of {samples} samples allocated {allocations} times"
                );
            }
        }
    }

    // ---- Armed fault injection ----
    //
    // Fault decisions are keyed hashes over stack bytes: an armed
    // [`FaultPlan`] consulted at every scheduler seam must add zero heap
    // allocations per warmed frame. A dense sweep over every fault kind —
    // far more draws than any real frame performs — must leave the
    // allocation counter untouched.
    {
        use cicero_serve::{FaultKind, FaultPlan};
        let plan = FaultPlan::seeded(7);
        let kinds = [
            FaultKind::WorkerCrash,
            FaultKind::Straggler,
            FaultKind::CacheCorruption,
            FaultKind::PoseStall,
            FaultKind::PoseDrop,
        ];
        // Warm-up (nothing to warm — draws own no state — but keep the
        // measurement shape identical to the other legs).
        let mut fired = 0u64;
        for kind in kinds {
            fired += u64::from(plan.fires(kind, 1, 2, 3));
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for kind in kinds {
            for a in 0..256u64 {
                fired += u64::from(std::hint::black_box(plan.fires(kind, a, a / 3, a % 5)));
            }
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "armed fault draws allocated {} times",
            after - before
        );
        assert!(std::hint::black_box(fired) > 0, "seeded plan never fired");
    }
}
