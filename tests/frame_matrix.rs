//! The frame-path determinism contract as rows: host threads, the sample
//! block, the vector backend, the sink kind, telemetry and the worker pool's
//! lifecycle move wall-clock time and never a pixel, a [`RenderStats`]
//! count, a sink sample stream, a warped frame or a simulated report.
//!
//! One fixture — the baked families (grid lego, hash chair at 11 and at 8
//! features per entry, tensor ship at 21 and at 35 channels, 24³ each), one
//! odd-sided camera and one warp pair — one [`run`] from a [`Case`] to an
//! [`Outcome`], and [`check`]. A case is *content* (family, mask,
//! occupancy, work) plus *knobs* (block, tile lanes, backend, sink,
//! telemetry, pool); every pass of a row's outcome
//! must `==` the oracle of its content: [`render_reference`] (the
//! per-sample loop), the serial `warp_frame`, the two in turn for a target
//! frame, or a serial one-lane pipeline, each capped to
//! [`Backend::Portable`]. Before that, every pass that rendered must keep
//! the laws of its [`RenderStats`] ([`RenderStats::check`]: processed ≤
//! indexed, reads, bytes and MACs in proportion to processed, rays ≤
//! pixels). Each row moves one axis away from
//! [`BASE`] — or, for the pool rows, from the 8-lane row — and the `all
//! wide` rows start from [`WIDE`], every knob moved at once. A row runs on
//! every family of its column: each encoding has its own block gather and
//! its own wide kernel.
//!
//! The hash and tensor models are baked at feature widths with ragged lane
//! tails — 11 features per hash entry over six levels, dense then hashed
//! (an 8-lane group plus three 1-lane tails), and the paper's 8 (one 8-lane
//! group: the `H` of AVX-512, the `W` of AVX); 21 tensor channels (two
//! 8-lane groups, a 4-lane group and a 1-lane tail; at 16 lanes one group,
//! a 4-lane group and a tail) and 35 (four 8-lane groups or two 16-lane
//! ones, then three 1-lane tails, five components per signal straddling the
//! groups) — so every instance of every gather runs on a full frame.
//!
//! This file is a module, not a test binary: `tests/batch_equivalence.rs`
//! (sample block, masks, sink kinds), `tests/simd_equivalence.rs` (vector
//! backend, every knob wide) and `tests/parallel_determinism.rs` (tile and
//! warp lanes, the pool, telemetry) include it, and each of their frame-path
//! tests is [`check`] of its own rows. Each binary bakes a family on first
//! use and computes each oracle once.
//!
//! Rows run under [`lock`]: the backend cap, the telemetry recorder and the
//! pool cap are process-wide, so a test beside them that moves one takes the
//! lock too. A test fails once, after every row of it has run, listing each
//! failing row as `[<row> · <family>]` and what differed (or the panic it
//! raised).

// Each including binary uses its own part of the fixture.
#![allow(dead_code)]

use cicero::pipeline::{PipelineConfig, PipelineSession};
use cicero::sparw::{render_target, warp_frame, warp_frame_into, PixelSource, WarpOptions};
use cicero::sparw::{WarpResult, WarpScratch, WarpStats};
use cicero::Variant;
use cicero_accel::soc::FrameReport;
use cicero_field::pool::RenderPool;
use cicero_field::render::render_reference;
use cicero_field::simd::{self, Backend};
use cicero_field::{
    bake, render_tiled, GatherPlan, GridConfig, HashConfig, ModelSource, NerfModel, NullSink,
    RenderOptions, RenderStats, StatsViolation, TensorConfig, TileOptions, DEFAULT_SAMPLE_BLOCK,
};
use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_scene::ground_truth::{background_frame, render_frame, Frame};
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, AnalyticScene, RadianceSource, Trajectory};
use cicero_telemetry as telemetry;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// The render camera's side, in pixels: odd, so no lane group, block or tile
/// band divides a row or the frame evenly.
const SIDE: usize = 19;

/// The warp pair's side: odd too, and large enough that a target pixel
/// sums splats from several reference bands at eight lanes and that band
/// tails land on the object.
const WARP_SIDE: usize = 47;

/// The pool caps a `Pool::Resize` case renders one pass at each of: zero
/// (every pass inline), regrowth, and shrinking between passes.
const CAPS: [usize; 7] = [0, 1, 2, 63, 3, 0, 63];

/// Per-thread ring slots while a telemetry row records: small enough that a
/// render overflows it, so the row also checks that the recorder says so.
const RING: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Grid,
    Hash,
    /// Hash at 8 features per entry, the benchmark's width.
    Hash8,
    Tensor,
    /// Tensor ship at 35 channels.
    Tensor35,
}

/// One model per encoding.
pub const ALL: &[Family] = &[Family::Grid, Family::Hash, Family::Tensor];
pub const GRID: &[Family] = &[Family::Grid];
/// Every baked feature width.
pub const WIDTHS: &[Family] = &[
    Family::Grid,
    Family::Hash,
    Family::Hash8,
    Family::Tensor,
    Family::Tensor35,
];
/// Hash at the benchmark's width alone.
pub const HASH8: &[Family] = &[Family::Hash8];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mask {
    Full,
    /// Every 5th and every 7th pixel: blocks pack non-adjacent rays.
    Sparse,
    /// Fewer rays than block slots: the whole render is a band end.
    ThreeRays,
    /// One full row.
    OneRow,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    Render,
    /// Warp the family's ground-truth frame from the warp pair's reference
    /// to its target.
    Warp(WarpOptions),
    /// The same warp, then the family's model sparse-renders the holes:
    /// `render_target`, one target frame.
    Target(WarpOptions),
    /// A four-frame trajectory with the traffic simulators attached.
    Pipeline(Variant),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// One pass.
    Fresh,
    /// Back-to-back passes through the warm pool and scratches; for a
    /// pipeline, a second session stepped in lockstep on the same pool.
    Reuse,
    /// One pass at each of [`CAPS`], the pool resized in between.
    Resize,
}

#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub family: Family,
    pub mask: Mask,
    pub occupancy: bool,
    pub work: Work,
    pub block: usize,
    pub lanes: usize,
    pub tile_rows: usize,
    pub backend: Backend,
    pub observe: bool,
    pub telemetry: bool,
    pub pool: Pool,
}

/// The oracle's knobs on grid lego's full frame: the default block on one
/// lane, the portable kernels, an observing sink, telemetry off.
pub const BASE: Case = Case {
    family: Family::Grid,
    mask: Mask::Full,
    occupancy: true,
    work: Work::Render,
    block: DEFAULT_SAMPLE_BLOCK,
    lanes: 1,
    tile_rows: 4,
    backend: Backend::Portable,
    observe: true,
    telemetry: false,
    pool: Pool::Fresh,
};

/// Every knob wide at once: the widest block and lanes, the backend uncapped
/// (the host's widest), the sink that records no trace and gets no plan
/// built, telemetry recording, a warm pool.
pub const WIDE: Case = Case {
    block: 64,
    lanes: 8,
    backend: Backend::WIDEST,
    observe: false,
    telemetry: true,
    pool: Pool::Reuse,
    ..BASE
};

pub const WARP: WarpOptions = WarpOptions { phi: None };
pub const PHI: WarpOptions = WarpOptions { phi: Some(0.1) };

pub const fn warp(work: WarpOptions, base: Case) -> Case {
    Case {
        work: Work::Warp(work),
        ..base
    }
}

pub const fn target(work: WarpOptions, base: Case) -> Case {
    Case {
        work: Work::Target(work),
        ..base
    }
}

pub const fn pipeline(variant: Variant, base: Case) -> Case {
    Case {
        work: Work::Pipeline(variant),
        ..base
    }
}

/// `(row, families, case)`; the case's own family is replaced by each entry
/// of the column in turn.
pub type Row = (&'static str, &'static [Family], Case);

/// What a sink saw of every processed sample: ray, `t`, plan bytes, entry
/// reads.
type Events = Vec<(u32, f32, u64, u64)>;

/// One pass of a case's work.
#[derive(Debug, PartialEq)]
enum Pass {
    /// Frame, stats, sink stream.
    Render(Frame, RenderStats, Events),
    /// Warped frame, pixel status.
    Warp(Frame, Vec<PixelSource>),
    /// Target frame, warp stats, the sparse render's stats and sink stream.
    Target(Frame, WarpStats, RenderStats, Events),
    /// Frames, each frame's simulated report and warp stats.
    Pipeline(Vec<Frame>, Vec<(FrameReport, Option<WarpStats>)>),
}

/// Every pass a case ran, in order.
type Outcome = Vec<Pass>;

impl Pass {
    /// [`RenderStats::check`] of the pass's render, if it rendered: a full
    /// frame of `SIDE²` pixels, or the holes of a `WARP_SIDE²` target.
    fn check(&self, model: &dyn NerfModel) -> Result<(), Vec<StatsViolation>> {
        match self {
            Pass::Render(_, stats, _) => stats.check(model, (SIDE * SIDE) as u64),
            Pass::Target(_, _, stats, _) => stats.check(model, (WARP_SIDE * WARP_SIDE) as u64),
            Pass::Warp(..) | Pass::Pipeline(..) => Ok(()),
        }
    }

    /// The part that differs from `want`, for a failure message.
    fn difference(&self, want: &Pass) -> &'static str {
        match (self, want) {
            (Pass::Render(f, s, _), Pass::Render(wf, ws, _)) => {
                if s != ws {
                    "RenderStats"
                } else if f != wf {
                    "frame"
                } else {
                    "sink stream"
                }
            }
            (Pass::Warp(f, _), Pass::Warp(wf, _)) if f != wf => "warped frame",
            (Pass::Warp(..), Pass::Warp(..)) => "pixel status",
            (Pass::Target(f, w, s, _), Pass::Target(wf, ww, ws, _)) => {
                if w != ww {
                    "WarpStats"
                } else if s != ws {
                    "RenderStats"
                } else if f != wf {
                    "target frame"
                } else {
                    "sink stream"
                }
            }
            (Pass::Pipeline(f, _), Pass::Pipeline(wf, _)) if f != wf => "pipeline frames",
            (Pass::Pipeline(..), Pass::Pipeline(..)) => "simulated reports or warp stats",
            _ => "kind of work",
        }
    }
}

/// One family's assets.
pub struct Baked {
    pub scene: AnalyticScene,
    pub model: Box<dyn NerfModel + Send>,
    pub trajectory: Trajectory,
    /// The scene's ground truth from the warp pair's reference camera: what
    /// warp rows warp.
    ground_truth: Frame,
}

impl Baked {
    fn new(family: Family, warp_reference: &Camera) -> Baked {
        let scene_name = ["lego", "chair", "chair", "ship", "ship"][family as usize];
        let scene = library::scene_by_name(scene_name).unwrap();
        let tensor = |components_per_signal| {
            bake::bake_tensor(
                &scene,
                &TensorConfig {
                    resolution: 24,
                    components_per_signal,
                    ..Default::default()
                },
            )
        };
        let model: Box<dyn NerfModel + Send> = match family {
            Family::Grid => Box::new(bake::bake_grid(
                &scene,
                &GridConfig {
                    resolution: 24,
                    ..Default::default()
                },
            )),
            Family::Hash | Family::Hash8 => {
                let model = bake::bake_hash(
                    &scene,
                    &HashConfig {
                        levels: 6,
                        base_resolution: 4,
                        max_resolution: 24,
                        table_size_log2: 10,
                        features_per_entry: if family == Family::Hash { 11 } else { 8 },
                        ..Default::default()
                    },
                );
                assert!((1..6).contains(&model.encoding.first_hashed_level()));
                Box::new(model)
            }
            Family::Tensor => Box::new(tensor(3)),
            Family::Tensor35 => Box::new(tensor(5)),
        };
        Baked {
            model,
            trajectory: Trajectory::orbit(&scene, 4, 40.0),
            ground_truth: render_frame(&scene, warp_reference, &MarchParams::default()),
            scene,
        }
    }
}

pub struct Fixture {
    /// Each family's assets, baked on first use.
    families: [OnceLock<Baked>; 5],
    pub camera: Camera,
    /// The warp pair: warp rows warp the ground truth from `warp_reference`
    /// to `warp_target`.
    warp_reference: Camera,
    warp_target: Camera,
    sparse: Vec<bool>,
    three_rays: Vec<bool>,
    one_row: Vec<bool>,
}

impl Fixture {
    fn new() -> Fixture {
        let camera = Camera::new(
            Intrinsics::from_fov(SIDE, SIDE, 0.9),
            Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
        );
        let warp_camera = |eye| {
            let k = Intrinsics::from_fov(WARP_SIDE, WARP_SIDE, 0.9);
            Camera::new(k, Pose::look_at(eye, Vec3::ZERO, Vec3::Y))
        };
        let pixels = || 0..SIDE * SIDE;
        let center = SIDE / 2 * SIDE + SIDE / 2;
        Fixture {
            families: Default::default(),
            camera,
            warp_reference: warp_camera(Vec3::new(0.0, 1.3, -2.8)),
            warp_target: warp_camera(Vec3::new(0.25, 1.2, -2.7)),
            sparse: pixels().map(|i| i % 5 == 0 || i % 7 == 0).collect(),
            three_rays: pixels()
                .map(|i| [center - 1, center + 1, center + SIDE].contains(&i))
                .collect(),
            one_row: pixels().map(|i| i / SIDE == SIDE / 2).collect(),
        }
    }

    pub fn baked(&self, family: Family) -> &Baked {
        self.families[family as usize].get_or_init(|| Baked::new(family, &self.warp_reference))
    }

    fn mask(&self, mask: Mask) -> Option<&[bool]> {
        match mask {
            Mask::Full => None,
            Mask::Sparse => Some(&self.sparse),
            Mask::ThreeRays => Some(&self.three_rays),
            Mask::OneRow => Some(&self.one_row),
        }
    }
}

fn render_options(case: &Case) -> RenderOptions {
    RenderOptions {
        march: MarchParams {
            // Without the occupancy grid every step is a processed sample.
            step: if case.occupancy { 0.02 } else { 0.1 },
            ..Default::default()
        },
        use_occupancy: case.occupancy,
        sample_block: case.block,
    }
}

fn pipeline_config(variant: Variant, case: &Case, lanes: usize) -> PipelineConfig {
    PipelineConfig {
        variant,
        window: 3,
        march: MarchParams {
            step: 0.05,
            ..Default::default()
        },
        collect_quality: false,
        collect_traffic: true,
        render_threads: lanes,
        sample_block: case.block,
        ..Default::default()
    }
}

/// An observing sink that records the sample stream into `events`.
fn recorder(events: &mut Events) -> impl FnMut(u32, f32, &GatherPlan) + '_ {
    |ray, t, plan| events.push((ray, t, plan.bytes(), plan.entry_reads()))
}

/// Runs `case` with the process-wide state it asks for — backend cap,
/// telemetry recorder, pool cap — and puts that state back afterwards (the
/// recorder keeps what it recorded until the caller resets it).
fn run(fx: &Fixture, case: &Case) -> Outcome {
    simd::set_backend_cap(case.backend);
    if case.telemetry {
        telemetry::reset();
        telemetry::enable_with_capacity(RING);
    }
    let outcome = match (case.work, case.pool) {
        (Work::Pipeline(variant), Pool::Reuse) => pipelines(fx, case, variant, &[case.lanes, 3]),
        (_, Pool::Fresh) => vec![pass(fx, case, &mut WarpScratch::new())],
        (_, Pool::Reuse) => {
            let mut scratch = WarpScratch::new();
            (0..3).map(|_| pass(fx, case, &mut scratch)).collect()
        }
        (_, Pool::Resize) => {
            let mut scratch = WarpScratch::new();
            let passes = CAPS
                .iter()
                .map(|&cap| {
                    RenderPool::global().set_cap(cap);
                    pass(fx, case, &mut scratch)
                })
                .collect();
            RenderPool::global().set_cap(cicero_field::pool::MAX_LANES);
            passes
        }
    };
    telemetry::disable();
    simd::set_backend_cap(Backend::Portable);
    outcome
}

/// One pass of `case` through the production paths: the tile engine (one
/// lane is the sequential marcher), `warp_frame_into` or `render_target`
/// with a scratch the caller may reuse, or a pipeline session.
fn pass(fx: &Fixture, case: &Case, scratch: &mut WarpScratch) -> Pass {
    let (baked, cam) = (fx.baked(case.family), &fx.camera);
    match case.work {
        Work::Render => {
            let model = baked.model.as_ref();
            let (opts, mask) = (render_options(case), fx.mask(case.mask));
            let tile = TileOptions {
                threads: case.lanes,
                tile_rows: case.tile_rows,
            };
            let mut frame = background_frame(&ModelSource(model), SIDE, SIDE);
            let mut events = Events::new();
            let stats = if case.observe {
                let sink = &mut recorder(&mut events);
                render_tiled(model, cam, &opts, mask, &mut frame, sink, &tile)
            } else {
                render_tiled(model, cam, &opts, mask, &mut frame, &mut NullSink, &tile)
            };
            Pass::Render(frame, stats, events)
        }
        Work::Warp(opts) => {
            let (reference, background) = (&baked.ground_truth, baked.scene.background());
            let (from, to) = (&fx.warp_reference, &fx.warp_target);
            let mut out = WarpResult::empty();
            let lanes = case.lanes;
            warp_frame_into(
                reference, from, to, background, &opts, scratch, lanes, &mut out,
            );
            Pass::Warp(out.frame, out.status)
        }
        Work::Target(warp) => {
            let model = baked.model.as_ref();
            let (reference, from, to) = (&baked.ground_truth, &fx.warp_reference, &fx.warp_target);
            let opts = render_options(case);
            let tile = TileOptions {
                threads: case.lanes,
                tile_rows: case.tile_rows,
            };
            let mut events = Events::new();
            let t = if case.observe {
                let sink = &mut recorder(&mut events);
                render_target(
                    model, &opts, reference, from, to, &warp, scratch, &tile, sink,
                )
            } else {
                let sink = &mut NullSink;
                render_target(
                    model, &opts, reference, from, to, &warp, scratch, &tile, sink,
                )
            };
            Pass::Target(t.frame, t.warp, t.render, events)
        }
        Work::Pipeline(variant) => pipelines(fx, case, variant, &[case.lanes]).remove(0),
    }
}

/// One pipeline session per entry of `lanes`, stepped in lockstep so the
/// sessions share the pool's workers frame by frame.
fn pipelines(fx: &Fixture, case: &Case, variant: Variant, lanes: &[usize]) -> Outcome {
    let baked = fx.baked(case.family);
    let mut sessions: Vec<PipelineSession> = lanes
        .iter()
        .map(|&l| {
            let cfg = pipeline_config(variant, case, l);
            let k = fx.camera.intrinsics;
            PipelineSession::new(
                &baked.scene,
                baked.model.as_ref(),
                &baked.trajectory,
                k,
                &cfg,
            )
        })
        .collect();
    let mut passes: Outcome = lanes
        .iter()
        .map(|_| Pass::Pipeline(Vec::new(), Vec::new()))
        .collect();
    loop {
        let mut stepped = false;
        for (session, pass) in sessions.iter_mut().zip(&mut passes) {
            if let (Some(step), Pass::Pipeline(frames, reports)) = (session.step(), pass) {
                frames.push(step.frame);
                reports.push((step.outcome.report, step.outcome.warp_stats));
                stepped = true;
            }
        }
        if !stepped {
            return passes;
        }
    }
}

/// The oracle of `case`'s content: [`render_reference`], the serial
/// `warp_frame`, the serial `warp_frame` then [`render_reference`] over its
/// mask into its frame, or the pipeline on one lane at a one-lane block —
/// capped to the portable kernels. A sink that does not observe sees no
/// events.
fn oracle(fx: &Fixture, case: &Case) -> Pass {
    simd::set_backend_cap(Backend::Portable);
    let (baked, cam) = (fx.baked(case.family), &fx.camera);
    match case.work {
        Work::Render => {
            let model = baked.model.as_ref();
            let (opts, mask) = (render_options(case), fx.mask(case.mask));
            let mut frame = background_frame(&ModelSource(model), SIDE, SIDE);
            let mut events = Events::new();
            let stats = render_reference(
                model,
                cam,
                &opts,
                mask,
                &mut frame,
                &mut recorder(&mut events),
            );
            assert!(stats.samples_processed > 0, "the oracle rendered nothing");
            if !case.observe {
                events.clear();
            }
            Pass::Render(frame, stats, events)
        }
        Work::Warp(opts) => {
            let (reference, background) = (&baked.ground_truth, baked.scene.background());
            let (from, to) = (&fx.warp_reference, &fx.warp_target);
            let out = warp_frame(reference, from, to, background, &opts);
            let stats = out.stats();
            assert!(stats.warped > 0, "the oracle warped nothing");
            let rejects = opts.phi.is_some();
            assert_eq!(stats.rejected > 0, rejects, "φ {:?}: rejections", opts.phi);
            Pass::Warp(out.frame, out.status)
        }
        Work::Target(warp) => {
            let model = baked.model.as_ref();
            let (reference, from, to) = (&baked.ground_truth, &fx.warp_reference, &fx.warp_target);
            let out = warp_frame(reference, from, to, model.background(), &warp);
            let (warp_stats, mask) = (out.stats(), out.render_mask());
            let mut frame = out.frame;
            let mut events = Events::new();
            let (opts, mask) = (render_options(case), Some(&mask[..]));
            let stats = render_reference(
                model,
                to,
                &opts,
                mask,
                &mut frame,
                &mut recorder(&mut events),
            );
            assert!(warp_stats.warped > 0, "the oracle warped nothing");
            assert!(stats.samples_processed > 0, "the oracle rendered no hole");
            if !case.observe {
                events.clear();
            }
            Pass::Target(frame, warp_stats, stats, events)
        }
        Work::Pipeline(variant) => {
            let serial = Case { block: 1, ..*case };
            pipelines(fx, &serial, variant, &[1]).remove(0)
        }
    }
}

/// Runs `case` and holds every pass to the oracle of its content (computed
/// once per content into `oracles`); telemetry rows must also have recorded.
fn check_case(fx: &Fixture, case: &Case, oracles: &mut Oracles) -> Result<(), String> {
    let content = (
        case.family,
        case.mask,
        case.occupancy,
        case.work,
        case.observe,
    );
    let want = &*oracles
        .entry(format!("{content:?}"))
        .or_insert_with(|| oracle(fx, case));
    let got = run(fx, case);
    let model = fx.baked(case.family).model.as_ref();
    for (i, pass) in got.iter().enumerate() {
        if let Err(broken) = pass.check(model) {
            return Err(format!(
                "pass {i}: RenderStats break their laws: {broken:?}"
            ));
        }
    }
    if let Some(i) = got.iter().position(|pass| pass != want) {
        let part = got[i].difference(want);
        return Err(format!("pass {i}: {part} differs from the oracle's"));
    }
    if case.telemetry {
        let (recorded, dropped) = (telemetry::event_count(), telemetry::events_dropped());
        telemetry::reset();
        if recorded == 0 {
            return Err("telemetry recorded nothing".into());
        }
        // One lane records every span of the frame on one thread.
        if case.work == Work::Render && case.lanes == 1 && dropped == 0 {
            return Err(format!("a frame overflowed a {RING}-slot ring unreported"));
        }
    }
    Ok(())
}

/// Each oracle by the `Debug` form of its content.
type Oracles = BTreeMap<String, Pass>;

/// The fixture; each family is baked on first use.
pub fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(Fixture::new)
}

/// Serializes everything that moves the backend cap, the telemetry recorder
/// or the pool cap. A poisoned lock only means a row panicked outside
/// `catch_unwind`; every row restores that state on its way out.
pub fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The marcher's lanes `[evaluated, committed]` over one pass of `case`, a
/// telemetry case: what the recorder's counters read.
pub fn lanes(case: &Case) -> [u64; 2] {
    assert!(case.telemetry, "only a recording case counts lanes");
    let _serial = lock();
    run(fixture(), case);
    let counters = [
        telemetry::Counter::SampleLanesEvaluated,
        telemetry::Counter::SampleLanesCommitted,
    ];
    let lanes = counters.map(telemetry::counter_value);
    telemetry::reset();
    lanes
}

/// Runs `rows` in order; a row that differs or panics is reported by name
/// and the rest still run, so a failure lists every row it broke.
pub fn check(rows: &[Row]) {
    static ORACLES: Mutex<Oracles> = Mutex::new(BTreeMap::new());
    let _serial = lock();
    let mut oracles = ORACLES.lock().unwrap_or_else(PoisonError::into_inner);
    let (wall, fx) = (Instant::now(), fixture());
    let mut failures = Vec::new();
    for &(name, families, row) in rows {
        for &family in families {
            let case = Case { family, ..row };
            // `WIDEST` is no cap: such a row runs at the host's widest.
            if case.backend != Backend::WIDEST && !case.backend.supported() {
                println!(
                    "[{name} · {family:?}] skipped: {:?} is not supported",
                    case.backend
                );
                continue;
            }
            simd::set_backend_cap(case.backend);
            let label = format!("{name} · {family:?} · {}", simd::backend());
            let t0 = Instant::now();
            let checked =
                panic::catch_unwind(AssertUnwindSafe(|| check_case(fx, &case, &mut oracles)));
            let failure = match checked {
                Ok(result) => result.err(),
                Err(panic) => {
                    let message = panic.downcast_ref::<String>().map(String::as_str);
                    let message = message.or_else(|| panic.downcast_ref::<&str>().copied());
                    Some(format!("panicked: {}", message.unwrap_or("?")))
                }
            };
            println!("[{label}] {:.2} s", t0.elapsed().as_secs_f64());
            failures.extend(failure.map(|why| format!("[{label}] {why}")));
        }
    }
    simd::set_backend_cap(Backend::WIDEST);
    println!(
        "{} rows: {:.2} s wall",
        rows.len(),
        wall.elapsed().as_secs_f64()
    );
    assert!(
        failures.is_empty(),
        "{} rows differ from their oracle:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
