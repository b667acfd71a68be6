//! The instrumented pixel-centric volume renderer.
//!
//! This is the paper's *baseline* rendering order (§II-D "pixel-centric
//! rendering"): rays are processed in image order, and every processed sample
//! triggers Indexing (occupancy lookup), Feature Gathering (encoding reads,
//! streamed to a [`GatherSink`]) and Feature Computation (decoder MLP). The
//! compositing math is shared with `cicero_scene::volume`, so quality is
//! identical to rendering through [`crate::model::ModelSource`]; this path
//! additionally produces the per-stage work counts that drive the hardware
//! models (paper Fig. 3) and the memory traces (Fig. 4–6).

use crate::mlp::{MlpBlockScratch, MlpScratch};
use crate::model::NerfModel;
use crate::plan::{GatherPlan, GatherSink};
use crate::tiles::{render_tiled, TileOptions};
use cicero_math::{Camera, Ray, Vec3};
use cicero_scene::ground_truth::Frame;
use cicero_scene::volume::MarchParams;
use cicero_telemetry as telemetry;
use std::ops::Range;

/// Default sample-block size of the marcher: big enough that every MLP
/// weight row amortizes over a SIMD-friendly sample vector, small enough
/// that the SoA scratch stays cache-resident and partial tails stay cheap.
pub const DEFAULT_SAMPLE_BLOCK: usize = 16;

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Ray-marching quadrature parameters.
    pub march: MarchParams,
    /// Skip samples in unoccupied space (stage I pruning). Enabled for both
    /// pixel-centric and memory-centric paths for a fair comparison.
    pub use_occupancy: bool,
    /// Lanes per SoA block of the plan→gather→MLP engine: up to this many
    /// processed samples share one gather/decode, so MLP weight rows are
    /// re-read once per block instead of once per sample. There is one
    /// marcher at every value — `1` is a one-lane block of the same engine,
    /// and `0` is read as `1`; the per-sample loop lives on only as the test
    /// oracle [`render_reference`]. It is also the number of rays the
    /// marcher keeps in flight, and a block holds one lane from each of them
    /// whatever the sink, so no lane is evaluated past an early exit at any
    /// block size (128² lego, lanes evaluated ÷ committed: 1.000 at 4, 16
    /// and 64).
    /// Pure throughput knob: frames, statistics and sink streams are
    /// **bit-identical** at every value. Defaults to
    /// [`DEFAULT_SAMPLE_BLOCK`].
    pub sample_block: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            march: MarchParams::default(),
            use_occupancy: true,
            sample_block: DEFAULT_SAMPLE_BLOCK,
        }
    }
}

/// Per-stage work counters of one render pass.
///
/// These are the quantities the paper's motivation plots are built from: the
/// I/G/F breakdown of Fig. 3 and the gather traffic of Fig. 4–6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenderStats {
    /// Rays marched (pixels processed).
    pub rays: u64,
    /// Candidate samples of the Indexing stage, skipped ones included:
    /// every step `t0 + (i + ½)·step < t1` of a ray up to and including the
    /// one that early-exits it. This is the *modelled* count the hardware
    /// models price, not the host's work: the batched marcher jumps over
    /// provably empty candidates without looking at them (128² lego: 334 k
    /// indexed, 126 k looked at) and still counts each one here.
    pub samples_indexed: u64,
    /// Samples that performed gathering + feature computation: the indexed
    /// candidates that are [`occupied`](crate::OccupancyGrid::occupied) —
    /// in an occupied cell of the analytic grid and not in a cell the
    /// model's own density support leaves empty. For grid and tensor models
    /// that support is exact: a cell whose every corner is at zero density,
    /// where a sample has `alpha == 0.0` exactly, so leaving it out moves no
    /// pixel. For hash models it is sampled: a cell of a lattice at half
    /// the finest resolution whose eight interior sub-samples are all at
    /// zero density, where a sample may still carry a small `alpha`, so
    /// leaving it out moves pixels a little (below one 8-bit step on every
    /// library scene). With `use_occupancy` off, every indexed candidate is
    /// processed.
    pub samples_processed: u64,
    /// Individual vertex/entry feature reads during gathering.
    pub gather_entry_reads: u64,
    /// Bytes of feature data touched by gathering (before any cache).
    pub gather_bytes: u64,
    /// MAC operations spent in feature computation (decoder MLPs).
    pub mlp_macs: u64,
}

/// A law of [`RenderStats`] that a render's counts break; see
/// [`RenderStats::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsViolation {
    /// More samples processed than indexed.
    ProcessedAboveIndexed {
        /// `samples_processed`.
        processed: u64,
        /// `samples_indexed`.
        indexed: u64,
    },
    /// `gather_entry_reads` is not `samples_processed` times a sample's
    /// entry reads.
    GatherEntryReads {
        /// What the processed samples read.
        expected: u64,
        /// What the stats say.
        actual: u64,
    },
    /// `gather_bytes` is not `samples_processed` times a sample's bytes.
    GatherBytes {
        /// What the processed samples touched.
        expected: u64,
        /// What the stats say.
        actual: u64,
    },
    /// `mlp_macs` is not `samples_processed` times the decoder's modelled
    /// MACs per sample.
    MlpMacs {
        /// What the processed samples cost.
        expected: u64,
        /// What the stats say.
        actual: u64,
    },
    /// More rays marched than the render had pixels.
    RaysAbovePixels {
        /// `rays`.
        rays: u64,
        /// The pixels the render covered.
        pixels: u64,
    },
}

impl RenderStats {
    /// The laws of a render of `model` over `pixels` pixels (stats summed
    /// over several renders keep them too, with their pixels summed):
    ///
    /// - `samples_processed <= samples_indexed`;
    /// - `gather_entry_reads`, `gather_bytes` and `mlp_macs` are each
    ///   `samples_processed` times the model's per-sample constant (a
    ///   sample's gather plan reads and bytes, which do not depend on where
    ///   it is, and the decoder's modelled MACs);
    /// - `rays <= pixels`.
    ///
    /// # Errors
    ///
    /// Every law broken, in that order.
    pub fn check<M: NerfModel + ?Sized>(
        &self,
        model: &M,
        pixels: u64,
    ) -> Result<(), Vec<StatsViolation>> {
        let plan = model.plan_at(model.bounds().center());
        let per_sample = [
            plan.entry_reads(),
            plan.bytes(),
            model.decoder().modeled_macs_per_sample(),
        ];
        let [reads, bytes, macs] = per_sample.map(|per| self.samples_processed.saturating_mul(per));
        let mut broken = Vec::new();
        if self.samples_processed > self.samples_indexed {
            broken.push(StatsViolation::ProcessedAboveIndexed {
                processed: self.samples_processed,
                indexed: self.samples_indexed,
            });
        }
        if self.gather_entry_reads != reads {
            broken.push(StatsViolation::GatherEntryReads {
                expected: reads,
                actual: self.gather_entry_reads,
            });
        }
        if self.gather_bytes != bytes {
            broken.push(StatsViolation::GatherBytes {
                expected: bytes,
                actual: self.gather_bytes,
            });
        }
        if self.mlp_macs != macs {
            broken.push(StatsViolation::MlpMacs {
                expected: macs,
                actual: self.mlp_macs,
            });
        }
        if self.rays > pixels {
            broken.push(StatsViolation::RaysAbovePixels {
                rays: self.rays,
                pixels,
            });
        }
        if broken.is_empty() {
            Ok(())
        } else {
            Err(broken)
        }
    }

    /// Accumulates another pass's counters (e.g. across frames).
    pub fn accumulate(&mut self, other: &RenderStats) {
        self.rays += other.rays;
        self.samples_indexed += other.samples_indexed;
        self.samples_processed += other.samples_processed;
        self.gather_entry_reads += other.gather_entry_reads;
        self.gather_bytes += other.gather_bytes;
        self.mlp_macs += other.mlp_macs;
    }
}

/// Per-thread scratch buffers for the sample hot path.
///
/// One scratch serves one rendering thread: the lane arrays, the gather
/// plans and the MLP ping-pong activation matrices are all reused across
/// every block the thread processes, so after the first frame warms the
/// capacities the inner loop performs **zero heap allocations** (verified by
/// the `zero_alloc` integration test). Buffer contents never leak between
/// blocks — each use overwrites before reading — so rendering through a
/// reused scratch is bit-identical to rendering through a fresh one.
#[derive(Debug, Clone, Default)]
pub(crate) struct RenderScratch {
    /// The one plan that prices every sample's gather: its entry reads and
    /// bytes are constants of the encoding, so it is built once per band.
    plan: GatherPlan,
    /// SoA block scratch of the sample engine.
    block: SampleBlock,
}

/// One slot of the marcher's set of rays in flight: a ray's march position
/// and compositing accumulators, plus the bookkeeping that keeps stats and
/// pixel writes bit-identical to the per-sample [`render_reference`]. A slot
/// whose ray has no step left and no lane parked is free and takes the next
/// pixel.
#[derive(Debug, Clone, Default)]
struct RayCtx {
    /// Ray origin and unit direction.
    origin: Vec3,
    dir: Vec3,
    /// Ray parameter where the ray enters the bounds.
    t0: f32,
    /// Next candidate step, and the number of steps with `t < t1`: the ray
    /// marches while `next < steps`.
    next: u32,
    steps: u32,
    /// Dense per-frame ray index (row-major pixel order), for the sink.
    ray_id: u32,
    /// Pixel index within the output band.
    idx: usize,
    /// Depth scale of this pixel (`camera.z_scale(u, v)`).
    z_scale: f32,
    /// Accumulated radiance.
    color: Vec3,
    /// Remaining transmittance.
    transmittance: f32,
    /// Weighted depth accumulator.
    depth_acc: f32,
    /// Accumulated opacity.
    opacity_acc: f32,
    /// Candidates indexed since this ray's last parked lane (or since its
    /// march began). Committed with the next lane, or — for rays that end
    /// without terminating — when the ray finishes; discarded when the ray
    /// early-exits, exactly like the reference loop's `break`.
    pending: u64,
    /// This ray's uncommitted lanes in the current block.
    lanes: u32,
    /// The transmittance early-exit fired; later lanes of this ray are
    /// speculative and must not be committed.
    stopped: bool,
}

impl RayCtx {
    /// Writes the pixel of a ray whose march is over and whose lanes are all
    /// committed, adding the trailing indexed candidates unless it early-exited.
    fn finish(
        &self,
        background: Vec3,
        surface_opacity: f32,
        stats: &mut RenderStats,
        out: &mut RowBand<'_>,
    ) {
        if !self.stopped {
            stats.samples_indexed += self.pending;
        }
        let mut color = self.color;
        color += background * self.transmittance;
        out.color[self.idx] = color;
        out.depth[self.idx] = if self.opacity_acc >= surface_opacity {
            (self.depth_acc / self.opacity_acc) * self.z_scale
        } else {
            f32::INFINITY
        };
    }
}

/// SoA scratch of the sample engine: one block of up to K processed
/// samples, gathered and decoded together, and the K slots of the rays in
/// flight that fill it (the paper's tile locality argument: weight reuse
/// should not be capped by per-ray sample counts).
///
/// The marcher parks every processed sample in a lane (t, position, ray
/// slot); a full block — or the band-end tail — is then evaluated in one
/// batched features→MLP→activations pass and *committed* lane by lane in
/// park order against each lane's [`RayCtx`]. All buffers, including the
/// MLP ping-pong matrices, are reused across blocks, rays and frames, so a
/// warmed batched frame performs zero heap allocations.
#[derive(Debug, Clone, Default)]
struct SampleBlock {
    /// Ray parameter per lane.
    ts: Vec<f32>,
    /// Sample position per lane.
    ps: Vec<Vec3>,
    /// Ray direction per lane (rays differ within a block).
    dirs: Vec<Vec3>,
    /// Candidates indexed since the owning ray's previous lane (inclusive of
    /// this lane's own indexing step).
    indexed: Vec<u64>,
    /// Index into `rays` per lane.
    slots: Vec<u32>,
    /// Decoded density per lane.
    sigma: Vec<f32>,
    /// Decoded radiance per lane.
    rgb: Vec<Vec3>,
    /// The rays in flight, one slot per lane of a block. Slots are stable:
    /// a ray stays in its slot until it is finished.
    rays: Vec<RayCtx>,
    /// Ping-pong activation matrices of the block MLP kernel.
    mlp: MlpBlockScratch,
    /// Filled lanes.
    count: usize,
    /// Telemetry only: host timestamp of the previous flush's end, so the
    /// marching/planning interval between flushes can be exported as a
    /// `plan` span. Zero when the recorder is (or was) off — the first
    /// interval after enabling is skipped rather than mis-attributed.
    phase_mark: u64,
}

impl SampleBlock {
    /// Sizes every lane array for blocks of `k` samples and frees every slot.
    fn ensure(&mut self, k: usize) {
        if self.ts.len() < k {
            self.ts.resize(k, 0.0);
            self.ps.resize(k, Vec3::ZERO);
            self.dirs.resize(k, Vec3::ZERO);
            self.indexed.resize(k, 0);
            self.slots.resize(k, 0);
            self.sigma.resize(k, 0.0);
            self.rgb.resize(k, Vec3::ZERO);
        }
        self.rays.clear();
        self.rays.resize(k, RayCtx::default());
        self.count = 0;
        self.phase_mark = 0;
    }

    /// Evaluates and commits the filled lanes, then finishes every ray whose
    /// march is over.
    ///
    /// Evaluation is batched (SoA features, block MLP); **commitment** is
    /// per-lane in park order and replicates [`render_reference`] exactly:
    /// stats and the band's trace first, then compositing into the lane's
    /// [`RayCtx`], then the transmittance early-exit. When the exit fires at
    /// lane `j`, this ray's later lanes (only at a band's tail can there be
    /// any) were evaluated speculatively but are *not* committed — no stats,
    /// no trace, no compositing — so every observable output matches the
    /// reference loop bit for bit.
    ///
    /// `per_sample` is the `(entry reads, bytes)` of any one sample's gather
    /// plan; `visited` is the number of candidate steps the marcher looked at
    /// since the previous flush (telemetry only).
    fn flush<M: NerfModel + ?Sized>(
        &mut self,
        model: &M,
        march: &MarchParams,
        per_sample: (u64, u64),
        visited: u64,
        stats: &mut RenderStats,
        out: &mut RowBand<'_>,
    ) {
        telemetry::add(telemetry::Counter::MarchStepsVisited, visited);
        let k = self.count;
        self.count = 0;
        if k == 0 {
            return;
        }
        // Phase spans: `plan` covers the march/fill interval since the
        // previous flush, `gather` the SoA feature fetch; the MLP and
        // activation-decode spans are emitted inside `decode_block`.
        let t_flush = telemetry::is_enabled().then(telemetry::now_ns);
        let decoder = model.decoder();
        let macs_per_sample = decoder.modeled_macs_per_sample();
        let fd = decoder.feature_dim();
        let input = decoder.stage_block(&mut self.mlp, k);
        model.features_into_block(&self.ps[..k], &mut input[..fd * k], k);
        if let Some(t0) = t_flush {
            let t1 = telemetry::now_ns();
            if self.phase_mark != 0 {
                telemetry::span_at(telemetry::Phase::Plan, self.phase_mark, t0, k as u64, 0, 0);
            }
            telemetry::span_at(telemetry::Phase::Gather, t0, t1, k as u64, 0, 0);
        }
        decoder.decode_block(
            &self.dirs[..k],
            k,
            &mut self.mlp,
            &mut self.sigma,
            &mut self.rgb,
        );
        let processed_before = stats.samples_processed;
        for j in 0..k {
            let ray = &mut self.rays[self.slots[j] as usize];
            if ray.stopped {
                continue; // speculative lane past this ray's early exit
            }
            stats.samples_indexed += self.indexed[j];
            if let Some(trace) = out.trace.as_deref_mut() {
                trace.samples.push((ray.ray_id, self.ts[j]));
            }
            stats.samples_processed += 1;
            stats.gather_entry_reads += per_sample.0;
            stats.gather_bytes += per_sample.1;
            stats.mlp_macs += macs_per_sample;
            let sigma = self.sigma[j];
            if sigma <= 0.0 {
                continue;
            }
            let alpha = 1.0 - (-sigma * march.step).exp();
            let weight = ray.transmittance * alpha;
            ray.color += self.rgb[j] * weight;
            ray.depth_acc += self.ts[j] * weight;
            ray.opacity_acc += weight;
            ray.transmittance *= 1.0 - alpha;
            if ray.transmittance < march.early_stop {
                ray.transmittance = 0.0;
                ray.stopped = true;
            }
        }
        // Every lane is committed now: a ray that parked some and has
        // early-exited or run out of steps is finished, and its slot is free.
        let background = model.background();
        for ray in self.rays.iter_mut().filter(|ray| ray.lanes > 0) {
            ray.lanes = 0;
            if ray.stopped {
                ray.next = ray.steps;
            }
            if ray.next == ray.steps {
                ray.finish(background, march.surface_opacity, stats, out);
            }
        }
        let committed = stats.samples_processed - processed_before;
        telemetry::add(telemetry::Counter::SampleLanesEvaluated, k as u64);
        telemetry::add(telemetry::Counter::SampleLanesCommitted, committed);
        self.phase_mark = if t_flush.is_some() {
            telemetry::now_ns()
        } else {
            0
        };
    }
}

/// A mutable row band of an output frame: rows `y0..y1`, row-major, with
/// `color`/`depth` indexed from the band's first row. The tile renderer hands
/// each worker a band backed by tile-local buffers; the sequential path hands
/// the whole frame.
pub(crate) struct RowBand<'a> {
    /// First row (inclusive).
    pub y0: usize,
    /// Last row (exclusive).
    pub y1: usize,
    /// Band pixels, `(y - y0) * width + x`.
    pub color: &'a mut [Vec3],
    /// Band depths, same indexing.
    pub depth: &'a mut [f32],
    /// Where the band's committed samples are recorded for an observing
    /// sink; `None` records nothing.
    pub trace: Option<&'a mut SampleTrace>,
}

/// The committed samples of one row band, recorded by the marcher for a sink
/// that observes samples, and their replay in [`render_reference`]'s order.
///
/// The marcher commits the samples of up to `sample_block` rays interleaved,
/// each ray's in step order, and records only `(ray_id, t)`. A counting sort
/// by pixel — stable, so each ray keeps its step order — lays the `t`s out
/// ray-major, and the replay rebuilds each ray's primary ray once, each
/// sample's position and [`GatherPlan`] as it hands it to the sink: 12 bytes
/// a sample. Reused across frames: a warmed trace allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct SampleTrace {
    /// First pixel of the band.
    first: usize,
    /// `(ray_id, t)` per committed sample, in commit order.
    samples: Vec<(u32, f32)>,
    /// Per pixel of the band, where its samples start in `ts` (the sort's
    /// counting offsets), plus one slot.
    starts: Vec<u32>,
    /// Every sample's `t`, ray-major.
    ts: Vec<f32>,
    /// The replay's gather plan.
    plan: GatherPlan,
}

impl SampleTrace {
    /// Empties the trace for the pixels `pixels` of a band.
    fn begin(&mut self, pixels: Range<usize>) {
        self.first = pixels.start;
        self.samples.clear();
        self.starts.clear();
        self.starts.resize(pixels.len() + 1, 0);
    }

    /// Hands every recorded sample to `sink` with its gather plan: ray by
    /// ray in pixel order, each ray's samples in step order.
    pub(crate) fn replay<M: NerfModel + ?Sized, S: GatherSink>(
        &mut self,
        model: &M,
        camera: &Camera,
        sink: &mut S,
    ) {
        for &(ray, _) in &self.samples {
            self.starts[ray as usize - self.first + 1] += 1;
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        self.ts.resize(self.samples.len(), 0.0);
        for &(ray, t) in &self.samples {
            let start = &mut self.starts[ray as usize - self.first];
            self.ts[*start as usize] = t;
            *start += 1;
        }
        // Each pixel's slot now holds where its samples end.
        let mut begin = 0;
        for (pixel, &end) in (self.first..).zip(&self.starts) {
            if end > begin {
                let primary = primary_ray(camera, pixel).0;
                for &t in &self.ts[begin as usize..end as usize] {
                    model.plan_into(primary.at(t), &mut self.plan);
                    sink.on_sample(pixel as u32, t, &self.plan);
                }
            }
            begin = end;
        }
    }
}

/// The primary ray through the centre of row-major `pixel`, and that
/// centre's `(u, v)`.
fn primary_ray(camera: &Camera, pixel: usize) -> (Ray, f32, f32) {
    let w = camera.intrinsics.width;
    let (u, v) = ((pixel % w) as f32 + 0.5, (pixel / w) as f32 + 0.5);
    (camera.primary_ray(u, v), u, v)
}

/// Renders a full frame on the calling thread (one lane of
/// [`render_tiled`]), returning the frame and work statistics.
///
/// Every processed sample's [`crate::GatherPlan`] is forwarded to `sink`.
pub fn render_full<M: NerfModel + ?Sized, S: GatherSink>(
    model: &M,
    camera: &Camera,
    opts: &RenderOptions,
    sink: &mut S,
) -> (Frame, RenderStats) {
    let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
    let mut frame =
        cicero_scene::ground_truth::background_frame(&crate::model::ModelSource(model), w, h);
    let one_lane = TileOptions::default();
    let stats = render_tiled(model, camera, opts, None, &mut frame, sink, &one_lane);
    (frame, stats)
}

std::thread_local! {
    /// This thread's sample scratch: the calling thread's for one-lane
    /// renders, each pool worker's for its tiles, so frame loops stay
    /// allocation-free across frames, not just within one. Taken out of the
    /// cell during the render (`mem::take`) so a re-entrant render from a
    /// sink callback degrades to a cold scratch instead of a `RefCell` panic.
    static THREAD_SCRATCH: std::cell::RefCell<RenderScratch> =
        std::cell::RefCell::new(RenderScratch::default());
}

/// Runs `f` with this thread's persistent [`RenderScratch`]. Pool workers
/// (see [`crate::pool`]) live for the process, so their scratches stay warm
/// across frames — the pool render path allocates nothing after its first
/// frame.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut RenderScratch) -> R) -> R {
    let mut scratch = THREAD_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let r = f(&mut scratch);
    THREAD_SCRATCH.with(|s| *s.borrow_mut() = scratch);
    r
}

/// Panics unless `mask` (when given) and `frame` have the camera's size.
pub(crate) fn check_inputs(camera: &Camera, mask: Option<&[bool]>, frame: &Frame) {
    let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
    if let Some(m) = mask {
        assert_eq!(m.len(), w * h, "mask must cover every pixel");
    }
    assert_eq!(
        (frame.width(), frame.height()),
        (w, h),
        "frame/camera size mismatch"
    );
}

/// The per-sample reference renderer: the oracle the marcher is held to, and
/// nothing else — no production path calls it.
///
/// Same contract as [`crate::tiles::render_tiled`], computed the obvious
/// way: one ray at a
/// time in row-major order, an `occupied(p)` test at every step, and per
/// processed sample one `plan_into` (handed to `sink`, whatever it observes),
/// one `features_into` and one `decode_into`, through buffers of its own. It
/// ignores `opts.sample_block`. Frame, [`RenderStats`] and sink stream of
/// [`crate::tiles::render_tiled`] equal this function's
/// bit for bit at every `sample_block` and thread count; the tests that say
/// "the oracle" call it.
///
/// # Panics
///
/// Panics if the mask length or frame dimensions mismatch the camera.
pub fn render_reference<M: NerfModel + ?Sized, S: GatherSink>(
    model: &M,
    camera: &Camera,
    opts: &RenderOptions,
    mask: Option<&[bool]>,
    frame: &mut Frame,
    sink: &mut S,
) -> RenderStats {
    check_inputs(camera, mask, frame);
    let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
    let mut stats = RenderStats::default();
    let bounds = model.bounds();
    let decoder = model.decoder();
    let macs_per_sample = decoder.modeled_macs_per_sample();
    let background = model.background();
    let (mut plan, mut feats, mut mlp) = (GatherPlan::default(), Vec::new(), MlpScratch::new());

    for y in 0..h {
        for x in 0..w {
            let idx = y * w + x;
            if mask.is_some_and(|m| !m[idx]) {
                continue;
            }
            stats.rays += 1;
            let (u, v) = (x as f32 + 0.5, y as f32 + 0.5);
            let ray = camera.primary_ray(u, v);

            let mut color = Vec3::ZERO;
            let mut transmittance = 1.0_f32;
            let mut depth_acc = 0.0_f32;
            let mut opacity_acc = 0.0_f32;

            if let Some((t0, t1)) = bounds.intersect(&ray) {
                let step = opts.march.step;
                let n = ((t1 - t0) / step).ceil() as u32;
                for i in 0..n {
                    let t = t0 + (i as f32 + 0.5) * step;
                    if t >= t1 {
                        break;
                    }
                    let p = ray.at(t);
                    stats.samples_indexed += 1;
                    if opts.use_occupancy && !model.occupancy().occupied(p) {
                        continue;
                    }
                    // Stage G: gather + interpolate features.
                    model.plan_into(p, &mut plan);
                    sink.on_sample(idx as u32, t, &plan);
                    stats.samples_processed += 1;
                    stats.gather_entry_reads += plan.entry_reads();
                    stats.gather_bytes += plan.bytes();
                    model.features_into(p, &mut feats);
                    // Stage F: decode.
                    let (sigma, radiance) = decoder.decode_into(&feats, ray.dir, &mut mlp);
                    stats.mlp_macs += macs_per_sample;
                    if sigma <= 0.0 {
                        continue;
                    }
                    let alpha = 1.0 - (-sigma * step).exp();
                    let weight = transmittance * alpha;
                    color += radiance * weight;
                    depth_acc += t * weight;
                    opacity_acc += weight;
                    transmittance *= 1.0 - alpha;
                    if transmittance < opts.march.early_stop {
                        transmittance = 0.0;
                        break;
                    }
                }
            }

            color += background * transmittance;
            frame.color.pixels_mut()[idx] = color;
            frame.depth.pixels_mut()[idx] = if opacity_acc >= opts.march.surface_opacity {
                (depth_acc / opacity_acc) * camera.z_scale(u, v)
            } else {
                f32::INFINITY
            };
        }
    }
    stats
}

/// The sample hot path: marches every (masked) ray of rows `out.y0..out.y1`
/// into the band buffers, gathering and decoding processed samples in SoA
/// blocks of `opts.sample_block` lanes (see [`SampleBlock`]; zero is read as
/// one), and hands the kernels only work [`render_reference`] would also
/// commit. All per-sample state lives in `scratch`; the loop allocates
/// nothing. Both the sequential renderers and the tile workers of
/// [`crate::tiles`] funnel through here, which is what makes the parallel
/// output bit-identical to the sequential one.
///
/// Up to `sample_block` rays are in flight, each in a stable slot. The
/// marcher goes round the slots giving each ray a *turn*: the ray walks to
/// its next occupied candidate ([`OccupancyGrid::first_occupied_step`]
/// jumps over provably empty space, counting the candidates it jumps) and
/// parks it in the block. A ray that ends with nothing parked is finished
/// on the spot and its slot takes the next masked pixel within the same
/// turn, so blocks stay full; a full block is evaluated through
/// `features_into_block` → [`crate::Decoder::decode_block`] and committed by
/// [`SampleBlock::flush`]. A block thus holds one lane from each of
/// `sample_block` rays, every ray's early exit is known before its next lane
/// is parked, and no lane is evaluated that is not committed (only when the
/// band has fewer pixels left than slots do the remaining rays go round more
/// than once per block, so the tail is not a string of tiny blocks).
///
/// The sink plays no part in the march: when `out.trace` is given, the
/// committed samples are recorded into it, and [`SampleTrace::replay`]
/// hands them to the sink ray-major afterwards.
///
/// [`OccupancyGrid::first_occupied_step`]: crate::OccupancyGrid::first_occupied_step
pub(crate) fn render_rows<M: NerfModel + ?Sized>(
    model: &M,
    camera: &Camera,
    opts: &RenderOptions,
    mask: Option<&[bool]>,
    mut out: RowBand<'_>,
    scratch: &mut RenderScratch,
) -> RenderStats {
    let w = camera.intrinsics.width;
    let mut stats = RenderStats::default();
    let bounds = model.bounds();
    let background = model.background();
    let occupancy = opts.use_occupancy.then(|| model.occupancy());
    let march = &opts.march;
    let step = march.step;
    let kmax = opts.sample_block.max(1);
    // What a sample's plan adds to the stats is the same at every position:
    // one plan, anywhere, prices them all.
    model.plan_into(bounds.center(), &mut scratch.plan);
    let per_sample = (scratch.plan.entry_reads(), scratch.plan.bytes());
    let block = &mut scratch.block;
    block.ensure(kmax);
    let band = out.y0 * w..out.y1 * w;
    if let Some(trace) = out.trace.as_deref_mut() {
        trace.begin(band.clone());
    }
    let mut pixels = band.filter(|&i| mask.is_none_or(|m| m[i]));

    let mut slot = 0;
    // Consecutive turns that parked nothing; `kmax` of them is a whole round
    // in which no ray marched and no pixel was left to start.
    let mut idle = 0;
    let mut visited = 0u64;
    while idle < kmax {
        let ray = &mut block.rays[slot];
        let parked = loop {
            if ray.next == ray.steps {
                if ray.lanes > 0 {
                    break false; // ended; waits for its lanes to be committed
                }
                let Some(pixel) = pixels.next() else {
                    break false;
                };
                stats.rays += 1;
                let (primary, u, v) = primary_ray(camera, pixel);
                // Steps with `t < t1`: `t` never decreases with the step
                // index, so they are a prefix and the reference loop's
                // `t >= t1` break is taken once, here.
                let (t0, steps) = bounds.intersect(&primary).map_or((0.0, 0), |(t0, t1)| {
                    let mut n = ((t1 - t0) / step).ceil() as u32;
                    while n > 0 && t0 + ((n - 1) as f32 + 0.5) * step >= t1 {
                        n -= 1;
                    }
                    (t0, n)
                });
                *ray = RayCtx {
                    origin: primary.origin,
                    dir: primary.dir,
                    t0,
                    steps,
                    ray_id: pixel as u32,
                    idx: pixel - out.y0 * w,
                    z_scale: camera.z_scale(u, v),
                    transmittance: 1.0,
                    ..RayCtx::default()
                };
            }
            let at = match occupancy {
                Some(grid) => {
                    let primary = Ray {
                        origin: ray.origin,
                        dir: ray.dir,
                    };
                    let (at, looked) =
                        grid.first_occupied_step(&primary, ray.t0, step, ray.next, ray.steps);
                    visited += looked as u64;
                    at
                }
                None => ray.next,
            };
            ray.pending += (at - ray.next) as u64;
            ray.next = at;
            if at == ray.steps {
                if ray.lanes == 0 {
                    // Nothing of this ray is in the block: the pixel is
                    // done, and the slot takes the next one.
                    ray.finish(background, march.surface_opacity, &mut stats, &mut out);
                }
                continue;
            }
            let c = block.count;
            let t = ray.t0 + (at as f32 + 0.5) * step;
            block.ts[c] = t;
            block.ps[c] = ray.origin + ray.dir * t;
            block.dirs[c] = ray.dir;
            block.indexed[c] = ray.pending + 1;
            block.slots[c] = slot as u32;
            block.count = c + 1;
            ray.pending = 0;
            ray.next = at + 1;
            ray.lanes += 1;
            break true;
        };
        if block.count == kmax {
            block.flush(model, march, per_sample, visited, &mut stats, &mut out);
            visited = 0;
        }
        idle = if parked { 0 } else { idle + 1 };
        slot = (slot + 1) % kmax;
    }
    // Band-end tail: evaluate the partial block, which finishes every ray.
    block.flush(model, march, per_sample, visited, &mut stats, &mut out);
    debug_assert!(
        block
            .rays
            .iter()
            .all(|ray| ray.next == ray.steps && ray.lanes == 0),
        "every ray must be finished"
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bake;
    use crate::encoding::grid::GridConfig;
    use crate::plan::NullSink;
    use cicero_math::{metrics, Intrinsics, Pose};
    use cicero_scene::ground_truth::render_frame;
    use cicero_scene::library;

    fn setup() -> (cicero_scene::AnalyticScene, crate::GridModel, Camera) {
        let scene = library::scene_by_name("lego").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 48,
                ..Default::default()
            },
        );
        let cam = Camera::new(
            Intrinsics::from_fov(48, 48, 0.9),
            Pose::look_at(
                cicero_math::Vec3::new(0.0, 1.2, -2.6),
                cicero_math::Vec3::ZERO,
                cicero_math::Vec3::Y,
            ),
        );
        (scene, model, cam)
    }

    #[test]
    fn model_render_approximates_ground_truth() {
        let (scene, model, cam) = setup();
        let opts = RenderOptions {
            march: MarchParams {
                step: 0.02,
                ..Default::default()
            },
            use_occupancy: true,
            ..Default::default()
        };
        let (frame, stats) = render_full(&model, &cam, &opts, &mut NullSink);
        let gt = render_frame(&scene, &cam, &opts.march);
        let psnr = metrics::psnr(&frame.color, &gt.color);
        assert!(
            psnr > 18.0,
            "model PSNR vs analytic ground truth: {psnr:.2} dB"
        );
        assert!(stats.rays == 48 * 48);
        assert!(stats.samples_processed > 0);
        assert!(stats.samples_processed <= stats.samples_indexed);
    }

    #[test]
    fn occupancy_pruning_reduces_processed_samples() {
        let (_, model, cam) = setup();
        let base = RenderOptions {
            march: MarchParams {
                step: 0.04,
                ..Default::default()
            },
            use_occupancy: false,
            ..Default::default()
        };
        let pruned = RenderOptions {
            use_occupancy: true,
            ..base
        };
        let (_, full) = render_full(&model, &cam, &base, &mut NullSink);
        let (_, skip) = render_full(&model, &cam, &pruned, &mut NullSink);
        assert!(
            skip.samples_processed < full.samples_processed / 2,
            "{} vs {}",
            skip.samples_processed,
            full.samples_processed
        );
    }

    #[test]
    fn pruned_and_unpruned_agree_visually() {
        let (_, model, cam) = setup();
        let march = MarchParams {
            step: 0.03,
            ..Default::default()
        };
        let (a, _) = render_full(
            &model,
            &cam,
            &RenderOptions {
                march,
                use_occupancy: false,
                ..Default::default()
            },
            &mut NullSink,
        );
        let (b, _) = render_full(
            &model,
            &cam,
            &RenderOptions {
                march,
                use_occupancy: true,
                ..Default::default()
            },
            &mut NullSink,
        );
        let psnr = metrics::psnr(&a.color, &b.color);
        assert!(
            psnr > 30.0,
            "occupancy pruning changed the image: {psnr:.2} dB"
        );
    }

    #[test]
    fn sink_sees_every_processed_sample() {
        let (_, model, cam) = setup();
        let mut count = 0u64;
        let mut bytes = 0u64;
        let mut sink = |_r: u32, _t: f32, p: &crate::GatherPlan| {
            count += 1;
            bytes += p.bytes();
        };
        let opts = RenderOptions {
            march: MarchParams {
                step: 0.05,
                ..Default::default()
            },
            use_occupancy: true,
            ..Default::default()
        };
        let (_, stats) = render_full(&model, &cam, &opts, &mut sink);
        assert_eq!(count, stats.samples_processed);
        assert_eq!(bytes, stats.gather_bytes);
    }

    #[test]
    fn masked_render_counts_only_masked_rays() {
        let (_, model, cam) = setup();
        let mut frame = cicero_scene::ground_truth::background_frame(
            &crate::model::ModelSource(&model),
            48,
            48,
        );
        let mut mask = vec![false; 48 * 48];
        for i in 0..100 {
            mask[i * 7 % (48 * 48)] = true;
        }
        let expected = mask.iter().filter(|&&b| b).count() as u64;
        let stats = render_tiled(
            &model,
            &cam,
            &RenderOptions::default(),
            Some(&mask),
            &mut frame,
            &mut NullSink,
            &TileOptions::default(),
        );
        assert_eq!(stats.rays, expected);
    }

    /// One sink event, bits and all: ray, `t`, and the first entry of
    /// every level of the plan.
    type Event = (u32, u32, Vec<u64>);

    /// Frame, stats and sink stream of one render through a recording sink.
    fn recorded<M: NerfModel>(
        model: &M,
        cam: &Camera,
        opts: &RenderOptions,
        mask: Option<&[bool]>,
    ) -> (Frame, RenderStats, Vec<Event>) {
        let (w, h) = (cam.intrinsics.width, cam.intrinsics.height);
        let mut frame =
            cicero_scene::ground_truth::background_frame(&crate::model::ModelSource(model), w, h);
        let mut events = Vec::new();
        let mut sink = |ray: u32, t: f32, plan: &GatherPlan| {
            let firsts = plan.levels.iter().map(|l| l.entries[0]).collect();
            events.push((ray, t.to_bits(), firsts));
        };
        let one_lane = TileOptions::default();
        let stats = render_tiled(model, cam, opts, mask, &mut frame, &mut sink, &one_lane);
        (frame, stats, events)
    }

    /// Holds `tight` (a baked model) to `loose` (the same model with its
    /// occupancy un-masked): full and masked renders at blocks 1 and 16.
    /// Returns the share of the loose model's committed samples that the
    /// support mask dropped from the full frame.
    fn assert_support_mask_is_exact<M: NerfModel>(
        what: &str,
        tight: &M,
        loose: &M,
        cam: &Camera,
    ) -> f64 {
        let pixels = cam.intrinsics.width * cam.intrinsics.height;
        let sparse: Vec<bool> = (0..pixels).map(|i| i * 7 % 11 < 3).collect();
        let bits = |frame: &Frame| -> Vec<[u32; 4]> {
            let depth = frame.depth.pixels().iter();
            let pixel = |(c, d): (&Vec3, &f32)| [c.x, c.y, c.z, *d].map(f32::to_bits);
            frame.color.pixels().iter().zip(depth).map(pixel).collect()
        };
        let mut dropped = 0.0;
        for mask in [None, Some(&sparse[..])] {
            for sample_block in [1, 16] {
                let what = format!("{what}, masked {}, block {sample_block}", mask.is_some());
                let at = |step: f32| RenderOptions {
                    march: MarchParams {
                        step,
                        ..Default::default()
                    },
                    use_occupancy: true,
                    sample_block,
                };
                // Inside the exact range of `RAW_EMPTY`: the same bits.
                let (frame, stats, events) = recorded(tight, cam, &at(0.01), mask);
                let (loose_frame, loose_stats, loose_events) =
                    recorded(loose, cam, &at(0.01), mask);
                assert_eq!(bits(&frame), bits(&loose_frame), "{what}");
                assert_eq!(stats.rays, loose_stats.rays, "{what}");
                assert_eq!(stats.samples_indexed, loose_stats.samples_indexed, "{what}");
                assert!(
                    stats.samples_processed < loose_stats.samples_processed,
                    "{what}: nothing dropped"
                );
                let mut rest = loose_events.iter();
                assert!(
                    events.iter().all(|e| rest.any(|l| l == e)),
                    "{what}: the sink stream is not a subsequence of the un-masked one"
                );
                assert_eq!(events.len() as u64, stats.samples_processed, "{what}");
                if mask.is_none() {
                    dropped =
                        1.0 - stats.samples_processed as f64 / loose_stats.samples_processed as f64;
                }
                if sample_block == 1 {
                    continue;
                }
                // The same frame unobserved: no trace recorded, no plan built.
                let mut unobserved = frame.clone();
                let (opts, one_lane) = (at(0.01), TileOptions::default());
                let null_stats = render_tiled(
                    tight,
                    cam,
                    &opts,
                    mask,
                    &mut unobserved,
                    &mut NullSink,
                    &one_lane,
                );
                assert_eq!(bits(&unobserved), bits(&frame), "{what}");
                assert_eq!(null_stats, stats, "{what}");
                // Past the exact range (the serve paths' step) a dropped
                // sample carried one ulp of alpha.
                let (coarse, ..) = recorded(tight, cam, &at(0.04), mask);
                let (loose_coarse, ..) = recorded(loose, cam, &at(0.04), mask);
                let pairs = coarse
                    .color
                    .pixels()
                    .iter()
                    .zip(loose_coarse.color.pixels());
                let worst = pairs.fold(0.0f32, |m, (&a, &b)| {
                    let d = (a - b).abs();
                    m.max(d.x).max(d.y).max(d.z)
                });
                assert!(
                    worst <= 1e-6,
                    "{what}: colour moved by {worst} at step 0.04"
                );
            }
        }
        dropped
    }

    /// [`assert_support_mask_is_exact`] on every scene's dense grid at each
    /// of `grids` cells per axis and tensor at each of `tensors` texels,
    /// seen by a `side`² camera. On lego, lattices of 48 and up must shed a
    /// quarter of a full frame's committed samples.
    fn support_mask_is_exact_on(scenes: &[&str], grids: &[usize], tensors: &[usize], side: usize) {
        use crate::encoding::tensor::TensorConfig;
        let cam = Camera::new(
            Intrinsics::from_fov(side, side, 0.9),
            Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
        );
        // The decoder passes its signals through at any width; the narrow
        // one keeps the unoptimised suite short.
        let opts = bake::BakeOptions {
            decoder_hidden: 16,
            ..Default::default()
        };
        for name in scenes {
            let scene = library::scene_by_name(name).unwrap();
            let report = |what: &str, resolution: usize, dropped: f64| {
                println!("{what}: {:.1} % dropped", 100.0 * dropped);
                assert!(
                    *name != "lego" || resolution < 48 || dropped >= 0.25,
                    "{what}"
                );
            };
            for &resolution in grids {
                let config = GridConfig {
                    resolution,
                    ..Default::default()
                };
                let tight = bake::bake_grid_with(&scene, &config, &opts);
                let loose = crate::GridModel {
                    occupancy: tight.occupancy.untightened(),
                    ..tight.clone()
                };
                let what = format!("{name} grid {resolution}");
                let dropped = assert_support_mask_is_exact(&what, &tight, &loose, &cam);
                report(&what, resolution, dropped);
            }
            for &resolution in tensors {
                let config = TensorConfig {
                    resolution,
                    ..Default::default()
                };
                let tight = bake::bake_tensor_with(&scene, &config, &opts);
                let loose = crate::TensorModel {
                    occupancy: tight.occupancy.untightened(),
                    ..tight.clone()
                };
                let what = format!("{name} tensor {resolution}");
                let dropped = assert_support_mask_is_exact(&what, &tight, &loose, &cam);
                report(&what, resolution, dropped);
            }
        }
    }

    /// The support mask's oracle: a baked model against the same model with
    /// its mask cleared. Grid 24³ sits under the default 48³ occupancy, the
    /// serve paths' shape.
    #[test]
    fn support_mask_drops_samples_and_moves_no_pixel() {
        support_mask_is_exact_on(&["lego", "ship", "materials"], &[48, 24], &[32, 48], 32);
    }

    /// The same at experiment scale; CI runs it in release.
    #[test]
    #[ignore = "slow unoptimized: CI runs it in the release-mode SIMD step"]
    fn support_mask_drops_samples_and_moves_no_pixel_at_scale() {
        support_mask_is_exact_on(&["lego", "ship", "materials"], &[128], &[128], 96);
    }

    /// A claim on what a hash model's sampled support moves in a frame,
    /// against the same model with its mask cleared: the support is a
    /// sample of the density, not a proof, so frames may move, but not by
    /// what an 8-bit display or the quality figures could see.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum OpacityClaim {
        /// The largest change of a colour channel of any pixel: below one
        /// 8-bit step, `1/255`.
        MaxPixelChange(f32),
        /// How far PSNR against the analytic ground truth moves, in dB:
        /// less than `0.01`.
        PsnrMoveDb(f64),
    }

    impl OpacityClaim {
        fn holds(self) -> bool {
            match self {
                OpacityClaim::MaxPixelChange(d) => d < 1.0 / 255.0,
                OpacityClaim::PsnrMoveDb(d) => d.abs() < 0.01,
            }
        }
    }

    /// Each of `scenes` baked as a hash model at `cfg`, seen by a `side`²
    /// camera at the benchmark's step, against itself with the sampled
    /// support cleared: the same rays and indexed candidates, fewer
    /// processed samples, a sink stream that is a subsequence of the
    /// unmasked one, stats that keep their laws, and the two
    /// [`OpacityClaim`]s. Returns the share of committed samples dropped,
    /// per scene.
    fn hash_opacity_mask_claims(scenes: &[&str], cfg: &crate::HashConfig, side: usize) -> Vec<f64> {
        let cam = Camera::new(
            Intrinsics::from_fov(side, side, 0.9),
            Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
        );
        let opts = RenderOptions {
            march: MarchParams::default(),
            use_occupancy: true,
            sample_block: DEFAULT_SAMPLE_BLOCK,
        };
        // The decoder passes its signals through at any width; the narrow
        // one keeps the unoptimised suite short.
        let bake_opts = bake::BakeOptions {
            decoder_hidden: 16,
            ..Default::default()
        };
        let pixels = (side * side) as u64;
        let mut dropped = Vec::new();
        for name in scenes {
            let scene = library::scene_by_name(name).unwrap();
            let tight = bake::bake_hash_with(&scene, cfg, &bake_opts);
            let loose = crate::HashModel {
                occupancy: tight.occupancy.untightened(),
                ..tight.clone()
            };
            let (frame, stats, events) = recorded(&tight, &cam, &opts, None);
            let (loose_frame, loose_stats, loose_events) = recorded(&loose, &cam, &opts, None);
            stats.check(&tight, pixels).unwrap();
            loose_stats.check(&loose, pixels).unwrap();
            assert_eq!(stats.rays, loose_stats.rays, "{name}");
            assert_eq!(stats.samples_indexed, loose_stats.samples_indexed, "{name}");
            assert!(
                stats.samples_processed < loose_stats.samples_processed,
                "{name}: nothing dropped"
            );
            let mut rest = loose_events.iter();
            assert!(
                events.iter().all(|e| rest.any(|l| l == e)),
                "{name}: the sink stream is not a subsequence of the unmasked one"
            );
            let pairs = frame.color.pixels().iter().zip(loose_frame.color.pixels());
            let max_change = pairs.fold(0.0f32, |m, (&a, &b)| {
                let d = (a - b).abs();
                m.max(d.x).max(d.y).max(d.z)
            });
            let truth = render_frame(&scene, &cam, &opts.march);
            let psnr = |f: &Frame| metrics::psnr(&f.color, &truth.color);
            let claims = [
                OpacityClaim::MaxPixelChange(max_change),
                OpacityClaim::PsnrMoveDb(psnr(&frame) - psnr(&loose_frame)),
            ];
            let share = 1.0 - stats.samples_processed as f64 / loose_stats.samples_processed as f64;
            println!("{name}: {:.1} % dropped, {claims:?}", 100.0 * share);
            for claim in claims {
                assert!(claim.holds(), "{name}: {claim:?}");
            }
            dropped.push(share);
        }
        dropped
    }

    /// The hash model's sampled support against the unmasked model: lego at
    /// six levels up to 192 cells (a 96³ support lattice; the default's
    /// 256 takes ten seconds to bake unoptimised), seen at the
    /// benchmark's 40², sheds a sixth of its committed samples.
    #[test]
    fn hash_opacity_mask_moves_no_pixel_visibly() {
        let cfg = crate::HashConfig {
            levels: 6,
            max_resolution: 192,
            table_size_log2: 16,
            ..Default::default()
        };
        let dropped = hash_opacity_mask_claims(&["lego"], &cfg, 40);
        assert!(dropped[0] >= 0.15, "{dropped:?}");
    }

    /// The same at the default configuration, on every library scene at
    /// 128²; CI runs it in release, where a bake takes seconds, not minutes.
    #[test]
    #[ignore = "slow unoptimized: CI runs it in the release-mode SIMD step"]
    fn hash_opacity_mask_moves_no_pixel_visibly_every_scene() {
        let names: Vec<&str> = library::SYNTHETIC_SCENES
            .iter()
            .chain(&library::REAL_WORLD_SCENES)
            .copied()
            .collect();
        let dropped = hash_opacity_mask_claims(&names, &crate::HashConfig::default(), 128);
        // Lego's full frame sheds at least a quarter of its samples.
        assert!(dropped[names.iter().position(|&n| n == "lego").unwrap()] >= 0.25);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = RenderStats {
            rays: 1,
            samples_indexed: 10,
            samples_processed: 5,
            gather_entry_reads: 40,
            gather_bytes: 960,
            mlp_macs: 1000,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.rays, 2);
        assert_eq!(a.mlp_macs, 2000);
    }
}
