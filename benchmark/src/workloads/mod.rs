//! The four workloads and what they share: the run context, the line
//! protocol to the driver, frame checks and the session drive loop.

pub mod full_frame;
pub mod serve_ladder;
pub mod sim_figures;
pub mod warp_stream;

use crate::host::{HostClock, Pacer};
use crate::stats::{median, tail, Digest};
use crate::trace::Tracer;
use cicero::pipeline::{PipelineConfig, PipelineSession, SessionStep};
use cicero::{RefPlacement, Scenario, Variant};
use cicero_accel::SocConfig;
use cicero_field::{render_full_tiled, NerfModel, NullSink, RenderOptions, TileOptions};
use cicero_math::{metrics, Camera, Intrinsics};
use cicero_scene::ground_truth::{render_frame, Frame};
use cicero_scene::volume::MarchParams;
use cicero_scene::AnalyticScene;
use std::time::Instant;

/// One render lane: the multi-lane pool is measured only as an isolated
/// layer probe.
pub const LANES: usize = 1;
/// The batched engine's block size, pinned instead of read from the
/// environment.
pub const SAMPLE_BLOCK: usize = 16;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Interleaved rounds of the traced run's untraced / traced / re-enacted
/// segments; each reading is the best of them.
pub const SEGMENT_ROUNDS: usize = 3;
/// Horizontal field of view of every camera, radians.
pub const FOV: f32 = 0.9;

/// What the driver asked this child process to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// How long the timed phase measures, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Plumbing-sized inputs for CI; numbers are not comparable.
    pub smoke: bool,
}

impl Ctx {
    /// Set-up repetitions: the traced run reports no `setup_s`, and a smoke
    /// run measures nothing, so both set up once.
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// The child's side of the line protocol: every line is printed as soon as
/// it is known, so a watchdog kill loses only what had not happened yet.
#[derive(Default)]
pub struct Emitter {
    failed_checks: u64,
}

impl Emitter {
    pub fn header(&mut self, key: &str, value: impl std::fmt::Display) {
        println!("# {key} = {value}");
    }

    /// `n` is the number of samples behind the value.
    pub fn metric(&mut self, name: &str, value: f64, n: usize) {
        let unit = crate::spec::unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        println!("metric {name} {unit} {value} n={n}");
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        if !ok {
            self.failed_checks += 1;
        }
        println!("check {} {name} {detail}", if ok { "ok" } else { "FAIL" });
    }

    /// Announces the operations about to be attempted; a hang before
    /// [`ops`](Self::ops) counts them all as failed.
    pub fn plan(&mut self, attempted: usize) {
        println!("plan attempted={attempted}");
    }

    pub fn ops(&mut self, attempted: usize, failed: usize) {
        println!("ops attempted={attempted} failed={failed}");
    }

    pub fn digest(&mut self, digest: Digest) {
        println!("digest {:016x}", digest.value());
    }

    pub fn failed_checks(&self) -> u64 {
        self.failed_checks
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `reps` times, keeps the last result and returns every
/// repetition's time in reference-host seconds.
pub fn repeat_setup<T>(
    reps: usize,
    host: &mut HostClock,
    mut setup: impl FnMut(&mut HostClock) -> T,
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let before = host.slowdown();
        let t = Instant::now();
        let made = setup(host);
        // Includes the readings `setup` takes itself: a few hundredths of a
        // second next to what it builds.
        let wall = t.elapsed().as_secs_f64();
        let after = host.slowdown();
        times.push(wall / ((before + after) / 2.0));
        last = Some(made);
    }
    (last.expect("at least one set-up repetition"), times)
}

pub fn intrinsics(res: usize) -> Intrinsics {
    Intrinsics::from_fov(res, res, FOV)
}

/// The pipeline configuration with every field pinned.
pub fn pipeline_config(
    variant: Variant,
    collect_quality: bool,
    collect_traffic: bool,
) -> PipelineConfig {
    PipelineConfig {
        variant,
        scenario: Scenario::Local,
        window: 16,
        phi: None,
        ref_placement: RefPlacement::Extrapolated,
        march: march(),
        soc: SocConfig::default(),
        collect_quality,
        collect_traffic,
        render_threads: LANES,
        sample_block: SAMPLE_BLOCK,
    }
}

pub fn march() -> MarchParams {
    MarchParams {
        step: 0.01,
        early_stop: 1e-3,
        surface_opacity: 0.5,
    }
}

pub fn render_options(sample_block: usize) -> RenderOptions {
    RenderOptions {
        march: march(),
        use_occupancy: true,
        sample_block,
    }
}

pub fn one_lane() -> TileOptions {
    TileOptions {
        threads: LANES,
        tile_rows: 32,
    }
}

/// `true` when the frame has the expected size, finite colours and no NaN
/// depth (background depth is legitimately infinite).
pub fn frame_is_sound(frame: &Frame, res: usize) -> bool {
    frame.width() == res
        && frame.height() == res
        && frame.color.pixels().iter().all(|c| c.is_finite())
        && frame.depth.pixels().iter().all(|d| !d.is_nan())
}

pub fn digest_frame(d: &mut Digest, frame: &Frame) {
    d.f32s(frame.color.pixels().iter().flat_map(|c| [c.x, c.y, c.z]));
    d.f32s(frame.depth.pixels().iter().copied());
}

/// PSNR of `frame` against the analytic scene rendered from `cam`, dB.
pub fn psnr_vs_truth(scene: &AnalyticScene, cam: &Camera, frame: &Frame) -> f64 {
    let truth = render_frame(scene, cam, &march());
    metrics::psnr(&frame.color, &truth.color)
}

/// One frame per encoding rendered at `sample_block` 1 and 16 must hash
/// identically: the batched engine's bit-identity contract, checked on the
/// workload's own model and first camera.
pub fn check_block_identity(out: &mut Emitter, model: &dyn NerfModel, cam: &Camera) {
    let small = Camera::new(intrinsics(40), cam.pose);
    let digest_at = |block: usize| {
        let (frame, stats) = render_full_tiled(
            model,
            &small,
            &render_options(block),
            &mut NullSink,
            &one_lane(),
        );
        let mut d = Digest::default();
        digest_frame(&mut d, &frame);
        d.word(stats.samples_processed);
        d.word(stats.samples_indexed);
        d.value()
    };
    let (scalar, batched) = (digest_at(1), digest_at(SAMPLE_BLOCK));
    out.check(
        "sample_block_1_vs_16",
        scalar == batched,
        format_args!("{scalar:016x} vs {batched:016x}"),
    );
}

/// Operating time between two host-clock readings, seconds.
pub const READING_EVERY_S: f64 = 0.3;

/// What driving sessions through [`PipelineSession::step`] produced.
#[derive(Default)]
pub struct Drive {
    /// Wall time of every `step()` call, ms.
    pub step_ms: Vec<f64>,
    /// The same in reference-host ms (see [`crate::host`]).
    pub normalised_ms: Vec<f64>,
    /// Every host reading taken while stepping.
    pub slowdowns: Vec<f64>,
    pub digest: Digest,
    /// Frames of the wrong size or with non-finite values.
    pub unsound: usize,
}

impl Drive {
    /// Steps `session` to completion under spans named `name`, handing each
    /// step and its wall time (seconds) to `each` outside the timed bracket.
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        host: &mut HostClock,
        name: &'static str,
        session: &mut PipelineSession<'_>,
        res: usize,
        mut each: impl FnMut(&SessionStep, f64),
    ) {
        let first = self.frames();
        let mut pacer = Pacer::start(READING_EVERY_S, host);
        loop {
            let id = self.step_ms.len() as u64;
            let (step, secs) = tr.time(name, id, || session.step());
            let Some(step) = step else { break };
            self.step_ms.push(secs * 1e3);
            if !frame_is_sound(&step.frame, res) {
                self.unsound += 1;
            }
            digest_frame(&mut self.digest, &step.frame);
            self.digest.f64(step.outcome.report.time_s);
            each(&step, secs);
            pacer.after(secs, host);
        }
        let readings = pacer.finish(host);
        self.normalised_ms
            .extend(readings.normalised(&self.step_ms[first..]));
        self.slowdowns.extend(readings.slowdowns());
    }

    pub fn frames(&self) -> usize {
        self.step_ms.len()
    }
}

/// `true` when `psnr_db` misses `floor_db`; a NaN misses it too.
pub fn below_floor(psnr_db: f64, floor_db: f64) -> bool {
    psnr_db.is_nan() || psnr_db < floor_db
}

/// PSNR of sampled frames against the analytic scene, with a per-frame
/// floor below which a frame counts as failed.
#[derive(Default)]
pub struct Quality {
    pub psnr_db: Vec<f64>,
    pub below_floor: usize,
}

impl Quality {
    pub fn push(&mut self, psnr_db: f64, floor_db: f64) {
        if below_floor(psnr_db, floor_db) {
            self.below_floor += 1;
        }
        self.psnr_db.push(psnr_db);
    }

    /// Mean over MSE, the repo's per-scene averaging.
    pub fn mean_db(&self) -> f64 {
        metrics::mean_psnr_db(&self.psnr_db)
    }

    pub fn check(&self, out: &mut Emitter, floor_db: f64) {
        let min = self.psnr_db.iter().copied().fold(f64::INFINITY, f64::min);
        out.check(
            "psnr_floor",
            self.below_floor == 0,
            format_args!(
                "{} of {} frames below {floor_db} dB (min {min:.2} dB)",
                self.below_floor,
                self.psnr_db.len()
            ),
        );
    }
}

/// Share of `--seconds` within which a further pass may still start.
const LAST_START: f64 = 0.8;

/// Repeats `pass` over the same inputs until [`LAST_START`] of `seconds` has
/// gone by; at least one pass always runs. Returns every pass's result.
///
/// The workloads size one pass at under a third of the run, so that every
/// operation is timed at least three times, seconds apart: the development
/// container slows down by 10–100 % for seconds at a time, and an
/// operation's best time over the passes ([`best_of`]) is what survives that.
pub fn timed_passes<T>(seconds: f64, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut results = Vec::new();
    loop {
        results.push(pass(results.len()));
        if start.elapsed().as_secs_f64() >= LAST_START * seconds {
            return results;
        }
    }
}

/// Each operation's best time over the passes (element-wise minimum).
pub fn best_of<'a>(passes: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut passes = passes.into_iter();
    let mut best = passes.next().expect("at least one pass").to_vec();
    for pass in passes {
        assert_eq!(pass.len(), best.len(), "passes repeat the same operations");
        for (b, &t) in best.iter_mut().zip(pass) {
            *b = b.min(t);
        }
    }
    best
}

/// Runs `op(i)` for `i` in `0..n` with host readings paced between the
/// operations as in [`Drive::run`]; `op` returns the seconds it took.
/// Returns the slowdown to charge each operation with.
pub fn paced(n: usize, host: &mut HostClock, mut op: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut pacer = Pacer::start(READING_EVERY_S, host);
    for i in 0..n {
        pacer.after(op(i), host);
    }
    pacer.finish(host).per_operation(n)
}

/// Each step's best time over drives of the same frames, reference-host ms.
pub fn best_steps(drives: &[Drive]) -> Vec<f64> {
    best_of(drives.iter().map(|d| d.normalised_ms.as_slice()))
}

/// Frames per second at the given per-frame times, ms.
pub fn fps_of(ms: &[f64]) -> f64 {
    ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)
}

/// The timed phase of a render workload: every pass's [`Drive`].
pub struct Timed(pub Vec<Drive>);

impl Timed {
    pub fn digest(&self) -> Digest {
        self.0[0].digest
    }

    /// Every pass must reproduce the first bit for bit.
    pub fn check_repeats(&self, out: &mut Emitter) {
        out.check(
            "passes_repeat_exactly",
            self.0.iter().all(|p| p.digest == self.digest()),
            format_args!("{} passes", self.0.len()),
        );
    }

    pub fn attempted(&self) -> usize {
        self.0.iter().map(Drive::frames).sum()
    }

    pub fn unsound(&self) -> usize {
        self.0.iter().map(|p| p.unsound).sum()
    }

    /// Each frame's best `step()` time over the passes, reference-host ms.
    pub fn best_ms(&self) -> Vec<f64> {
        best_steps(&self.0)
    }

    /// The same before normalisation, wall ms.
    pub fn best_raw_ms(&self) -> Vec<f64> {
        best_of(self.0.iter().map(|p| p.step_ms.as_slice()))
    }

    /// Median host slowdown over all passes' readings.
    pub fn slowdown(&self) -> f64 {
        let all: Vec<f64> = self.0.iter().flat_map(|p| &p.slowdowns).copied().collect();
        median(&all)
    }
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Each distinct operation's best wall time over the passes, ms.
    pub op_ms: Vec<f64>,
    /// Frames per host second at those best times.
    pub frames_per_s: f64,
    pub good_share: f64,
    pub psnr_db: f64,
    /// Frames behind `psnr_db`.
    pub psnr_n: usize,
}

impl EndToEnd {
    /// For a workload whose operations are frames: `op_ms` is per frame.
    pub fn of_frames(
        out: &mut Emitter,
        setup_s: Vec<f64>,
        timed: &Timed,
        failed: usize,
        quality: (f64, usize),
    ) -> Self {
        let op_ms = timed.best_ms();
        let raw = timed.best_raw_ms();
        out.header(
            "wall",
            format_args!(
                "{:.4} frames/s and median {:.4} ms/frame before normalisation, host slowdown {:.3}",
                fps_of(&raw),
                median(&raw),
                timed.slowdown()
            ),
        );
        EndToEnd {
            setup_s,
            frames_per_s: fps_of(&op_ms),
            op_ms,
            good_share: 1.0 - failed as f64 / timed.attempted() as f64,
            psnr_db: quality.0,
            psnr_n: quality.1,
        }
    }

    pub fn emit(&self, out: &mut Emitter) {
        let n = self.op_ms.len();
        out.metric("setup_s", median(&self.setup_s), self.setup_s.len());
        out.metric("frames_per_s", self.frames_per_s, n);
        out.metric("frame_ms_p50", median(&self.op_ms), n);
        let (q, p) = tail(&self.op_ms);
        out.header(
            "frame_ms_p90 percentile",
            format_args!("p{:.0} (n={n})", q * 100.0),
        );
        out.metric("frame_ms_p90", p, n);
        out.metric("peak_rss_mb", peak_rss_mb(), 1);
        out.metric("good_share", self.good_share, n);
        out.metric("psnr_db", self.psnr_db, self.psnr_n);
    }
}
