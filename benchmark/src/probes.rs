//! Isolated layer probes of the `field` crate, timed from outside around
//! its public calls: the plan / gather / decode kernels on seeded sample
//! positions drawn from the workload's own rays, and whole-frame renders.

use crate::host::{HostClock, Pacer};
use crate::stats::SplitMix;
use crate::trace::Tracer;
use crate::workloads::{
    intrinsics, march, one_lane, render_options, Emitter, READING_EVERY_S, SAMPLE_BLOCK,
};
use cicero_field::{
    render_full_tiled, GatherPlan, MlpBlockScratch, NerfModel, NullSink, RenderStats, TileOptions,
};
use cicero_math::{Camera, Pose, Vec3};
use std::hint::black_box;
use std::time::Instant;

/// Sample positions per kernel probe.
const KERNEL_SAMPLES: usize = 4096;
/// Resolution of the whole-frame render probes.
const RENDER_RES: usize = 128;

/// Timed repetitions of one kernel over the sample set; the metric is the
/// best repetition.
fn kernel_reps(smoke: bool) -> usize {
    if smoke {
        3
    } else {
        15
    }
}

/// Seeded sample positions in march order: whole rays of the workload's
/// cameras, stepped as the renderer steps them. `occupied` are the samples
/// the marcher would gather and decode, with their ray directions; `any`
/// every candidate it would index, occupied or not. March order matters:
/// consecutive samples of a ray share cache lines, and positions scattered
/// over the volume would overstate the gather cost severalfold.
struct Samples {
    occupied: Vec<Vec3>,
    dirs: Vec<Vec3>,
    any: Vec<Vec3>,
}

fn draw_samples(model: &dyn NerfModel, cams: &[Camera], seed: u64) -> Samples {
    let mut rng = SplitMix::new(seed);
    let bounds = model.bounds();
    let step = march().step;
    let mut s = Samples {
        occupied: Vec::with_capacity(KERNEL_SAMPLES),
        dirs: Vec::with_capacity(KERNEL_SAMPLES),
        any: Vec::with_capacity(KERNEL_SAMPLES),
    };
    // The cap only guards against a model whose occupancy the cameras never
    // see.
    for _ in 0..KERNEL_SAMPLES * 64 {
        let cam = &cams[(rng.next_u64() % cams.len() as u64) as usize];
        let u = rng.unit() as f32 * cam.intrinsics.width as f32;
        let v = rng.unit() as f32 * cam.intrinsics.height as f32;
        let ray = cam.primary_ray(u, v);
        let Some((t0, t1)) = bounds.intersect(&ray) else {
            continue;
        };
        let mut t = t0 + 0.5 * step;
        while t < t1 {
            let p = ray.at(t);
            if s.any.len() < KERNEL_SAMPLES {
                s.any.push(p);
            }
            if model.occupancy().occupied(p) {
                s.occupied.push(p);
                s.dirs.push(ray.dir);
                if s.occupied.len() == KERNEL_SAMPLES {
                    return s;
                }
            }
            t += step;
        }
    }
    panic!("the workload's rays never reach occupied space");
}

/// Nanoseconds per sample of the field kernels, measured separately.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    pub plan_ns: f64,
    pub gather_ns: f64,
    pub decode_ns: f64,
    pub mlp_ns: f64,
    pub occupancy_ns: f64,
}

/// Times `NerfModel::{plan_into, features_into_block, occupancy}`,
/// `Decoder::decode_block` and the MLP's `forward_block` on
/// [`KERNEL_SAMPLES`] positions in blocks of [`SAMPLE_BLOCK`], and emits
/// `field.{plan,gather}.<encoding>.*`, `field.decoder.*`, `field.mlp.*` and
/// `field.occupancy.*`.
/// What a probe works with: where its metrics go, the tracer that times its
/// calls and the host clock that normalises them.
pub struct Probe<'a> {
    pub out: &'a mut Emitter,
    pub tr: &'a mut Tracer,
    pub host: &'a mut HostClock,
}

impl Probe<'_> {
    pub fn kernels(
        &mut self,
        model: &dyn NerfModel,
        encoding: &str,
        cams: &[Camera],
        seed: u64,
        smoke: bool,
    ) -> KernelCosts {
        let Probe { out, tr, host } = self;
        let samples = draw_samples(model, cams, seed);
        let n = samples.occupied.len() as f64;
        let reps = kernel_reps(smoke);
        let k = SAMPLE_BLOCK;
        let decoder = model.decoder();
        let fd = decoder.feature_dim();
        let mut scratch = MlpBlockScratch::new();
        let mut sigma = vec![0.0f32; k];
        let mut rgb = vec![Vec3::ZERO; k];
        let (mut plan_ns, mut gather_ns, mut decode_ns, mut mlp_ns, mut occ_ns) =
            (vec![], vec![], vec![], vec![], vec![]);

        let before = host.slowdown();
        let open = tr.begin("probe.field.kernels", 0);
        for rep in 0..=reps {
            let mut plan = GatherPlan::default();
            let (_, secs) = tr.time("field.plan_into", rep as u64, || {
                for &p in &samples.occupied {
                    model.plan_into(black_box(p), &mut plan);
                    black_box(&plan);
                }
            });
            let plan_s = secs;

            let (_, secs) = tr.time("field.occupancy", rep as u64, || {
                for &p in &samples.any {
                    black_box(model.occupancy().occupied(black_box(p)));
                }
            });
            let occ_s = secs;

            // Gather, decode and the bare MLP share the staged blocks, so their
            // clocks are read per block; three clock reads per 16 samples add
            // about 5 ns per sample to each figure.
            let (mut gather_s, mut decode_s, mut mlp_s) = (0.0, 0.0, 0.0);
            let open_blocks = tr.begin("field.blocks", rep as u64);
            for (ps, dirs) in samples.occupied.chunks(k).zip(samples.dirs.chunks(k)) {
                let kk = ps.len();
                let t0 = Instant::now();
                let input = decoder.stage_block(&mut scratch, kk);
                model.features_into_block(black_box(ps), &mut input[..fd * kk], kk);
                let t1 = Instant::now();
                decoder.decode_block(dirs, kk, &mut scratch, &mut sigma, &mut rgb);
                let t2 = Instant::now();
                black_box((&sigma, &rgb));
                gather_s += (t1 - t0).as_secs_f64();
                decode_s += (t2 - t1).as_secs_f64();

                // The bare MLP on the same inputs: restage, fill the direction
                // rows as `decode_block` does, then time `forward_block` alone.
                let input = decoder.stage_block(&mut scratch, kk);
                model.features_into_block(ps, &mut input[..fd * kk], kk);
                for (s, d) in dirs.iter().enumerate() {
                    input[fd * kk + s] = d.x;
                    input[(fd + 1) * kk + s] = d.y;
                    input[(fd + 2) * kk + s] = d.z;
                }
                let t3 = Instant::now();
                black_box(decoder.mlp().forward_block(&mut scratch, kk));
                mlp_s += t3.elapsed().as_secs_f64();
            }
            tr.end(open_blocks);
            // Repetition 0 warms scratch capacities and caches.
            if rep > 0 {
                plan_ns.push(plan_s * 1e9 / n);
                occ_ns.push(occ_s * 1e9 / samples.any.len() as f64);
                gather_ns.push(gather_s * 1e9 / n);
                decode_ns.push(decode_s * 1e9 / n);
                mlp_ns.push(mlp_s * 1e9 / n);
            }
        }
        tr.end(open);
        let slowdown = (before + host.slowdown()) / 2.0;

        // Best repetition, in reference-host nanoseconds.
        let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min) / slowdown;
        let costs = KernelCosts {
            plan_ns: best(&plan_ns),
            gather_ns: best(&gather_ns),
            decode_ns: best(&decode_ns),
            mlp_ns: best(&mlp_ns),
            occupancy_ns: best(&occ_ns),
        };
        out.metric(
            &format!("field.plan.{encoding}.ns_per_sample"),
            costs.plan_ns,
            reps,
        );
        out.metric(
            &format!("field.gather.{encoding}.ns_per_sample"),
            costs.gather_ns,
            reps,
        );
        out.metric(
            "field.decoder.decode_block.ns_per_sample",
            costs.decode_ns,
            reps,
        );
        out.metric("field.mlp.forward_block.ns_per_sample", costs.mlp_ns, reps);
        out.metric("field.occupancy.ns_per_query", costs.occupancy_ns, reps);
        costs
    }
}

/// One timed whole-frame render through `render_full_tiled` with a
/// `NullSink`: `(seconds, stats)`.
fn render_once(
    tr: &mut Tracer,
    model: &dyn NerfModel,
    cam: &Camera,
    sample_block: usize,
    tile: &TileOptions,
    id: u64,
) -> (f64, RenderStats) {
    let ((_frame, stats), secs) = tr.time("field.render_full_tiled", id, || {
        render_full_tiled(
            model,
            cam,
            &render_options(sample_block),
            &mut NullSink,
            tile,
        )
    });
    (secs, stats)
}

/// Renders of each probe camera; the reading is the best of them.
const RENDER_REPS: usize = 3;

/// Mean over `cams` of each camera's best render time in reference-host
/// seconds, and the summed stats of one render per camera.
fn render_mean(
    tr: &mut Tracer,
    host: &mut HostClock,
    model: &dyn NerfModel,
    cams: &[Camera],
    sample_block: usize,
    tile: &TileOptions,
) -> (f64, RenderStats) {
    let mut best_s = Vec::with_capacity(cams.len());
    let mut total = RenderStats::default();
    let mut pacer = Pacer::start(READING_EVERY_S, host);
    for (i, cam) in cams.iter().enumerate() {
        let (mut best, mut spent) = (f64::INFINITY, 0.0);
        for rep in 0..RENDER_REPS {
            let (s, stats) = render_once(tr, model, cam, sample_block, tile, i as u64);
            if rep == 0 {
                total.accumulate(&stats);
            }
            best = best.min(s);
            spent += s;
        }
        best_s.push(best);
        pacer.after(spent, host);
    }
    let readings = pacer.finish(host);
    let secs: f64 = readings.normalised(&best_s).iter().sum();
    (secs / cams.len() as f64, total)
}

/// The workload's poses re-framed at the render-probe resolution.
pub fn probe_cameras(poses: impl IntoIterator<Item = Pose>, smoke: bool) -> Vec<Camera> {
    let res = if smoke { 32 } else { RENDER_RES };
    poses
        .into_iter()
        .map(|p| Camera::new(intrinsics(res), p))
        .collect()
}

impl Probe<'_> {
    /// `field.render.<encoding>.*`: whole-frame time, sample throughput, the
    /// processed/indexed counts (exact) and the share of render time the
    /// separately measured kernels account for.
    pub fn render(
        &mut self,
        model: &dyn NerfModel,
        encoding: &str,
        cams: &[Camera],
        kernels: &KernelCosts,
    ) {
        let Probe { out, tr, host } = self;
        let open = tr.begin("probe.field.render", 0);
        let (secs, stats) = render_mean(tr, host, model, cams, SAMPLE_BLOCK, &one_lane());
        tr.end(open);
        let frames = cams.len() as f64;
        let processed = stats.samples_processed as f64 / frames;
        let indexed = stats.samples_indexed as f64 / frames;
        let kernel_s = (processed * (kernels.plan_ns + kernels.gather_ns + kernels.decode_ns)
            + indexed * kernels.occupancy_ns)
            * 1e-9;
        let n = cams.len();
        let name = |leaf: &str| format!("field.render.{encoding}.{leaf}");
        out.metric(&name("ms_per_frame"), secs * 1e3, n);
        out.metric(&name("msamples_per_s"), processed / secs / 1e6, n);
        out.metric(
            &name("samples_processed_per_ray"),
            stats.samples_processed as f64 / stats.rays as f64,
            n,
        );
        out.metric(&name("useful_sample_ratio"), processed / indexed, n);
        out.header(
        &name("kernel_share basis"),
        format_args!(
            "{processed:.0} processed x ({:.1} plan + {:.1} gather + {:.1} decode) ns + {indexed:.0} indexed x {:.1} ns occupancy = {:.3} ms of {:.3} ms",
            kernels.plan_ns,
            kernels.gather_ns,
            kernels.decode_ns,
            kernels.occupancy_ns,
            kernel_s * 1e3,
            secs * 1e3
        ),
    );
        out.metric(&name("kernel_share"), kernel_s / secs, n);
    }

    /// `field.render.block{1,4,16,64}.msamples_per_s`: the same frames through
    /// the scalar loop and three block sizes of the batched engine.
    pub fn render_blocks(&mut self, model: &dyn NerfModel, cams: &[Camera]) {
        let Probe { out, tr, host } = self;
        let open = tr.begin("probe.field.render_blocks", 0);
        // Two cameras: block 4 takes half a second a frame.
        let cams = &cams[..cams.len().min(2)];
        for block in [1usize, 4, 16, 64] {
            let (secs, stats) = render_mean(tr, host, model, cams, block, &one_lane());
            let processed = stats.samples_processed as f64 / cams.len() as f64;
            out.metric(
                &format!("field.render.block{block}.msamples_per_s"),
                processed / secs / 1e6,
                cams.len(),
            );
        }
        tr.end(open);
    }

    /// The multi-lane pool, isolated and last: `field.tiles.lanes2.speedup` on
    /// whole frames, and `field.pool.pass_us` as what a second lane adds to a
    /// frame with no work in it (a 16×16 camera facing away from the scene, so
    /// every ray misses the bounds).
    pub fn pool(&mut self, model: &dyn NerfModel, cams: &[Camera]) {
        let Probe { out, tr, host } = self;
        let two_lanes = TileOptions {
            threads: 2,
            tile_rows: 32,
        };
        let open = tr.begin("probe.field.pool", 0);
        let (one, _) = render_mean(tr, host, model, cams, SAMPLE_BLOCK, &one_lane());
        let (two, _) = render_mean(tr, host, model, cams, SAMPLE_BLOCK, &two_lanes);
        out.metric("field.tiles.lanes2.speedup", one / two, cams.len());

        let eye = cams[0].pose.position;
        let away = eye + (eye - model.bounds().center());
        let empty = vec![Camera::new(intrinsics(16), Pose::look_at(eye, away, Vec3::Y)); 64];
        let (idle_one, stats) = render_mean(tr, host, model, &empty, SAMPLE_BLOCK, &one_lane());
        let (idle_two, _) = render_mean(tr, host, model, &empty, SAMPLE_BLOCK, &two_lanes);
        tr.end(open);
        out.check(
            "pool_probe_frame_is_empty",
            stats.samples_indexed == 0,
            format_args!("{} samples indexed", stats.samples_indexed),
        );
        out.metric(
            "field.pool.pass_us",
            (idle_two - idle_one) * 1e6,
            empty.len(),
        );
    }
}
