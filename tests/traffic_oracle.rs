//! The traffic sinks against the obvious way to compute what they report.
//!
//! `PixelCentricTraffic` keeps a wave of in-flight rays in flat arenas and
//! feeds the bank simulator from a reused buffer; `StreamingTraffic` counts
//! halo reads as plans arrive. The oracles here replay one recorded frame
//! the plain way — an owned entry list per sample, an owned list of lists
//! per ray, `BankSim::replay_gather` per concurrent step, one
//! `MVoxelPartition` query per entry — and every field of both reports must
//! come out equal: all three model families, full frame and masked, 1 / 4 /
//! 16 concurrent rays, the single-lane render's stream and a four-lane tile
//! replay.

use cicero::traffic::{
    address_map, PixelCentricConfig, PixelCentricReport, PixelCentricTraffic, StreamingConfig,
    StreamingReport, StreamingTraffic,
};
use cicero_field::tiles::{render_tiled, TileOptions};
use cicero_field::{
    bake, GatherPlan, GatherSink, GridConfig, HashConfig, ModelSource, NerfModel, RenderOptions,
    TensorConfig,
};
use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_mem::{
    BankSim, BankSimConfig, DramSim, DramStats, FeatureLayout, LruCache, MVoxelConfig,
    MVoxelPartition,
};
use cicero_scene::ground_truth::background_frame;
use cicero_scene::library;

const SIDE: usize = 20;

type Recording = Vec<(u32, f32, GatherPlan)>;

fn grid_model() -> Box<dyn NerfModel> {
    let scene = library::scene_by_name("lego").unwrap();
    Box::new(bake::bake_grid(
        &scene,
        &GridConfig {
            resolution: 24,
            ..Default::default()
        },
    ))
}

fn models() -> Vec<(&'static str, Box<dyn NerfModel>)> {
    let scene = library::scene_by_name("lego").unwrap();
    vec![
        ("grid", grid_model()),
        (
            // Two dense levels and two hashed ones: both branches of the
            // streaming sink.
            "hash",
            Box::new(bake::bake_hash(
                &scene,
                &HashConfig {
                    levels: 4,
                    base_resolution: 4,
                    max_resolution: 32,
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
    ]
}

fn camera() -> Camera {
    Camera::new(
        Intrinsics::from_fov(SIDE, SIDE, 0.9),
        Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    )
}

/// Renders the (masked) frame through `sink` on `threads` lanes.
fn render<S: GatherSink>(
    model: &dyn NerfModel,
    mask: Option<&[bool]>,
    threads: usize,
    sink: &mut S,
) {
    let mut frame = background_frame(&ModelSource(model), SIDE, SIDE);
    let tile = TileOptions {
        threads,
        tile_rows: 3, // ragged against the 20-row frame
    };
    render_tiled(
        model,
        &camera(),
        &RenderOptions::default(),
        mask,
        &mut frame,
        sink,
        &tile,
    );
}

fn feed<S: GatherSink>(recording: &Recording, sink: &mut S) {
    for (ray, t, plan) in recording {
        sink.on_sample(*ray, *t, plan);
    }
}

/// The parent implementation of `PixelCentricTraffic`, kept as the oracle.
fn pixel_centric_oracle(
    model: &dyn NerfModel,
    cfg: PixelCentricConfig,
    recording: &Recording,
) -> PixelCentricReport {
    let addr = address_map(model);
    let mut cache = LruCache::new(cfg.cache_bytes, cfg.cache_line, cfg.cache_ways);
    let mut dram = DramSim::new(cfg.dram);
    let mut bank = BankSim::new(BankSimConfig {
        banks: cfg.banks,
        ports_per_bank: cfg.bank_ports,
        lanes: cfg.concurrent_rays,
    });
    let mut belady_trace = Vec::new();
    let mut wave: Vec<(u32, Vec<Vec<u64>>)> = Vec::new();
    let flush = |wave: &mut Vec<(u32, Vec<Vec<u64>>)>, bank: &mut BankSim| {
        let max_samples = wave.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        for k in 0..max_samples {
            let group: Vec<Vec<u64>> = wave
                .iter()
                .filter_map(|(_, samples)| samples.get(k).cloned())
                .collect();
            bank.replay_gather(&group, FeatureLayout::FeatureMajor);
        }
        wave.clear();
    };
    for (ray_id, _, plan) in recording {
        let mut sample_entries = Vec::new();
        for lg in &plan.levels {
            for &e in lg.entries() {
                let a = addr.address(lg.region.0, e, lg.entry_bytes);
                sample_entries.push(a / lg.entry_bytes as u64);
                let first = a / cfg.cache_line;
                let last = (a + lg.entry_bytes as u64 - 1) / cfg.cache_line;
                for line in first..=last {
                    belady_trace.push(line);
                    if !cache.access(line * cfg.cache_line) {
                        dram.read(line * cfg.cache_line, cfg.cache_line as u32);
                    }
                }
            }
        }
        match wave.iter_mut().find(|(r, _)| r == ray_id) {
            Some((_, samples)) => samples.push(sample_entries),
            None => {
                if wave.len() == cfg.concurrent_rays {
                    flush(&mut wave, &mut bank);
                }
                wave.push((*ray_id, vec![sample_entries]));
            }
        }
    }
    flush(&mut wave, &mut bank);
    PixelCentricReport {
        dram: *dram.stats(),
        cache: *cache.stats(),
        bank: *bank.stats(),
        belady_trace: cfg.collect_belady_trace.then_some(belady_trace),
    }
}

/// The parent implementation of `StreamingTraffic`, kept as the oracle.
fn streaming_oracle(
    model: &dyn NerfModel,
    cfg: StreamingConfig,
    recording: &Recording,
) -> StreamingReport {
    let addr = address_map(model);
    let regions = model.region_sizes().len();
    let mut partitions: Vec<Option<MVoxelPartition>> = vec![None; regions];
    let mut touched: Vec<Vec<bool>> = vec![Vec::new(); regions];
    let mut halo_entries = vec![0u64; regions];
    let mut hashed_cache = LruCache::new(cfg.hashed_cache_bytes, cfg.cache_line, 16);
    let mut hashed_dram = DramSim::new(cfg.dram);
    let mut report = StreamingReport::default();
    for (_, _, plan) in recording {
        for lg in &plan.levels {
            let r = lg.region.0 as usize;
            if lg.dense {
                let part = partitions[r].get_or_insert_with(|| {
                    let mv_cfg = MVoxelConfig::fit(lg.entry_bytes, cfg.vft_bytes, lg.resolution);
                    let part = MVoxelPartition::new(lg.resolution, mv_cfg, lg.entry_bytes);
                    touched[r] = vec![false; part.mvoxel_count()];
                    part
                });
                let mv = part.mvoxel_of_cell(lg.cell);
                touched[r][mv] = true;
                report.rit_records += 1;
                for &e in lg.entries() {
                    if !part.contains_vertex(mv, part.vertex_coord(e)) {
                        halo_entries[r] += 1;
                    }
                }
            } else {
                for &e in lg.entries() {
                    let a = addr.address(lg.region.0, e, lg.entry_bytes);
                    let first = a / cfg.cache_line;
                    let last = (a + lg.entry_bytes as u64 - 1) / cfg.cache_line;
                    for line in first..=last {
                        if !hashed_cache.access(line * cfg.cache_line) {
                            hashed_dram.read(line * cfg.cache_line, cfg.cache_line as u32);
                        }
                    }
                }
            }
        }
    }
    for (r, part) in partitions.iter().enumerate() {
        let Some(part) = part else { continue };
        report.total_mvoxels += part.mvoxel_count() as u64;
        for (id, _) in touched[r].iter().enumerate().filter(|(_, &hit)| hit) {
            report.touched_mvoxels += 1;
            report.mvoxel_bytes += part.mvoxel_bytes(id);
        }
        report.halo_bytes += halo_entries[r] * part.entry_bytes() as u64;
    }
    report.rit_bytes = report.rit_records * cfg.rit.bytes_per_record as u64;
    report.spill_bytes = recording.len() as u64 * cfg.sample_spill_bytes as u64;
    report.hashed_random_bytes = hashed_dram.stats().total_bytes();
    let streaming = report.mvoxel_bytes + report.halo_bytes + report.spill_bytes;
    report.dram = DramStats {
        streaming_bytes: streaming,
        random_bytes: report.hashed_random_bytes,
        streaming_bursts: streaming.div_ceil(cfg.dram.burst_bytes as u64),
        random_bursts: hashed_dram.stats().random_bursts + hashed_dram.stats().streaming_bursts,
        useful_bytes: streaming + report.hashed_random_bytes,
    };
    report
}

fn assert_pixel_centric_eq(got: &PixelCentricReport, want: &PixelCentricReport, what: &str) {
    assert_eq!(got.dram, want.dram, "{what}: dram");
    assert_eq!(got.cache, want.cache, "{what}: cache");
    assert_eq!(got.bank, want.bank, "{what}: bank");
    assert_eq!(got.belady_trace, want.belady_trace, "{what}: belady trace");
}

#[test]
fn sinks_report_what_the_plain_replay_reports() {
    // Every third pixel of every other row: rays far enough apart that a
    // wave mixes rows.
    let sparse: Vec<bool> = (0..SIDE * SIDE)
        .map(|i| (i / SIDE).is_multiple_of(2) && i.is_multiple_of(3))
        .collect();
    for (name, model) in models() {
        let model = model.as_ref();
        for (frame, mask) in [("full", None), ("masked", Some(sparse.as_slice()))] {
            let mut recording = Recording::new();
            let mut record =
                |ray: u32, t: f32, plan: &GatherPlan| recording.push((ray, t, plan.clone()));
            render(model, mask, 1, &mut record);
            assert!(recording.len() > 100, "{name} {frame}: nothing to replay");

            for concurrent_rays in [1, 4, 16] {
                // A buffer small enough to evict, a trace to pin the order.
                let cfg = PixelCentricConfig {
                    cache_bytes: 8 << 10,
                    concurrent_rays,
                    collect_belady_trace: concurrent_rays == 4,
                    ..Default::default()
                };
                let want = pixel_centric_oracle(model, cfg, &recording);
                assert!(
                    want.cache.misses > 0,
                    "{name} {frame}: the buffer never evicts"
                );
                // One ray at a time has nobody to conflict with.
                assert_eq!(want.bank.stalled_requests > 0, concurrent_rays > 1);
                // The single-lane render's stream is the recording itself;
                // four lanes buffer per tile and replay in tile order.
                let what = format!("{name} {frame} {concurrent_rays} rays");
                let mut sink = PixelCentricTraffic::new(model, cfg);
                feed(&recording, &mut sink);
                assert_pixel_centric_eq(&sink.finish(), &want, &what);
                if concurrent_rays == 16 {
                    let mut sink = PixelCentricTraffic::new(model, cfg);
                    render(model, mask, 4, &mut sink);
                    assert_pixel_centric_eq(&sink.finish(), &want, &format!("{what} 4 lanes"));
                }
            }

            // A VFT small enough that the hash model's dense levels split
            // into several MVoxels too, so every family reads halos.
            let cfg = StreamingConfig {
                vft_bytes: 1 << 10,
                hashed_cache_bytes: 8 << 10,
                ..Default::default()
            };
            let want = streaming_oracle(model, cfg, &recording);
            assert!(
                want.touched_mvoxels > 0 && want.halo_bytes > 0,
                "{name} {frame}: {want:?}"
            );
            assert_eq!(name == "hash", want.hashed_random_bytes > 0);
            let mut sink = StreamingTraffic::new(model, cfg);
            feed(&recording, &mut sink);
            assert_eq!(sink.finish(), want, "{name} {frame}");
            let mut sink = StreamingTraffic::new(model, cfg);
            render(model, mask, 4, &mut sink);
            assert_eq!(sink.finish(), want, "{name} {frame} 4 lanes");
        }
    }
}

/// A wave has to take its rays' samples in any order, not only ray by ray:
/// the renderer promises ray-major streams, the sink does not rely on it.
#[test]
fn pixel_centric_wave_takes_interleaved_rays() {
    let model = grid_model();
    let model = model.as_ref();
    let mut recording = Recording::new();
    let mut record = |ray: u32, t: f32, plan: &GatherPlan| recording.push((ray, t, plan.clone()));
    render(model, None, 1, &mut record);
    // Deal the stream out to alternate between the two halves of the frame:
    // rays keep their own sample order, waves see them interleaved.
    let (a, b) = recording.split_at(recording.len() / 2);
    let mut interleaved = Recording::new();
    for i in 0..a.len().max(b.len()) {
        interleaved.extend(a.get(i).cloned());
        interleaved.extend(b.get(i).cloned());
    }
    for concurrent_rays in [1, 3, 16] {
        let cfg = PixelCentricConfig {
            cache_bytes: 8 << 10,
            concurrent_rays,
            ..Default::default()
        };
        let mut sink = PixelCentricTraffic::new(model, cfg);
        feed(&interleaved, &mut sink);
        let want = pixel_centric_oracle(model, cfg, &interleaved);
        assert_pixel_centric_eq(&sink.finish(), &want, &format!("{concurrent_rays} rays"));
    }
}
