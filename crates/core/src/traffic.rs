//! Gather-traffic analysis: replaying Feature Gathering through the memory
//! simulators.
//!
//! Two analyzers implement [`GatherSink`] and attach to the instrumented
//! renderer:
//!
//! - [`PixelCentricTraffic`] — the baseline order (§II-D): every vertex read
//!   goes through a 2 MB LRU buffer; misses hit DRAM and are classified
//!   streaming/random by address adjacency (Fig. 4/5); sample gathers replay
//!   through the feature-major bank simulator in waves of 16 concurrent rays
//!   (Fig. 6).
//! - [`StreamingTraffic`] — the fully-streaming order (§IV-A): dense regions
//!   partition into MVoxels sized to the VFT; DRAM traffic is the touched
//!   MVoxels (each streamed exactly once) plus halo re-reads, RIT records and
//!   the per-sample (σ, rgb) spill buffer; hashed regions (Instant-NGP levels
//!   ≥ 5) revert to cached random access, faithful to the paper.

use cicero_accel::FrameWorkload;
use cicero_field::render::RenderStats;
use cicero_field::{Decoder, GatherPlan, GatherSink, NerfModel};
use cicero_mem::{
    AddressMap, BankSim, BankSimConfig, BankStats, CacheStats, DramConfig, DramSim, DramStats,
    LruCache, MVoxelConfig, MVoxelPartition, RitConfig,
};

/// Builds the [`AddressMap`] of a model's DRAM image.
pub fn address_map(model: &dyn NerfModel) -> AddressMap {
    let regions: Vec<(u16, u64)> = model
        .region_sizes()
        .iter()
        .map(|(r, s)| (r.0, *s))
        .collect();
    AddressMap::new(&regions, 64)
}

/// Combines two sinks into one (e.g. pixel-centric + streaming analysis in a
/// single render pass).
#[derive(Debug)]
pub struct PairSink<'a, A, B>(pub &'a mut A, pub &'a mut B);

impl<A: GatherSink, B: GatherSink> GatherSink for PairSink<'_, A, B> {
    fn on_sample(&mut self, ray_id: u32, sample_t: f32, plan: &GatherPlan) {
        self.0.on_sample(ray_id, sample_t, plan);
        self.1.on_sample(ray_id, sample_t, plan);
    }
}

/// Configuration of the pixel-centric analyzer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelCentricConfig {
    /// On-chip buffer capacity (paper Fig. 5: 2 MB).
    pub cache_bytes: u64,
    /// Cache line size.
    pub cache_line: u64,
    /// Cache associativity.
    pub cache_ways: usize,
    /// SRAM banks (paper Fig. 6: 16).
    pub banks: usize,
    /// Ports per bank.
    pub bank_ports: usize,
    /// Concurrent ray queries (paper Fig. 6: 16).
    pub concurrent_rays: usize,
    /// DRAM model.
    pub dram: DramConfig,
    /// Record the cache-line trace for Belady-oracle analysis (Fig. 5).
    pub collect_belady_trace: bool,
}

impl Default for PixelCentricConfig {
    fn default() -> Self {
        PixelCentricConfig {
            cache_bytes: 2 << 20,
            cache_line: 64,
            cache_ways: 16,
            banks: 16,
            bank_ports: 1,
            concurrent_rays: 16,
            dram: DramConfig::default(),
            collect_belady_trace: false,
        }
    }
}

/// Results of the pixel-centric analysis.
#[derive(Debug, Clone, Default)]
pub struct PixelCentricReport {
    /// Classified DRAM traffic (cache misses).
    pub dram: DramStats,
    /// Cache hit/miss counters.
    pub cache: CacheStats,
    /// Feature-major bank-conflict statistics.
    pub bank: BankStats,
    /// Cache-line trace (present when requested) for the Belady oracle.
    pub belady_trace: Option<Vec<u64>>,
}

/// One buffered sample of a wave: it read the banks
/// `Wave::banks[start..start + len]`, and `next` is the same ray's following
/// sample.
#[derive(Debug, Clone, Copy)]
struct WaveSample {
    start: u32,
    len: u32,
    next: Option<u32>,
}

/// One in-flight ray of a wave: its first sample not yet replayed and its
/// last buffered one.
#[derive(Debug, Clone, Copy)]
struct WaveRay {
    ray_id: u32,
    head: Option<u32>,
    tail: u32,
}

/// The samples of up to `concurrent_rays` in-flight rays, waiting for their
/// bank replay: flat arenas that a flush empties and the next wave refills,
/// so buffering a sample allocates nothing once they have grown.
#[derive(Debug, Default)]
struct Wave {
    /// Feature-major bank of every buffered entry read, sample after sample.
    banks: Vec<usize>,
    samples: Vec<WaveSample>,
    /// In arrival order.
    rays: Vec<WaveRay>,
    /// The samples of one concurrent step, as `(start, len)` into `banks`.
    step: Vec<(u32, u32)>,
    /// The requests of one issue round.
    round: Vec<usize>,
}

/// The pixel-centric traffic analyzer.
pub struct PixelCentricTraffic {
    cfg: PixelCentricConfig,
    addr: AddressMap,
    cache: LruCache,
    dram: DramSim,
    bank: BankSim,
    wave: Wave,
    belady_trace: Vec<u64>,
}

impl PixelCentricTraffic {
    /// Creates an analyzer for `model`.
    pub fn new(model: &dyn NerfModel, cfg: PixelCentricConfig) -> Self {
        PixelCentricTraffic {
            addr: address_map(model),
            cache: LruCache::new(cfg.cache_bytes, cfg.cache_line, cfg.cache_ways),
            dram: DramSim::new(cfg.dram),
            bank: BankSim::new(BankSimConfig {
                banks: cfg.banks,
                ports_per_bank: cfg.bank_ports,
                lanes: cfg.concurrent_rays,
            }),
            wave: Wave::default(),
            belady_trace: Vec::new(),
            cfg,
        }
    }

    fn flush_wave(&mut self) {
        // Concurrent execution: at step k, every in-flight ray gathers its
        // k-th sample; the 8 (×levels) vertex reads issue round-by-round
        // (read 0 of every sample, then read 1, ... — the order of
        // `BankSim::replay_gather`).
        let wave = &mut self.wave;
        loop {
            wave.step.clear();
            for ray in &mut wave.rays {
                if let Some(head) = ray.head {
                    let sample = wave.samples[head as usize];
                    wave.step.push((sample.start, sample.len));
                    ray.head = sample.next;
                }
            }
            let Some(reads) = wave.step.iter().map(|&(_, len)| len).max() else {
                break;
            };
            for read in 0..reads {
                wave.round.clear();
                for &(start, len) in &wave.step {
                    if read < len {
                        wave.round.push(wave.banks[(start + read) as usize]);
                    }
                }
                self.bank.issue_round(&wave.round);
            }
        }
        wave.banks.clear();
        wave.samples.clear();
        wave.rays.clear();
    }

    /// Finishes analysis and returns the report.
    pub fn finish(mut self) -> PixelCentricReport {
        self.flush_wave();
        PixelCentricReport {
            dram: *self.dram.stats(),
            cache: *self.cache.stats(),
            bank: *self.bank.stats(),
            belady_trace: if self.cfg.collect_belady_trace {
                Some(self.belady_trace)
            } else {
                None
            },
        }
    }
}

impl GatherSink for PixelCentricTraffic {
    fn on_sample(&mut self, ray_id: u32, _sample_t: f32, plan: &GatherPlan) {
        // The sample joins its ray in the wave, or opens a new ray — after a
        // flush when the wave is full. Samples arrive ray by ray, so the ray
        // is almost always the newest one.
        let known = self.wave.rays.iter().rposition(|r| r.ray_id == ray_id);
        if known.is_none() && self.wave.rays.len() == self.cfg.concurrent_rays {
            self.flush_wave();
        }
        let index = self.wave.samples.len() as u32;
        match known {
            Some(r) => {
                let ray = &mut self.wave.rays[r];
                self.wave.samples[ray.tail as usize].next = Some(index);
                ray.tail = index;
            }
            None => self.wave.rays.push(WaveRay {
                ray_id,
                head: Some(index),
                tail: index,
            }),
        }
        let start = self.wave.banks.len() as u32;
        // The cache asserted its line size a power of two.
        let line_shift = self.cfg.cache_line.trailing_zeros();
        let banks = self.cfg.banks as u64;
        for lg in &plan.levels {
            let entry_bytes = lg.entry_bytes as u64;
            // Feature-major bank id: one feature vector per bank slot, so
            // `addr / entry_bytes` — the region's first slot plus the entry.
            let base_slot = self.addr.region_base(lg.region.0) / entry_bytes.max(1);
            for &e in lg.entries() {
                self.wave.banks.push(((base_slot + e) % banks) as usize);
                let addr = self.addr.address(lg.region.0, e, lg.entry_bytes);
                let first = addr >> line_shift;
                let last = (addr + entry_bytes - 1) >> line_shift;
                for line in first..=last {
                    if self.cfg.collect_belady_trace {
                        self.belady_trace.push(line);
                    }
                    if !self.cache.access(line << line_shift) {
                        self.dram
                            .read(line << line_shift, self.cfg.cache_line as u32);
                    }
                }
            }
        }
        self.wave.samples.push(WaveSample {
            start,
            len: self.wave.banks.len() as u32 - start,
            next: None,
        });
    }
}

/// Configuration of the fully-streaming analyzer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// VFT capacity bounding MVoxel size (paper: 32 KB).
    pub vft_bytes: u64,
    /// On-chip cache in front of hashed (non-streamable) regions.
    pub hashed_cache_bytes: u64,
    /// Cache line for the hashed path.
    pub cache_line: u64,
    /// RIT record sizing.
    pub rit: RitConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// Bytes spilled per processed sample for out-of-order compositing
    /// (σ + rgb written once, read once at the composite pass — see
    /// DESIGN.md §5).
    pub sample_spill_bytes: u32,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            vft_bytes: 32 << 10,
            hashed_cache_bytes: 2 << 20,
            cache_line: 64,
            rit: RitConfig::default(),
            dram: DramConfig::default(),
            sample_spill_bytes: 16,
        }
    }
}

/// Results of the fully-streaming analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingReport {
    /// Classified DRAM traffic of the FS pipeline.
    pub dram: DramStats,
    /// Bytes of MVoxels streamed (each touched MVoxel exactly once).
    pub mvoxel_bytes: u64,
    /// Halo re-read bytes (cross-MVoxel corner vertices).
    pub halo_bytes: u64,
    /// RIT bytes moved over the GPU→GU DMA interconnect (not DRAM).
    pub rit_bytes: u64,
    /// Per-sample compositing spill bytes.
    pub spill_bytes: u64,
    /// Random bytes from hashed (reverted) regions.
    pub hashed_random_bytes: u64,
    /// RIT records (= sample × dense-level pairs).
    pub rit_records: u64,
    /// MVoxels touched across all dense regions.
    pub touched_mvoxels: u64,
    /// Total MVoxels across all dense regions.
    pub total_mvoxels: u64,
}

/// The fully-streaming traffic analyzer.
pub struct StreamingTraffic {
    cfg: StreamingConfig,
    addr: AddressMap,
    /// Per-region partition (dense regions only).
    partitions: Vec<Option<MVoxelPartition>>,
    touched: Vec<Vec<bool>>,
    halo_entries: Vec<u64>,
    rit_records: u64,
    hashed_cache: LruCache,
    hashed_dram: DramSim,
    samples: u64,
}

impl StreamingTraffic {
    /// Creates an analyzer for `model`.
    pub fn new(model: &dyn NerfModel, cfg: StreamingConfig) -> Self {
        let regions = model.region_sizes().len();
        StreamingTraffic {
            addr: address_map(model),
            partitions: vec![None; regions],
            touched: vec![Vec::new(); regions],
            halo_entries: vec![0; regions],
            rit_records: 0,
            hashed_cache: LruCache::new(cfg.hashed_cache_bytes, cfg.cache_line, 16),
            hashed_dram: DramSim::new(cfg.dram),
            samples: 0,
            cfg,
        }
    }

    /// Finishes analysis and returns the report.
    pub fn finish(self) -> StreamingReport {
        let mut report = StreamingReport::default();
        for (r, part) in self.partitions.iter().enumerate() {
            let Some(part) = part else { continue };
            report.total_mvoxels += part.mvoxel_count() as u64;
            for (id, &hit) in self.touched[r].iter().enumerate() {
                if hit {
                    report.touched_mvoxels += 1;
                    report.mvoxel_bytes += part.mvoxel_bytes(id);
                }
            }
            report.halo_bytes += self.halo_entries[r] * part.entry_bytes() as u64;
        }
        // RIT records never transit DRAM: the GPU produces them and the DMA
        // delivers them straight into the GU's double-buffered RIT SRAM
        // ("the GPU simply sends the Ray Index Table through the DMA to the
        // NPU", §IV-C). They are reported separately as interconnect traffic.
        report.rit_records = self.rit_records;
        report.rit_bytes = self.rit_records * self.cfg.rit.bytes_per_record as u64;
        report.spill_bytes = self.samples * self.cfg.sample_spill_bytes as u64;
        report.hashed_random_bytes = self.hashed_dram.stats().total_bytes();

        let streaming = report.mvoxel_bytes + report.halo_bytes + report.spill_bytes;
        let burst = self.cfg.dram.burst_bytes as u64;
        report.dram = DramStats {
            streaming_bytes: streaming,
            random_bytes: report.hashed_random_bytes,
            streaming_bursts: streaming.div_ceil(burst),
            random_bursts: self.hashed_dram.stats().random_bursts
                + self.hashed_dram.stats().streaming_bursts,
            useful_bytes: streaming + report.hashed_random_bytes,
        };
        report
    }
}

impl GatherSink for StreamingTraffic {
    fn on_sample(&mut self, _ray_id: u32, _sample_t: f32, plan: &GatherPlan) {
        self.samples += 1;
        for lg in &plan.levels {
            let r = lg.region.0 as usize;
            if lg.dense {
                if self.partitions[r].is_none() {
                    let mv_cfg =
                        MVoxelConfig::fit(lg.entry_bytes, self.cfg.vft_bytes, lg.resolution);
                    let part = MVoxelPartition::new(lg.resolution, mv_cfg, lg.entry_bytes);
                    self.touched[r] = vec![false; part.mvoxel_count()];
                    self.partitions[r] = Some(part);
                }
                let part = self.partitions[r].as_ref().unwrap();
                let (mv, halo) = part.sample_reads(lg.cell, lg.entries());
                self.touched[r][mv] = true;
                self.rit_records += 1;
                self.halo_entries[r] += halo;
            } else {
                // Reverted (hashed) region: cached random access, as the
                // paper does for Instant-NGP's fine levels.
                let line_shift = self.cfg.cache_line.trailing_zeros();
                for &e in lg.entries() {
                    let addr = self.addr.address(lg.region.0, e, lg.entry_bytes);
                    let first = addr >> line_shift;
                    let last = (addr + lg.entry_bytes as u64 - 1) >> line_shift;
                    for line in first..=last {
                        if !self.hashed_cache.access(line << line_shift) {
                            self.hashed_dram
                                .read(line << line_shift, self.cfg.cache_line as u32);
                        }
                    }
                }
            }
        }
    }
}

/// Assembles a [`FrameWorkload`] from render statistics and traffic reports.
///
/// Exactly one of `pixel_centric` / `streaming` should be provided, matching
/// the pipeline variant's gathering order. `warp` carries SPARW's
/// (points, pixels) counts for target frames.
pub fn build_workload(
    stats: &RenderStats,
    decoder: &Decoder,
    pixel_centric: Option<&PixelCentricReport>,
    streaming: Option<&StreamingReport>,
    warp: Option<(u64, u64)>,
) -> FrameWorkload {
    let mut w = FrameWorkload {
        rays: stats.rays,
        samples_indexed: stats.samples_indexed,
        samples_processed: stats.samples_processed,
        gather_entry_reads: stats.gather_entry_reads,
        gather_bytes: stats.gather_bytes,
        mlp_macs: stats.mlp_macs,
        mlp_dims: decoder.modeled_dims().to_vec(),
        ..Default::default()
    };
    if let Some(pc) = pixel_centric {
        w.dram = pc.dram;
        w.cache = pc.cache;
        w.bank = pc.bank;
    }
    if let Some(fs) = streaming {
        w.dram = fs.dram;
        // FS serves every gather from the on-chip VFT.
        w.cache = CacheStats {
            hits: stats.gather_entry_reads,
            misses: 0,
        };
    }
    if let Some((points, pixels)) = warp {
        w.warp_points = points;
        w.warped_pixels = pixels;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_field::render::{render_full, RenderOptions};
    use cicero_field::{bake, GridConfig, HashConfig};
    use cicero_math::{Camera, Intrinsics, Pose, Vec3};
    use cicero_scene::library;

    fn camera(n: usize) -> Camera {
        Camera::new(
            Intrinsics::from_fov(n, n, 0.9),
            Pose::look_at(Vec3::new(0.0, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
        )
    }

    #[test]
    fn pixel_centric_is_mostly_non_streaming() {
        let scene = library::scene_by_name("lego").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 64,
                ..Default::default()
            },
        );
        let mut sink = PixelCentricTraffic::new(&model, PixelCentricConfig::default());
        let (_, stats) = render_full(&model, &camera(48), &RenderOptions::default(), &mut sink);
        let report = sink.finish();
        // Paper Fig. 4: >80% of gather DRAM accesses are non-streaming at
        // 800×800 with paper-scale models; this 48×48/64³ smoke test only
        // checks that the classifier sees substantial irregularity — the
        // fig04 experiment reproduces the paper-scale number.
        assert!(
            report.dram.non_streaming_fraction() > 0.3,
            "non-streaming fraction {:.2}",
            report.dram.non_streaming_fraction()
        );
        // At least one cache-line access per entry read (24 B entries span
        // one or two 64 B lines).
        assert!(report.cache.hits + report.cache.misses >= stats.gather_entry_reads);
        assert!(
            report.cache.hits + report.cache.misses <= stats.gather_entry_reads * 2,
            "a 24 B entry can span at most two lines"
        );
        assert!(
            report.bank.conflict_rate() > 0.0,
            "feature-major must conflict"
        );
    }

    #[test]
    fn streaming_reads_each_touched_mvoxel_once() {
        let scene = library::scene_by_name("lego").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 64,
                ..Default::default()
            },
        );
        let mut sink = StreamingTraffic::new(&model, StreamingConfig::default());
        let (_, stats) = render_full(&model, &camera(48), &RenderOptions::default(), &mut sink);
        let report = sink.finish();
        assert!(report.touched_mvoxels > 0);
        assert!(report.touched_mvoxels <= report.total_mvoxels);
        // Fully-streaming: zero random traffic for a single dense grid.
        assert_eq!(report.hashed_random_bytes, 0);
        assert_eq!(report.dram.random_bytes, 0);
        // Each touched MVoxel streams once: feature traffic is bounded by the
        // model's total footprint plus halos.
        assert!(report.mvoxel_bytes <= cicero_field::NerfModel::memory_footprint_bytes(&model));
        assert!(report.rit_records == stats.samples_processed);
    }

    #[test]
    fn streaming_beats_pixel_centric_energy() {
        let scene = library::scene_by_name("lego").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 64,
                ..Default::default()
            },
        );
        // A small cache exposes the baseline's redundant re-fetches even at
        // this reduced frame size (the fig17/19/21 experiments run at scale,
        // where the 2 MB buffer shows the same behavior).
        let pc_cfg = PixelCentricConfig {
            cache_bytes: 2 << 10,
            ..Default::default()
        };
        let mut pc = PixelCentricTraffic::new(&model, pc_cfg);
        let mut fs = StreamingTraffic::new(&model, StreamingConfig::default());
        let mut both = PairSink(&mut pc, &mut fs);
        render_full(&model, &camera(96), &RenderOptions::default(), &mut both);
        let pc_report = pc.finish();
        let fs_report = fs.finish();
        // FS converts random to streaming entirely (single dense region).
        assert!(fs_report.dram.non_streaming_fraction() < 0.05);
        // Energy: streaming bytes at 1/3 the per-byte cost must win.
        let energy = |d: &cicero_mem::DramStats| {
            d.streaming_bytes as f64 * 66.7 + d.random_bytes as f64 * 200.0
        };
        assert!(
            energy(&fs_report.dram) < energy(&pc_report.dram),
            "FS {:.0} pJ vs PC {:.0} pJ",
            energy(&fs_report.dram),
            energy(&pc_report.dram)
        );
    }

    #[test]
    fn hash_model_keeps_reverted_levels_random() {
        let scene = library::scene_by_name("lego").unwrap();
        let model = bake::bake_hash(
            &scene,
            &HashConfig {
                levels: 4,
                base_resolution: 8,
                max_resolution: 64,
                table_size_log2: 12,
                ..Default::default()
            },
        );
        let mut sink = StreamingTraffic::new(&model, StreamingConfig::default());
        render_full(&model, &camera(32), &RenderOptions::default(), &mut sink);
        let report = sink.finish();
        // Fine levels hash → residual random traffic (paper: "about half of
        // the DRAM traffics on Instant-NGP are non-streaming").
        assert!(report.hashed_random_bytes > 0);
        assert!(report.dram.random_bytes > 0);
        assert!(report.mvoxel_bytes > 0, "dense levels still stream");
    }

    #[test]
    fn belady_trace_collection_is_optional() {
        let scene = library::scene_by_name("mic").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 32,
                ..Default::default()
            },
        );
        let cfg = PixelCentricConfig {
            collect_belady_trace: true,
            ..Default::default()
        };
        let mut sink = PixelCentricTraffic::new(&model, cfg);
        render_full(&model, &camera(24), &RenderOptions::default(), &mut sink);
        let report = sink.finish();
        let trace = report.belady_trace.expect("trace requested");
        assert_eq!(trace.len() as u64, report.cache.hits + report.cache.misses);
    }

    #[test]
    fn workload_builder_round_trips_counts() {
        let scene = library::scene_by_name("mic").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 24,
                ..Default::default()
            },
        );
        let mut sink = PixelCentricTraffic::new(&model, PixelCentricConfig::default());
        let (_, stats) = render_full(&model, &camera(16), &RenderOptions::default(), &mut sink);
        let report = sink.finish();
        let w = build_workload(
            &stats,
            cicero_field::NerfModel::decoder(&model),
            Some(&report),
            None,
            Some((256, 256)),
        );
        assert_eq!(w.rays, stats.rays);
        assert_eq!(w.mlp_macs, stats.mlp_macs);
        assert_eq!(w.warp_points, 256);
        assert_eq!(w.cache.misses, report.cache.misses);
        assert!(!w.mlp_dims.is_empty());
    }
}
