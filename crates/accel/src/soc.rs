//! SoC-level frame schedules: the four pipeline variants under the local and
//! remote scenarios (paper §V "Variants" / "Application Scenarios").
//!
//! - `Baseline` — pixel-centric: GPU runs Indexing + Gathering, NPU runs the
//!   MLPs; gathering pays random DRAM transactions and SRAM bank stalls.
//! - `Sparw` — same hardware; SPARW shrinks the work (reference frame
//!   amortized over the warping window + sparse target rendering + warp ops).
//! - `SparwFs` — adds fully-streaming gathering: DRAM traffic becomes
//!   streaming MVoxel loads (classified upstream), gathering still on GPU.
//! - `Cicero` — adds the GU with the channel-major VFT: gathering moves to
//!   dedicated hardware, conflict-free, overlapped with MVoxel streaming via
//!   double buffering (`max(DRAM, GU, NPU)` pipeline).

use crate::config::SocConfig;
use crate::gpu::GpuModel;
use crate::gu::GuModel;
use crate::npu::NpuModel;
use crate::workload::{FrameWorkload, StageTimes};
use cicero_mem::DramSim;

/// Pipeline variants evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Full-frame pixel-centric rendering (no Cicero techniques).
    Baseline,
    /// Sparse radiance warping only.
    Sparw,
    /// SPARW + fully-streaming rendering.
    SparwFs,
    /// SPARW + FS + Gathering Unit (the full design).
    Cicero,
}

impl Variant {
    /// All variants in the paper's order.
    pub const ALL: [Variant; 4] = [
        Variant::Baseline,
        Variant::Sparw,
        Variant::SparwFs,
        Variant::Cicero,
    ];

    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Baseline => "Baseline",
            Variant::Sparw => "SpaRW",
            Variant::SparwFs => "SpaRW+FS",
            Variant::Cicero => "Cicero",
        }
    }

    /// Whether the variant streams MVoxels (fully-streaming gathering).
    pub fn fully_streaming(&self) -> bool {
        matches!(self, Variant::SparwFs | Variant::Cicero)
    }

    /// Whether gathering runs on the GU.
    pub fn uses_gu(&self) -> bool {
        matches!(self, Variant::Cicero)
    }
}

/// Execution scenario (paper §V "Application Scenarios").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Everything on the standalone device.
    Local,
    /// Reference-frame NeRF on a tethered workstation GPU; warping and
    /// sparse NeRF on the device.
    Remote,
}

/// The frame a [`SocModel::price`] call prices: with [`Variant`] and
/// [`Scenario`], the axes of the paper's frame-price table (§V).
#[derive(Debug, Clone, Copy)]
pub enum FrameKind<'a> {
    /// A full NeRF render shown as a frame: every baseline frame, and a
    /// warping session's bootstrap and on-trajectory references.
    Full(&'a FrameWorkload),
    /// A reference render off the frame stream, priced for its duration
    /// alone. Remotely it runs on the workstation, whose energy is not
    /// charged to the device (the paper's accounting).
    Reference(&'a FrameWorkload),
    /// A warped target frame. `target` is its own
    /// [`SocModel::target_frame`] report; `reference` is the full-render
    /// workload it warps from, shared by the `window` frames that do.
    Window {
        /// Full-render workload of the reference frame.
        reference: &'a FrameWorkload,
        /// The target's un-amortized report.
        target: &'a FrameReport,
        /// Frames warping from the reference.
        window: usize,
    },
}

/// Energy by component, joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Mobile GPU (power × busy time).
    pub gpu_j: f64,
    /// NPU MAC array + buffers.
    pub npu_j: f64,
    /// Gathering Unit.
    pub gu_j: f64,
    /// DRAM traffic.
    pub dram_j: f64,
    /// Wireless transfers (remote scenario).
    pub wireless_j: f64,
    /// Always-on SoC power over the frame time.
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.gpu_j + self.npu_j + self.gu_j + self.dram_j + self.wireless_j + self.static_j
    }

    /// Adds another breakdown.
    pub fn accumulate(&mut self, o: &EnergyBreakdown) {
        self.gpu_j += o.gpu_j;
        self.npu_j += o.npu_j;
        self.gu_j += o.gu_j;
        self.dram_j += o.dram_j;
        self.wireless_j += o.wireless_j;
        self.static_j += o.static_j;
    }

    /// Scales all components.
    pub fn scaled(&self, f: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            gpu_j: self.gpu_j * f,
            npu_j: self.npu_j * f,
            gu_j: self.gu_j * f,
            dram_j: self.dram_j * f,
            wireless_j: self.wireless_j * f,
            static_j: self.static_j * f,
        }
    }
}

/// Simulated execution of one frame (or one amortized window slice).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameReport {
    /// End-to-end frame latency, seconds.
    pub time_s: f64,
    /// Stage times (I/G/F/warp).
    pub stages: StageTimes,
    /// Energy by component.
    pub energy: EnergyBreakdown,
}

/// The SoC model bundling all component models.
#[derive(Debug, Clone)]
pub struct SocModel {
    cfg: SocConfig,
    /// Mobile GPU model.
    pub gpu: GpuModel,
    /// NPU model.
    pub npu: NpuModel,
    /// GU model.
    pub gu: GuModel,
}

impl SocModel {
    /// Creates the SoC model.
    pub fn new(cfg: SocConfig) -> Self {
        SocModel {
            gpu: GpuModel::new(cfg.gpu),
            npu: NpuModel::new(cfg.npu, cfg.energy),
            gu: GuModel::new(cfg.gu, cfg.energy),
            cfg,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    fn dram_time_energy(&self, w: &FrameWorkload) -> (f64, f64) {
        let mut sim = DramSim::new(self.cfg.dram);
        // Replay classified traffic.
        sim.read_streaming(w.dram.streaming_bytes);
        sim.read_random(w.dram.random_bytes);
        (sim.time_seconds(), sim.energy_joules())
    }

    /// Simulates one *full-frame NeRF render* under a variant's gathering
    /// configuration (no warping — this is the reference-frame or baseline
    /// path).
    pub fn full_frame(&self, w: &FrameWorkload, variant: Variant) -> FrameReport {
        let (dram_t, dram_j) = self.dram_time_energy(w);
        let indexing_s = self.gpu.indexing_time(w);
        let mlp_s = self.npu.mlp_time(w);
        let npu_j = self.npu.mlp_energy(w);

        let (gather_s, gather_gpu_busy, gu_j) = if variant.uses_gu() {
            // GU + double-buffered MVoxel streaming: gathering, streaming and
            // MLP overlap; the slowest stage bounds throughput.
            let gu_t = self.gu.gather_time(w);
            (gu_t.max(dram_t).max(mlp_s), 0.0, self.gu.gather_energy(w))
        } else if variant.fully_streaming() {
            // FS on GPU: streaming DRAM overlapped with GPU interpolation
            // compute; bank conflicts still stall the on-chip path.
            let mut no_miss = w.clone();
            no_miss.cache.hits = w.cache.hits + w.cache.misses;
            no_miss.cache.misses = 0;
            let gpu_t = self.gpu.gather_time(&no_miss);
            (gpu_t.max(dram_t), gpu_t, 0.0)
        } else {
            // Pixel-centric on GPU: the gather-time model already folds DRAM
            // transactions in; take the max with raw DRAM bus time.
            let gpu_t = self.gpu.gather_time(w);
            (gpu_t.max(dram_t), gpu_t, 0.0)
        };

        // Stage-level schedule: Indexing, then gathering and feature
        // computation overlap (double-buffered producer/consumer).
        let time_s = if variant.uses_gu() {
            indexing_s + gather_s // gather_s already includes the MLP overlap
        } else {
            indexing_s + gather_s.max(mlp_s)
        };
        let gpu_busy = indexing_s + gather_gpu_busy;
        FrameReport {
            time_s,
            stages: StageTimes {
                indexing_s,
                gather_s,
                mlp_s,
                warp_s: 0.0,
            },
            energy: EnergyBreakdown {
                gpu_j: self.gpu.energy(gpu_busy),
                npu_j,
                gu_j,
                dram_j,
                wireless_j: 0.0,
                static_j: time_s * self.cfg.energy.soc_static_w,
            },
        }
    }

    /// Simulates one SPARW *target frame*: warping on the GPU plus sparse
    /// NeRF rendering of the disoccluded pixels under the variant's gathering
    /// configuration.
    pub fn target_frame(&self, sparse: &FrameWorkload, variant: Variant) -> FrameReport {
        let mut report = self.full_frame(sparse, variant);
        let warp_s = self.gpu.warp_time(sparse);
        report.stages.warp_s = warp_s;
        report.time_s += warp_s;
        report.energy.gpu_j += self.gpu.energy(warp_s);
        report.energy.static_j += warp_s * self.cfg.energy.soc_static_w;
        report
    }

    /// The one place that knows which formula prices which frame under which
    /// scenario. `frame_pixels` sizes the remote scenario's wireless
    /// transfers; the local rows ignore it.
    pub fn price(
        &self,
        scenario: Scenario,
        variant: Variant,
        frame_pixels: u64,
        frame: FrameKind<'_>,
    ) -> FrameReport {
        match (frame, scenario) {
            (FrameKind::Full(w) | FrameKind::Reference(w), Scenario::Local) => {
                self.full_frame(w, variant)
            }
            (FrameKind::Full(w), Scenario::Remote) => self.baseline_remote_frame(w, frame_pixels),
            (FrameKind::Reference(w), Scenario::Remote) => FrameReport {
                time_s: self.remote_full_render_time(w),
                ..Default::default()
            },
            (
                FrameKind::Window {
                    reference,
                    target,
                    window,
                },
                Scenario::Local,
            ) => {
                self.sparw_local_from_reports(&self.full_frame(reference, variant), target, window)
            }
            (
                FrameKind::Window {
                    reference,
                    target,
                    window,
                },
                Scenario::Remote,
            ) => self.sparw_remote_frame(reference, target, window, frame_pixels),
        }
    }

    /// The steady-state per-frame cost of a SPARW window under the local
    /// scenario: the reference render shares the SoC with target rendering,
    /// so its time and energy amortize over `window` frames (resource
    /// contention — paper §VI-C). `ref_report` is the reference's
    /// [`full_frame`](Self::full_frame) report, `tgt_report` the target's
    /// [`target_frame`](Self::target_frame) report.
    pub fn sparw_local_from_reports(
        &self,
        ref_report: &FrameReport,
        tgt_report: &FrameReport,
        window: usize,
    ) -> FrameReport {
        assert!(window >= 1, "warping window must be at least 1");
        let inv = 1.0 / window as f64;
        let mut stages = tgt_report.stages;
        let ref_stages_scaled = StageTimes {
            indexing_s: ref_report.stages.indexing_s * inv,
            gather_s: ref_report.stages.gather_s * inv,
            mlp_s: ref_report.stages.mlp_s * inv,
            warp_s: 0.0,
        };
        stages.accumulate(&ref_stages_scaled);
        let mut energy = tgt_report.energy;
        energy.accumulate(&ref_report.energy.scaled(inv));
        FrameReport {
            time_s: ref_report.time_s * inv + tgt_report.time_s,
            stages,
            energy,
        }
    }

    /// A window frame under the remote scenario: the reference renders on
    /// the workstation GPU (hidden behind local work unless it exceeds the
    /// window budget) and its pixels stream back over the wireless link,
    /// RGB-D at 6 B per pixel. Returns the local-device report.
    fn sparw_remote_frame(
        &self,
        reference: &FrameWorkload,
        tgt_report: &FrameReport,
        window: usize,
        frame_pixels: u64,
    ) -> FrameReport {
        assert!(window >= 1);
        let ref_remote_t = self.remote_full_render_time(reference);

        let bytes_per_frame = frame_pixels * 6 / window as u64; // RGB-D amortized
        let comm_t = bytes_per_frame as f64 / self.cfg.wireless.latency_bandwidth;
        let comm_j = bytes_per_frame as f64 * self.cfg.wireless.energy_j_per_byte;

        let time_s = (ref_remote_t / window as f64).max(tgt_report.time_s) + comm_t;
        let mut energy = tgt_report.energy;
        energy.wireless_j += comm_j;
        // Static power covers the full frame interval, including the hidden
        // remote-render wait.
        energy.static_j += (time_s - tgt_report.time_s).max(0.0) * self.cfg.energy.soc_static_w;
        FrameReport {
            time_s,
            stages: tgt_report.stages,
            energy,
        }
    }

    /// Wall time of a full *baseline* render of `w` on the remote
    /// workstation tier (`remote.speedup_over_mobile` × mobile speed).
    fn remote_full_render_time(&self, w: &FrameWorkload) -> f64 {
        self.full_frame(w, Variant::Baseline).time_s / self.cfg.remote.speedup_over_mobile
    }

    /// The remote *baseline*: the workstation renders every frame; the device
    /// only receives pixels.
    fn baseline_remote_frame(&self, full: &FrameWorkload, frame_pixels: u64) -> FrameReport {
        let remote_t = self.remote_full_render_time(full);
        let bytes = frame_pixels * 3; // RGB stream
        let comm_t = bytes as f64 / self.cfg.wireless.latency_bandwidth;
        let comm_j = bytes as f64 * self.cfg.wireless.energy_j_per_byte;
        let time_s = remote_t + comm_t;
        FrameReport {
            time_s,
            stages: StageTimes::default(),
            energy: EnergyBreakdown {
                wireless_j: comm_j,
                static_j: time_s * self.cfg.energy.soc_static_w,
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_mem::{BankStats, CacheStats, DramStats};

    const PIXELS: u64 = 640_000; // 800×800

    fn soc() -> SocModel {
        SocModel::new(SocConfig::default())
    }

    /// The amortized price of a window frame whose target renders `sparse`.
    fn window_frame(
        soc: &SocModel,
        scenario: Scenario,
        variant: Variant,
        reference: &FrameWorkload,
        sparse: &FrameWorkload,
        window: usize,
    ) -> FrameReport {
        let frame = FrameKind::Window {
            reference,
            target: &soc.target_frame(sparse, variant),
            window,
        };
        soc.price(scenario, variant, PIXELS, frame)
    }

    fn full_frame_workload() -> FrameWorkload {
        let rays = 640_000u64; // 800×800
        let samples = rays * 40;
        let entries = samples * 8;
        FrameWorkload {
            rays,
            samples_indexed: rays * 250,
            samples_processed: samples,
            gather_entry_reads: entries,
            gather_bytes: entries * 24,
            mlp_macs: samples * 5500,
            mlp_dims: vec![(15, 64), (64, 64), (64, 7)],
            dram: DramStats {
                streaming_bytes: 0,
                random_bytes: entries * 32 * 4 / 10,
                streaming_bursts: 0,
                random_bursts: entries * 4 / 10,
                useful_bytes: entries * 24,
            },
            cache: CacheStats {
                hits: entries * 6 / 10,
                misses: entries * 4 / 10,
            },
            bank: BankStats {
                requests: entries,
                stalled_requests: entries / 2,
                cycles: entries / 8,
                ideal_cycles: entries / 16,
            },
            ..Default::default()
        }
    }

    fn sparse_workload() -> FrameWorkload {
        // ~4% of pixels re-rendered + warp of the whole frame.
        let mut w = full_frame_workload().scaled(0.04);
        w.warp_points = 640_000;
        w.warped_pixels = 640_000;
        w.mlp_dims = vec![(15, 64), (64, 64), (64, 7)];
        w
    }

    fn streaming_workload() -> FrameWorkload {
        let mut w = full_frame_workload();
        // FS: every feature byte read once, streaming.
        let unique_bytes = 100 << 20; // 100 MB model slice touched
        w.dram = DramStats {
            streaming_bytes: unique_bytes,
            random_bytes: 0,
            streaming_bursts: unique_bytes / 32,
            random_bursts: 0,
            useful_bytes: unique_bytes,
        };
        w.cache = CacheStats {
            hits: w.gather_entry_reads,
            misses: 0,
        };
        w
    }

    #[test]
    fn baseline_matches_fig2_scale() {
        let r = soc().full_frame(&full_frame_workload(), Variant::Baseline);
        let fps = 1.0 / r.time_s;
        // DVGO-like: paper ≈ 0.8 FPS on GPU; the NPU-assisted baseline is
        // somewhat faster. Accept the right order of magnitude.
        assert!(fps > 0.2 && fps < 5.0, "{fps:.2} FPS");
    }

    #[test]
    fn variant_ladder_is_monotone() {
        let soc = soc();
        let full = full_frame_workload();
        let fs = streaming_workload();
        let sparse = sparse_workload();
        let mut sparse_fs = sparse.clone();
        sparse_fs.dram = scaled_down(&fs.dram, 16);
        sparse_fs.cache = CacheStats {
            hits: sparse.gather_entry_reads,
            misses: 0,
        };

        let local = Scenario::Local;
        let baseline = soc.full_frame(&full, Variant::Baseline);
        let sparw = window_frame(&soc, local, Variant::Sparw, &full, &sparse, 16);
        let sparw_fs = window_frame(&soc, local, Variant::SparwFs, &fs, &sparse_fs, 16);
        let cicero = window_frame(&soc, local, Variant::Cicero, &fs, &sparse_fs, 16);

        assert!(sparw.time_s < baseline.time_s, "SPARW speeds up");
        assert!(sparw_fs.time_s < sparw.time_s * 1.05, "FS does not regress");
        assert!(cicero.time_s <= sparw_fs.time_s, "GU does not regress");
        assert!(cicero.time_s < baseline.time_s / 5.0, "end-to-end win");
        // Energy follows the same ladder.
        assert!(cicero.energy.total() < baseline.energy.total() / 5.0);
    }

    #[test]
    fn remote_baseline_energy_is_wireless_plus_static() {
        let full = full_frame_workload();
        let r = soc().price(
            Scenario::Remote,
            Variant::Baseline,
            PIXELS,
            FrameKind::Full(&full),
        );
        assert_eq!(r.energy.gpu_j, 0.0);
        assert!(r.energy.wireless_j > 0.0);
        assert!(r.energy.static_j > 0.0);
        assert!((r.energy.total() - r.energy.wireless_j - r.energy.static_j).abs() < 1e-12);
    }

    #[test]
    fn remote_cicero_hides_reference_rendering() {
        let (soc, full, sparse) = (soc(), full_frame_workload(), sparse_workload());
        let remote = |n| window_frame(&soc, Scenario::Remote, Variant::Cicero, &full, &sparse, n);
        let (r16, r1) = (remote(16), remote(1));
        assert!(r16.time_s < r1.time_s, "larger windows hide remote latency");
    }

    #[test]
    fn communication_latency_is_negligible() {
        // Paper: communication is 0.02% of average frame latency.
        let (soc, full, sparse) = (soc(), full_frame_workload(), sparse_workload());
        let r = window_frame(&soc, Scenario::Remote, Variant::Cicero, &full, &sparse, 16);
        let comm_t = (PIXELS * 6 / 16) as f64 / soc.config().wireless.latency_bandwidth;
        assert!(
            comm_t / r.time_s < 0.05,
            "comm fraction {}",
            comm_t / r.time_s
        );
    }

    #[test]
    fn window_amortizes_reference_cost() {
        let soc = soc();
        let full = full_frame_workload();
        let sparse = sparse_workload();
        let local = |n| window_frame(&soc, Scenario::Local, Variant::Sparw, &full, &sparse, n);
        assert!(local(16).time_s < local(4).time_s);
    }

    /// The whole table, to the bit: `(time_s, energy.total())` of a full
    /// render and of a window frame at N = 1 and 16, per variant × scenario.
    /// The words were printed by the commit before [`SocModel::price`]
    /// existed, from the per-scenario methods its callers then chose between.
    #[test]
    fn price_reproduces_the_per_scenario_formulas_bit_for_bit() {
        #[rustfmt::skip]
        const WORDS: [[(u64, u64); 3]; 8] = [
            // Baseline Local
            [(0x3fef8b4122fb4590, 0x403182972d5dc11c), (0x3ff06890a170a661, 0x4032376a961a8704), (0x3fb9f4a190addc57, 0x3ffccfcdb92a1fa4)],
            // Baseline Remote
            [(0x3fb96e8902de596f, 0x3fd900fedfa46c34), (0x3fb9a0dde9c07b37, 0x3ff3604f5839067c), (0x3fa46a973818fb90, 0x3fe7609b64b32217)],
            // Sparw Local
            [(0x3fef8b4122fb4590, 0x403182972d5dc11c), (0x3ff06890a170a661, 0x4032376a961a8704), (0x3fb9f4a190addc57, 0x3ffccfcdb92a1fa4)],
            // Sparw Remote
            [(0x3fb96e8902de596f, 0x3fd900fedfa46c34), (0x3fb9a0dde9c07b37, 0x3ff3604f5839067c), (0x3fa46a973818fb90, 0x3fe7609b64b32217)],
            // SparwFs Local
            [(0x3fdb0c05eb32196a, 0x4016efdc6c10890d), (0x3fdc25244cf26e5c, 0x4017e0a0acefaf60), (0x3fa64ef6039bb445, 0x3fe2fe103d017723)],
            // SparwFs Remote
            [(0x3fb96e8902de596f, 0x3fd900fedfa46c34), (0x3fb9a0dde9c07b37, 0x3fe91ef57dde3bf5), (0x3f91ab108f766004, 0x3fd098a0a8272f44)],
            // Cicero Local
            [(0x3fdb0c05eb32196a, 0x3ffb35b53f9f351a), (0x3fdc25244cf26e5c, 0x3ffc5e01bc2fbfc3), (0x3fa64ef6039bb445, 0x3fc6dd3e8453efd8)],
            // Cicero Remote
            [(0x3fb96e8902de596f, 0x3fd900fedfa46c34), (0x3fb9a0dde9c07b37, 0x3fe3e96c70061eab), (0x3f91ab108f766004, 0x3fb8b63a31dbd2c6)],
        ];
        let (soc, full, sparse) = (soc(), full_frame_workload(), sparse_workload());
        let mut expected = WORDS.iter();
        for variant in Variant::ALL {
            for scenario in [Scenario::Local, Scenario::Remote] {
                let got = [
                    soc.price(scenario, variant, PIXELS, FrameKind::Full(&full)),
                    window_frame(&soc, scenario, variant, &full, &sparse, 1),
                    window_frame(&soc, scenario, variant, &full, &sparse, 16),
                ]
                .map(|r| (r.time_s.to_bits(), r.energy.total().to_bits()));
                assert_eq!(Some(&got), expected.next(), "{variant:?} / {scenario:?}");
            }
        }
    }

    fn scaled_down(s: &DramStats, k: u64) -> DramStats {
        DramStats {
            streaming_bytes: s.streaming_bytes / k,
            random_bytes: s.random_bytes / k,
            streaming_bursts: s.streaming_bursts / k,
            random_bursts: s.random_bursts / k,
            useful_bytes: s.useful_bytes / k,
        }
    }
}
