//! Hardware-model integration: SoC reports driven by real measured workloads
//! must reproduce the paper's qualitative architecture results.

use cicero::traffic::{
    build_workload, PairSink, PixelCentricConfig, PixelCentricTraffic, StreamingConfig,
    StreamingTraffic,
};
use cicero::{Scenario, Variant};
use cicero_accel::config::SocConfig;
use cicero_accel::rivals;
use cicero_accel::soc::{FrameKind, SocModel};
use cicero_accel::FrameWorkload;
use cicero_field::render::{render_full, RenderOptions};
use cicero_field::{bake, GridConfig, NerfModel};
use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_scene::library;

fn measured_workloads() -> (FrameWorkload, FrameWorkload) {
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_grid(
        &scene,
        &GridConfig {
            resolution: 64,
            ..Default::default()
        },
    );
    let cam = Camera::new(
        Intrinsics::from_fov(64, 64, 0.9),
        Pose::look_at(Vec3::new(0.0, 1.1, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let mut pc = PixelCentricTraffic::new(
        &model,
        PixelCentricConfig {
            cache_bytes: 64 << 10,
            ..Default::default()
        },
    );
    let mut fs = StreamingTraffic::new(&model, StreamingConfig::default());
    let stats = {
        let mut both = PairSink(&mut pc, &mut fs);
        let (_, stats) = render_full(&model, &cam, &RenderOptions::default(), &mut both);
        stats
    };
    let pc_rep = pc.finish();
    let fs_rep = fs.finish();
    let w_pc = build_workload(
        &stats,
        NerfModel::decoder(&model),
        Some(&pc_rep),
        None,
        None,
    );
    let w_fs = build_workload(
        &stats,
        NerfModel::decoder(&model),
        None,
        Some(&fs_rep),
        None,
    );
    (w_pc, w_fs)
}

#[test]
fn soc_variant_ladder_on_measured_workloads() {
    let (w_pc, w_fs) = measured_workloads();
    let soc = SocModel::new(SocConfig::default());
    let base = soc.full_frame(&w_pc, Variant::Baseline);
    let fs = soc.full_frame(&w_fs, Variant::SparwFs);
    let gu = soc.full_frame(&w_fs, Variant::Cicero);
    assert!(
        fs.time_s <= base.time_s * 1.05,
        "FS {} vs base {}",
        fs.time_s,
        base.time_s
    );
    assert!(
        gu.time_s <= fs.time_s,
        "GU {} vs FS {}",
        gu.time_s,
        fs.time_s
    );
    assert!(gu.energy.total() < base.energy.total());
    // The GU variant stops using GPU gather energy and gains GU energy.
    assert!(gu.energy.gu_j > 0.0);
    assert!(gu.energy.gpu_j < base.energy.gpu_j);
}

#[test]
fn gu_outperforms_gpu_gathering_on_real_traces() {
    let (w_pc, w_fs) = measured_workloads();
    let soc = SocModel::new(SocConfig::default());
    let gpu_gather = soc.gpu.gather_time(&w_pc);
    let gu_gather = soc.gu.gather_time(&w_fs);
    let speedup = gpu_gather / gu_gather;
    // Paper Fig. 20 direction (72× at their scale; conservative here).
    assert!(speedup > 2.0, "GU gather speedup only {speedup:.1}x");
}

#[test]
fn energy_breakdown_components_are_consistent() {
    let (w_pc, _) = measured_workloads();
    let soc = SocModel::new(SocConfig::default());
    let r = soc.full_frame(&w_pc, Variant::Baseline);
    let e = r.energy;
    let sum = e.gpu_j + e.npu_j + e.gu_j + e.dram_j + e.wireless_j + e.static_j;
    assert!((sum - e.total()).abs() < 1e-12);
    assert!(e.gpu_j > 0.0 && e.npu_j > 0.0 && e.dram_j > 0.0);
    assert_eq!(e.gu_j, 0.0, "baseline has no GU");
    assert_eq!(e.wireless_j, 0.0, "local scenario");
}

#[test]
fn window_amortization_converges_to_target_cost() {
    let (w_pc, _) = measured_workloads();
    let soc = SocModel::new(SocConfig::default());
    let sparse = w_pc.scaled(0.05);
    let target = soc.target_frame(&sparse, Variant::Sparw);
    let t = |window: usize| {
        let frame = FrameKind::Window {
            reference: &w_pc,
            target: &target,
            window,
        };
        soc.price(Scenario::Local, Variant::Sparw, 64 * 64, frame)
            .time_s
    };
    let t4 = t(4);
    let t16 = t(16);
    let t64 = t(64);
    assert!(t16 < t4);
    assert!(t64 < t16);
    // Diminishing returns: the gap shrinks as the reference amortizes away.
    assert!((t16 - t64) < (t4 - t16));
}

#[test]
fn rivals_order_matches_fig24() {
    // Fig. 24 is Instant-NGP-specific: both rivals are INGP accelerators and
    // their advantage structure (hash bank conflicts, level residency) only
    // exists there.
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_hash(
        &scene,
        &cicero_field::HashConfig {
            levels: 6,
            base_resolution: 8,
            max_resolution: 96,
            table_size_log2: 13,
            ..Default::default()
        },
    );
    let cam = Camera::new(
        Intrinsics::from_fov(64, 64, 0.9),
        Pose::look_at(Vec3::new(0.0, 1.1, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let mut pc = PixelCentricTraffic::new(
        &model,
        PixelCentricConfig {
            cache_bytes: 64 << 10,
            ..Default::default()
        },
    );
    let mut fs = StreamingTraffic::new(&model, StreamingConfig::default());
    let stats = {
        let mut both = PairSink(&mut pc, &mut fs);
        let (_, stats) = render_full(&model, &cam, &RenderOptions::default(), &mut both);
        stats
    };
    let pc_rep = pc.finish();
    let fs_rep = fs.finish();
    let w_pc = build_workload(
        &stats,
        NerfModel::decoder(&model),
        Some(&pc_rep),
        None,
        None,
    );
    let w_fs = build_workload(
        &stats,
        NerfModel::decoder(&model),
        None,
        Some(&fs_rep),
        None,
    );
    let soc = SocModel::new(SocConfig::default());
    let neurex = rivals::neurex_frame(&soc, &w_pc);
    let ngpc = rivals::ngpc_frame(&soc, &w_pc);
    let cicero = rivals::cicero_no_sparw_frame(&soc, &w_fs);
    assert!(cicero.time_s < neurex.time_s, "Cicero beats NeuRex");
    let ngpc_ratio = ngpc.time_s / cicero.time_s;
    assert!(
        ngpc_ratio > 0.2 && ngpc_ratio < 5.0,
        "NGPC within range: {ngpc_ratio:.2}"
    );
}
