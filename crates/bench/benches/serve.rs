//! Scheduler throughput: how fast the frame server drains a swarm of
//! sessions (excluding scene/model construction, including all simulated
//! scheduling, warping and sparse rendering).

use cicero::pipeline::PipelineConfig;
use cicero::{Scenario, Variant};
use cicero_accel::pool::PoolConfig;
use cicero_bench::{bench_model, bench_scene};
use cicero_math::Intrinsics;
use cicero_scene::volume::MarchParams;
use cicero_scene::Trajectory;
use cicero_serve::{FrameServer, QosClass, ServeConfig, SessionSpec, Submission};
use criterion::{criterion_group, criterion_main, Criterion};

fn swarm_cfg(i: usize) -> PipelineConfig {
    PipelineConfig {
        variant: if i.is_multiple_of(2) {
            Variant::Cicero
        } else {
            Variant::SparwFs
        },
        scenario: if i.is_multiple_of(3) {
            Scenario::Remote
        } else {
            Scenario::Local
        },
        window: 4,
        march: MarchParams {
            step: 0.05,
            ..Default::default()
        },
        collect_quality: false,
        collect_traffic: false,
        ..Default::default()
    }
}

fn bench_serve(c: &mut Criterion) {
    let scene = bench_scene();
    let model = bench_model();
    let traj = Trajectory::orbit(&scene, 8, 30.0);
    let k = Intrinsics::from_fov(32, 32, 0.9);

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    for sessions in [4usize, 16] {
        g.bench_function(format!("drain_{sessions}_sessions"), |b| {
            b.iter(|| {
                let mut server = FrameServer::new(ServeConfig {
                    pool: PoolConfig {
                        workers: 4,
                        ..Default::default()
                    },
                    ..Default::default()
                });
                for i in 0..sessions {
                    server
                        .submit(Submission::trajectory(
                            SessionSpec {
                                name: format!("s{i}"),
                                scene_key: "bench".into(),
                                qos: if i.is_multiple_of(2) {
                                    QosClass::Interactive
                                } else {
                                    QosClass::BestEffort
                                },
                                start_offset_s: i as f64 * 0.003,
                                config: swarm_cfg(i),
                            },
                            &scene,
                            &model,
                            &traj,
                            k,
                        ))
                        .unwrap();
                }
                server.run()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
