//! One memoising `Lab` under all figures: each scene, baked model, workload
//! measurement and ground-truth set is computed on first use and shared.
//!
//! Sharing changes no number because baking and rendering are deterministic
//! functions of their key (`tests/lab.rs` holds a `Lab`'s answers to fresh
//! computations bit for bit).

use crate::{
    col, exp_march, experiment_scene, ground_truth, measure_reference, measure_target, psnr_vs_gt,
    quality_config, quality_intrinsics, Col, ModelWorkloads, ReferenceWorkloads,
};
use cicero::baselines::{render_ds2, render_temp_chain};
use cicero::pipeline::run_pipeline;
use cicero::Variant;
use cicero_field::render::RenderOptions;
use cicero_field::{bake, GridConfig, HashConfig, ModelKind, NerfModel, NullSink, TensorConfig};
use cicero_math::RgbImage;
use cicero_scene::ground_truth::Frame;
use cicero_scene::{AnalyticScene, Trajectory};
use std::cell::RefCell;
use std::rc::Rc;

/// A model family at one size: what a bake is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    Grid { resolution: usize },
    Hash { table_size_log2: u32 },
    Tensor { resolution: usize },
}

impl ModelSpec {
    /// The quality experiments' model: a coarser grid whose reconstruction
    /// error lands near the paper's trained models (~35-40 dB against ground
    /// truth). Quality comparisons are about how warping/downsampling errors
    /// *compose* with the model's own error; with the paper-scale baseline
    /// error, the composition matches the paper's regime.
    pub const QUALITY: ModelSpec = ModelSpec::Grid { resolution: 56 };

    /// The performance experiments' model of `kind`.
    pub fn standard(kind: ModelKind) -> ModelSpec {
        match kind {
            ModelKind::Grid => ModelSpec::Grid { resolution: 128 },
            ModelKind::Hash => ModelSpec::Hash {
                table_size_log2: 17,
            },
            ModelKind::Tensor => ModelSpec::Tensor { resolution: 96 },
        }
    }
}

/// Bakes `spec` for `scene` with a narrow executed decoder charged at the
/// paper-scale width (64).
pub fn baked(scene: &AnalyticScene, spec: ModelSpec) -> Box<dyn NerfModel> {
    let opts = bake::BakeOptions {
        decoder_hidden: 16,
        ..Default::default()
    };
    macro_rules! charged {
        ($model:expr) => {{
            let mut model = $model;
            model.decoder.set_modeled_hidden(64);
            Box::new(model)
        }};
    }
    match spec {
        ModelSpec::Grid { resolution } => {
            let cfg = GridConfig {
                resolution,
                ..Default::default()
            };
            charged!(bake::bake_grid_with(scene, &cfg, &opts))
        }
        ModelSpec::Hash { table_size_log2 } => {
            let cfg = HashConfig {
                table_size_log2,
                ..Default::default()
            };
            charged!(bake::bake_hash_with(scene, &cfg, &opts))
        }
        ModelSpec::Tensor { resolution } => {
            let cfg = TensorConfig {
                resolution,
                components_per_signal: 2,
                bytes_per_value: 2,
            };
            charged!(bake::bake_tensor_with(scene, &cfg, &opts))
        }
    }
}

/// The two captures quality experiments replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capture {
    /// 18 frames at 30 FPS: real-time VR motion.
    Dense,
    /// Every 15th of 270 such frames: ~2 FPS-equivalent pose deltas, a
    /// sparse dataset capture.
    Sparse,
}

impl Capture {
    pub fn trajectory(self, scene: &AnalyticScene) -> Trajectory {
        match self {
            Capture::Dense => Trajectory::orbit(scene, 18, 30.0),
            Capture::Sparse => Trajectory::orbit(scene, 18 * 15, 30.0).subsample(15),
        }
    }
}

/// The columns of [`Lab::method_psnrs`], in its order.
pub fn method_columns() -> [Col; 5] {
    [
        col("baseline", "Baseline"),
        col("cicero6", "Cicero-6"),
        col("cicero16", "Cicero-16"),
        col("ds2", "DS-2"),
        col("temp16", "Temp-16"),
    ]
    .map(|c| c.fixed(2))
}

/// Values computed once per key and lent out as shared pointers.
struct Memo<K, V: ?Sized>(RefCell<Vec<(K, Rc<V>)>>);

impl<K, V: ?Sized> Default for Memo<K, V> {
    fn default() -> Self {
        Memo(RefCell::new(Vec::new()))
    }
}

impl<K: PartialEq, V: ?Sized> Memo<K, V> {
    /// The value under `key`, made on first use. No borrow is held while
    /// `make` runs, so it may ask the `Lab` for what it is made from.
    fn get(&self, key: K, make: impl FnOnce() -> Rc<V>) -> Rc<V> {
        let found = self
            .0
            .borrow()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone());
        found.unwrap_or_else(|| {
            let value = make();
            self.0.borrow_mut().push((key, value.clone()));
            value
        })
    }

    fn count(&self, keep: impl Fn(&K) -> bool) -> usize {
        self.0.borrow().iter().filter(|(k, _)| keep(k)).count()
    }
}

type Scene = &'static str;

/// See the module docs; `Lab::default()` is an empty one.
#[derive(Default)]
pub struct Lab {
    scenes: Memo<Scene, AnalyticScene>,
    models: Memo<(Scene, ModelSpec), dyn NerfModel>,
    references: Memo<(Scene, ModelSpec), ReferenceWorkloads>,
    targets: Memo<(Scene, ModelSpec, usize), ModelWorkloads>,
    truths: Memo<(Scene, Capture), Vec<RgbImage>>,
    psnrs: Memo<(Scene, Capture), [f64; 5]>,
}

impl Lab {
    /// The experiment-tuned library scene `name`.
    pub fn scene(&self, name: Scene) -> Rc<AnalyticScene> {
        self.scenes.get(name, || Rc::new(experiment_scene(name)))
    }

    /// `spec` baked for `scene`.
    pub fn model(&self, scene: Scene, spec: ModelSpec) -> Rc<dyn NerfModel> {
        self.models
            .get((scene, spec), || baked(&self.scene(scene), spec).into())
    }

    /// [`crate::measure_workloads`] of `spec` on `scene` at `window`: the
    /// reference half is measured once per model, the target half once per
    /// window.
    pub fn workloads(&self, scene: Scene, spec: ModelSpec, window: usize) -> Rc<ModelWorkloads> {
        self.targets.get((scene, spec, window), || {
            let (s, model) = (self.scene(scene), self.model(scene, spec));
            let reference = self.references.get((scene, spec), || {
                Rc::new(measure_reference(&s, model.as_ref()))
            });
            Rc::new(measure_target(&s, model.as_ref(), &reference, window))
        })
    }

    /// Ground-truth colours of `capture` on `scene`.
    pub fn ground_truth(&self, scene: Scene, capture: Capture) -> Rc<Vec<RgbImage>> {
        self.truths.get((scene, capture), || {
            let s = self.scene(scene);
            Rc::new(ground_truth(&s, &capture.trajectory(&s)))
        })
    }

    /// PSNR against ground truth of the five methods of Fig. 16 / 25 on the
    /// quality model: Baseline, Cicero-6, Cicero-16, DS-2 (every pose at half
    /// resolution, upsampled), Temp-16 (a full render every 16 frames,
    /// chained warps in between).
    pub fn method_psnrs(&self, scene: Scene, capture: Capture) -> [f64; 5] {
        *self.psnrs.get((scene, capture), || {
            let (s, model) = (self.scene(scene), self.model(scene, ModelSpec::QUALITY));
            let (model, traj, k) = (model.as_ref(), capture.trajectory(&s), quality_intrinsics());
            let gt = self.ground_truth(scene, capture);
            let pipeline = |variant, window| {
                let cfg = quality_config(variant, window);
                psnr_vs_gt(&run_pipeline(&s, model, &traj, k, &cfg).frames, &gt)
            };
            // The comparison renders match `quality_config`'s march.
            let opts = RenderOptions {
                march: exp_march(),
                ..Default::default()
            };
            let ds2: Vec<Frame> = (0..traj.len())
                .map(|i| render_ds2(model, &traj.camera(i, k), &opts, &mut NullSink).0)
                .collect();
            let temp16 = render_temp_chain(model, &traj, k, 16, &opts);
            let temp16: Vec<Frame> = temp16.into_iter().map(|(frame, _)| frame).collect();
            Rc::new([
                pipeline(Variant::Baseline, 1),
                pipeline(Variant::Cicero, 6),
                pipeline(Variant::Cicero, 16),
                psnr_vs_gt(&ds2, &gt),
                psnr_vs_gt(&temp16, &gt),
            ])
        })
    }

    /// What was computed, for the driver's closing line.
    pub fn summary(&self) -> String {
        let quality = |key: &(Scene, ModelSpec)| key.1 == ModelSpec::QUALITY;
        format!(
            "lab: {} standard-scale bakes, {} quality-model bakes, {} reference + {} target \
             measurements, {} ground-truth sets",
            self.models.count(|k| !quality(k)),
            self.models.count(quality),
            self.references.count(|_| true),
            self.targets.count(|_| true),
            self.truths.count(|_| true),
        )
    }
}
