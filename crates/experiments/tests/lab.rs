//! Lab soundness: what a `Lab` lends equals a fresh computation bit for bit
//! (memoisation is sound because baking and rendering are deterministic —
//! asserted here, not assumed), and asking twice lends the same allocation.

use cicero_experiments::{
    baked, exp_march, experiment_scene, measure_workloads, quality_intrinsics, Capture, Lab,
    ModelSpec,
};
use cicero_field::render::render_full;
use cicero_field::NullSink;
use cicero_scene::ground_truth::render_frame;
use std::rc::Rc;

#[test]
fn a_lab_lends_what_a_fresh_computation_gives_and_computes_it_once() {
    let (name, spec) = ("mic", ModelSpec::Grid { resolution: 48 });
    let lab = Lab::default();
    let scene = experiment_scene(name);
    let fresh = baked(&scene, spec);

    // The model: same frame, same statistics.
    let model = lab.model(name, spec);
    let camera = cicero_experiments::exp_camera(&scene);
    let opts = cicero_experiments::exp_render_options();
    assert_eq!(
        render_full(model.as_ref(), &camera, &opts, &mut NullSink),
        render_full(fresh.as_ref(), &camera, &opts, &mut NullSink)
    );
    assert!(Rc::ptr_eq(&model, &lab.model(name, spec)));

    // Reference and target workloads, at two windows sharing one reference.
    for window in [8, 3] {
        let lent = lab.workloads(name, spec, window);
        assert_eq!(*lent, measure_workloads(&scene, fresh.as_ref(), window));
        assert!(Rc::ptr_eq(&lent, &lab.workloads(name, spec, window)));
    }

    // Ground-truth frames of a capture.
    let truth = lab.ground_truth(name, Capture::Dense);
    let (traj, k) = (Capture::Dense.trajectory(&scene), quality_intrinsics());
    assert_eq!(truth.len(), traj.len());
    for (i, lent) in truth.iter().enumerate() {
        assert_eq!(
            *lent,
            render_frame(&scene, &traj.camera(i, k), &exp_march()).color
        );
    }
    assert!(Rc::ptr_eq(&truth, &lab.ground_truth(name, Capture::Dense)));

    assert_eq!(
        lab.summary(),
        "lab: 1 standard-scale bakes, 0 quality-model bakes, 1 reference + 2 target \
         measurements, 1 ground-truth sets"
    );
}
