//! The figures, in paper order, and the claims they make.

// The figures' shared vocabulary: each body starts from `use super::*`.
use crate::*;
use cicero::{Scenario, Variant};
use cicero_accel::config::SocConfig;
use cicero_accel::soc::SocModel;
use cicero_accel::{GpuConfig, GpuModel};
use cicero_field::render::render_full;
use cicero_field::ModelKind;

macro_rules! figures {
    ($($id:ident),*) => {
        $(mod $id;)*

        /// Every figure: its id (also its module and its `results/<id>.json`)
        /// and its body.
        pub const FIGURES: &[(&str, fn(&Lab) -> Figure)] = &[$((stringify!($id), $id::run)),*];
    };
}

figures![
    fig02, fig03, fig04, fig05, fig06, fig07, fig09, fig16, fig17, fig18, fig19, fig20, fig21,
    fig22, fig23, fig24, fig25, fig26, tab_area
];

/// Every paper-vs-measured claim of every figure: the fidelity contract.
pub fn fidelity(lab: &Lab) -> Vec<Claim> {
    FIGURES
        .iter()
        .flat_map(|(_, run)| run(lab).claims)
        .collect()
}

// The understood gaps the pins cite, by the names ROADMAP gives them.
const GAP_A: &str = "ROADMAP GAP_A: the void test paints geometry as background";
const GAP_B: &str = "ROADMAP GAP_B: remote pricing";
const GAP_C: &str =
    "ROADMAP GAP_C: GU and cache model (the baseline's gather is priced too kindly)";
const GAP_D: &str = "ROADMAP GAP_D: too many pixels fall to the sparse render";
const STAND_IN: &str = "analytic stand-in for the photographic capture";
