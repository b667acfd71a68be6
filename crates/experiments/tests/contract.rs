//! The fidelity contract's own rules: band logic, the `Paper` rule on every
//! paper-string shape in use, pins, the printed line, the shape of `FIGURES`
//! and of the claims the cheap figures make, table → JSON, result writing.

use cicero_experiments::figures::FIGURES;
use cicero_experiments::*;
use cicero_math::{RgbImage, Vec3};

const INF: f64 = f64::INFINITY;

fn range(lo: f64, hi: f64) -> Band {
    Band::Range { lo, hi }
}

fn assert_range(band: Band, lo: f64, hi: f64) {
    let Band::Range { lo: l, hi: h } = band else {
        panic!("{band:?} is not a range");
    };
    let close = |a: f64, b: f64| a == b || (a - b).abs() < 1e-9;
    assert!(close(l, lo) && close(h, hi), "{band:?} is not [{lo}, {hi}]");
}

#[test]
fn band_edges_are_inclusive_nan_is_never_inside_and_kinds_do_not_mix() {
    let band = range(1.0, 2.0);
    for (value, inside) in [(1.0, true), (2.0, true), (0.999, false), (2.001, false)] {
        assert_eq!(band.holds(&num(value, 3, "")), inside, "{value}");
    }
    assert!(!range(-INF, INF).holds(&num(f64::NAN, 1, "")));
    assert!(range(-INF, 0.1).holds(&num(-3.0, 1, " dB")));
    for (expected, value) in [(true, true), (true, false), (false, false)] {
        assert_eq!(Band::Is(expected).holds(&yes_no(value)), expected == value);
    }
    assert!(!Band::Is(true).holds(&num(1.0, 0, "")));
    assert!(!range(0.0, 1.0).holds(&yes_no(true)));
}

#[test]
fn the_paper_rule_on_every_string_shape_in_use() {
    for (paper, lo, hi) in [
        (">56%", 56.0, 100.0),
        ("<2.5%", 0.0, 2.5),
        ("38% avg", 28.0, 48.0),
        ("up to 92%", 82.0, 100.0),
        ("~0.8", 0.6, 1.0),
        ("8.1x", 8.1 * 0.75, 8.1 * 1.25),
        ("0.048 mm2", 0.036, 0.06),
        ("0", 0.0, 0.0),
        (">1.3x", 1.3, INF),
        ("~1.3 dB", 0.3, 2.3),
        ("<=0.1 dB*", -INF, 0.1),
    ] {
        assert_range(Band::from_paper(paper), lo, hi);
    }
    for words in ["yes", "none", "better", "similar", "little"] {
        assert_eq!(Band::from_paper(words), Band::Is(true), "{words}");
    }
}

#[test]
fn a_pin_is_centred_on_its_value_by_the_unit_the_measurement_prints() {
    let why = "an understood gap";
    for (paper, measured, centre, lo, hi) in [
        ("8.1x", times(6.71, 1), 6.7, 6.7 * 0.95, 6.7 * 1.05),
        ("little", num(4.5, 2, " dB"), 4.55, 4.3, 4.8),
        ("86.1%", pct(0.654, 1), 65.5, 63.5, 67.5),
        ("38% avg", pct(0.01, 1), 1.0, 0.0, 3.0),
    ] {
        let mut claim = Claim::paper("figXX", "label", paper, measured);
        claim.pinned(centre, why);
        assert_eq!(claim.basis, Basis::Pinned { why });
        assert_range(claim.band, lo, hi);
        assert!(claim.in_band());
    }
    let mut failing = Claim::paper("figXX", "label", "yes", yes_no(false));
    assert!(!failing.in_band());
    failing.pinned_failing(why);
    assert!(failing.in_band());
}

#[test]
fn a_claim_prints_the_line_paper_vs_printed() {
    let claim = Claim::paper("fig19", "local SPARW speedup", "8.1x", times(6.71, 1));
    let (label, paper, measured) = ("local SPARW speedup", "8.1x", "6.7x");
    let line = format!("  {label:<46} paper: {paper:>10}  measured: {measured:>10}");
    assert_eq!(claim.to_string(), line);
}

#[test]
fn figures_are_unique_in_paper_order_and_the_cheap_ones_claim_inside_their_bands() {
    let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    assert_eq!((ids.len(), ids[18]), (19, "tab_area"));
    let number = |id: &&str| id.strip_prefix("fig").and_then(|n| n.parse::<u32>().ok());
    let numbers: Vec<u32> = ids[..18].iter().map(|id| number(id).expect(id)).collect();
    assert!(numbers.windows(2).all(|w| w[0] < w[1]), "{ids:?}");

    let (lab, rule) = (Lab::default(), "=".repeat(58));
    for (id, run) in FIGURES {
        if !["fig07", "tab_area"].contains(id) {
            continue;
        }
        let figure = run(&lab);
        let printed = figure.to_string();
        assert_eq!(figure.id, *id);
        assert!(printed.starts_with(&format!("{rule}\n{id}: {}\n{rule}\n", figure.title)));
        assert_eq!(figure.claims.len(), 4);
        for claim in &figure.claims {
            assert_eq!(claim.figure, *id);
            assert!(claim.in_band(), "{claim} is outside {:?}", claim.band);
            assert!(claim.basis != Basis::Pinned { why: "" }, "{claim}");
            assert!(printed.contains(&format!("{claim}\n")));
        }
    }
}

#[derive(Serialize)]
struct SampleRow {
    model: String,
    hidden: String,
    window: usize,
    fps: f64,
    share: f64,
}

#[test]
fn a_table_serialises_to_the_bytes_of_the_struct_with_its_keyed_columns() {
    let mut table = Table::new([
        col("model", "model"),
        col("hidden", ""),
        col("", "60 FPS?"),
        col("window", "window"),
        col("fps", "FPS (sim)").fixed(2),
        col("share", "share ×").percent(1),
    ]);
    let samples = [
        ("Instant-NGP", "Local", 16usize, 0.766, 0.4125),
        ("TensoRF", "Remote", 1, 2.0, 1.0),
    ];
    let mut rows = Vec::new();
    for (model, hidden, window, fps, share) in samples {
        table.push(row![model, hidden, "no", window, fps, share]);
        let (model, hidden) = (model.to_string(), hidden.to_string());
        rows.push(SampleRow {
            model,
            hidden,
            window,
            fps,
            share,
        });
    }
    assert_eq!(
        serde_json::to_string_pretty(&table.json()).unwrap(),
        serde_json::to_string_pretty(&rows).unwrap()
    );
    // Printed: only the headed columns, right-aligned; a `×` widens its
    // column by one, as in the parent's tables.
    assert_eq!(
        table.to_string(),
        "        model  60 FPS?  window  FPS (sim)   share ×\n  \
         -----------  -------  ------  ---------  --------\n  \
         Instant-NGP       no      16       0.77      41.2\n      \
         TensoRF       no       1       2.00     100.0\n"
    );
    assert_eq!(table.at("model", "TensoRF", "fps"), 2.0);
    assert_eq!(table.at("window", 16usize, "share"), 0.4125);
    assert_eq!(table.only("hidden", "Remote").mean("fps"), 2.0);
}

#[test]
fn a_result_that_cannot_be_written_is_an_error_naming_the_path() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-results");
    let _ = std::fs::remove_dir_all(&dir);
    let file = write_json(&dir, "sample", &vec![1u32, 2]).unwrap();
    assert_eq!(std::fs::read_to_string(&file).unwrap(), "[\n  1,\n  2\n]\n");
    // A figure creates the directory for its images too.
    let mut figure = Figure::new("figXX", "a figure with an image");
    figure.images = vec![("frame", RgbImage::new(2, 2, Vec3::ZERO))];
    let nested = dir.join("results");
    assert_eq!(figure.write(&nested).unwrap(), nested.join("figXX.json"));
    assert!(nested.join("figXX_frame.ppm").exists());
    // A file where the directory should be.
    let err = write_json(&file, "sample", &vec![1u32]).unwrap_err();
    assert!(err.to_string().contains("sample.json"), "{err}");
    assert!(figure.write(&file).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}
