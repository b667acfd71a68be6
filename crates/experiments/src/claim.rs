//! A paper-vs-measured line as data: what the paper states, what this
//! repository measures, and the band the measurement has to stay inside.
//!
//! # The band rule
//!
//! A [`Basis::Paper`] band comes from the paper's own statement and from
//! nothing else ([`Band::from_paper`]):
//!
//! | paper string | band |
//! |---|---|
//! | `">56%"`, `">1.3x"` | `[56, 100]`, `[1.3, ∞)` — a stated bound is the band's edge; percentages stop at 0 and 100 |
//! | `"<1.0 dB"`, `"<=0.1 dB*"`, `"<2.5%"` | `(−∞, 1.0]`, `(−∞, 0.1]`, `[0, 2.5]` |
//! | `"8.1x"`, `"~0.8"`, `"44 KB"` | the number ± 25 % of itself |
//! | `"~1.3 dB"` | the number ± 1.0 dB |
//! | `"38% avg"`, `"~80%"` | the number ± 10 percentage points |
//! | `"yes"`, `"none"`, `"better"` (no number) | the measured flag must agree: `Is(true)` |
//!
//! A [`Basis::Pinned`] band is for a gap that is understood and accepted: it
//! is centred on the value measured when the pin was written, ± 5 % of
//! itself, ± 0.25 dB or ± 2 percentage points by the unit the measurement
//! prints (for a flag: the answer measured then), and carries the one-line
//! reason. A PR that moves a pinned number edits the pin in the same diff.

use serde::{Serialize, Value};
use std::fmt;

/// What a figure measured, with the text it prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub reading: Reading,
    /// The printed form: `"6.7x"`, `"5.19 dB"`, `"yes"`.
    pub text: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reading {
    Number(f64),
    /// `true` when the paper's statement holds.
    Flag(bool),
}

/// A number printed with `prec` decimals and a unit suffix: `6.71 → "6.7x"`.
pub fn num(value: f64, prec: usize, unit: &str) -> Measured {
    let text = format!("{value:.prec$}{unit}");
    Measured {
        reading: Reading::Number(value),
        text,
    }
}

/// A fraction printed as a percentage: `0.825 → "82.5%"`.
pub fn pct(fraction: f64, prec: usize) -> Measured {
    num(fraction * 100.0, prec, "%")
}

/// A ratio: `6.71 → "6.7x"`.
pub fn times(ratio: f64, prec: usize) -> Measured {
    num(ratio, prec, "x")
}

/// [`num`] with an explicit sign: `+3.2 dB`.
pub fn signed(value: f64, prec: usize, unit: &str) -> Measured {
    let text = format!("{value:+.prec$}{unit}");
    Measured {
        reading: Reading::Number(value),
        text,
    }
}

/// A flag printed as `holds` when the paper's statement holds, `fails` when
/// it does not.
pub fn flag(value: bool, holds: &str, fails: &str) -> Measured {
    let text = if value { holds } else { fails }.to_string();
    Measured {
        reading: Reading::Flag(value),
        text,
    }
}

/// The usual flag: `yes` / `no`.
pub fn yes_no(value: bool) -> Measured {
    flag(value, "yes", "no")
}

/// Where a measurement has to stay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// Closed interval on a number; either side may be infinite.
    Range { lo: f64, hi: f64 },
    /// The expected flag.
    Is(bool),
}

/// The unit a number is stated in, which decides its tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// Ratios, times, sizes: tolerance relative to the value.
    Relative,
    Decibel,
    /// Percentages: tolerance in percentage points, range `[0, 100]`.
    Points,
}

impl Unit {
    /// Reads the unit off a paper string or a measured text.
    fn of(text: &str) -> Unit {
        if text.contains("dB") {
            Unit::Decibel
        } else if text.contains('%') {
            Unit::Points
        } else {
            Unit::Relative
        }
    }

    /// The band around `centre`: `[relative, dB, points]` picks the tolerance.
    fn around(self, centre: f64, [relative, db, points]: [f64; 3]) -> Band {
        let tol = match self {
            Unit::Relative => centre.abs() * relative,
            Unit::Decibel => db,
            Unit::Points => points,
        };
        self.clamped(centre - tol, centre + tol)
    }

    /// `[lo, hi]`, which for a percentage stops at 0 and 100.
    fn clamped(self, lo: f64, hi: f64) -> Band {
        let (lo, hi) = match self {
            Unit::Points => (lo.max(0.0), hi.min(100.0)),
            _ => (lo, hi),
        };
        Band::Range { lo, hi }
    }
}

const PAPER_TOLERANCE: [f64; 3] = [0.25, 1.0, 10.0];
const PINNED_TOLERANCE: [f64; 3] = [0.05, 0.25, 2.0];

impl Band {
    /// The band the paper's statement gives (module docs: the band rule).
    pub fn from_paper(paper: &str) -> Band {
        let s = paper.trim_start_matches("up to ");
        let (bound, rest) = match s.as_bytes().first() {
            Some(b'<') => ('<', s.trim_start_matches(['<', '='])),
            Some(b'>') => ('>', &s[1..]),
            _ => ('~', s.trim_start_matches('~')),
        };
        let digits = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(rest.len());
        let Ok(stated) = rest[..digits].parse::<f64>() else {
            return Band::Is(true);
        };
        let unit = Unit::of(rest);
        match bound {
            '<' => unit.clamped(f64::NEG_INFINITY, stated),
            '>' => unit.clamped(stated, f64::INFINITY),
            _ => unit.around(stated, PAPER_TOLERANCE),
        }
    }

    /// Whether `measured` is inside: edges inclusive, a NaN never is, and a
    /// number against a flag band (or the reverse) never is.
    pub fn holds(&self, measured: &Measured) -> bool {
        match (self, measured.reading) {
            (Band::Range { lo, hi }, Reading::Number(value)) => *lo <= value && value <= *hi,
            (Band::Is(expected), Reading::Flag(value)) => *expected == value,
            _ => false,
        }
    }
}

/// Why the band is where it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Derived from the paper's statement.
    Paper,
    /// An understood gap, pinned at the measured value.
    Pinned { why: &'static str },
}

/// One paper-vs-measured line of one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    pub figure: &'static str,
    pub label: String,
    /// The paper's statement, as printed.
    pub paper: &'static str,
    pub measured: Measured,
    pub band: Band,
    pub basis: Basis,
}

impl Claim {
    /// A claim held to the paper's own statement.
    pub fn paper(
        figure: &'static str,
        label: &str,
        paper: &'static str,
        measured: Measured,
    ) -> Self {
        Claim {
            figure,
            label: label.into(),
            paper,
            measured,
            band: Band::from_paper(paper),
            basis: Basis::Paper,
        }
    }

    /// Pins an understood gap at `centre`, the number measured when the pin
    /// was written.
    pub fn pinned(&mut self, centre: f64, why: &'static str) {
        self.band = Unit::of(&self.measured.text).around(centre, PINNED_TOLERANCE);
        self.basis = Basis::Pinned { why };
    }

    /// Pins a flag the paper's statement fails on, for an understood reason.
    pub fn pinned_failing(&mut self, why: &'static str) {
        self.band = Band::Is(false);
        self.basis = Basis::Pinned { why };
    }

    pub fn in_band(&self) -> bool {
        self.band.holds(&self.measured)
    }
}

/// The printed `paper: … measured: …` line.
impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  {:<46} paper: {:>10}  measured: {:>10}",
            self.label, self.paper, self.measured.text
        )
    }
}

/// One entry of `results/fidelity.json`: numbers as numbers, flags as flags,
/// an unbounded band edge as `null`.
impl Serialize for Claim {
    fn to_value(&self) -> Value {
        let text = |s: &str| Value::Str(s.into());
        let value = match self.measured.reading {
            Reading::Number(value) => Value::Float(value),
            Reading::Flag(value) => Value::Bool(value),
        };
        let band = match self.band {
            Band::Range { lo, hi } => [lo, hi].to_value(),
            Band::Is(expected) => Value::Bool(expected),
        };
        let (basis, why) = match self.basis {
            Basis::Paper => ("paper", Value::Null),
            Basis::Pinned { why } => ("pinned", text(why)),
        };
        let fields = [
            ("figure", text(self.figure)),
            ("label", text(&self.label)),
            ("paper", text(self.paper)),
            ("measured", text(&self.measured.text)),
            ("value", value),
            ("band", band),
            ("basis", text(basis)),
            ("why", why),
            ("in_band", Value::Bool(self.in_band())),
        ];
        Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
    }
}
