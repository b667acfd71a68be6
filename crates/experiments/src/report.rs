//! What a figure hands the driver: typed tables whose columns carry the JSON
//! key, the printed header and the display format together, free-text notes,
//! and [`Claim`]s.

use crate::claim::{Claim, Measured};
use cicero_math::RgbImage;
use serde::{Serialize, Value};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// A row literal, `row!["lego", 0.5, 3usize]`: each cell is the JSON value it
/// serialises to — text, a count or a number — printed by its column's format.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($crate::Serialize::to_value(&$cell)),*] };
}

/// A JSON object with the fields in the order given (what a
/// `#[derive(Serialize)]` struct with those fields serialises to).
pub fn record(fields: &[(&str, Value)]) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// A table column: the JSON key, the printed header and the display format.
#[derive(Debug, Clone, PartialEq)]
pub struct Col {
    key: &'static str,
    header: &'static str,
    /// A number prints as `value × scale` with `decimals` decimals.
    scale: f64,
    decimals: usize,
}

/// A column serialised under `key` and printed under `header`. An empty
/// `key` keeps it out of the JSON, an empty `header` out of the printout.
pub fn col(key: &'static str, header: &'static str) -> Col {
    let (scale, decimals) = (1.0, 0);
    Col {
        key,
        header,
        scale,
        decimals,
    }
}

impl Col {
    /// Numbers print with `decimals` decimals.
    pub fn fixed(self, decimals: usize) -> Col {
        Col { decimals, ..self }
    }

    /// Fractions print as percentages with `decimals` decimals.
    pub fn percent(self, decimals: usize) -> Col {
        Col {
            scale: 100.0,
            decimals,
            ..self
        }
    }

    fn text(&self, cell: &Value) -> String {
        match cell {
            Value::Str(s) => s.clone(),
            Value::UInt(v) => v.to_string(),
            Value::Float(v) => format!("{:.*}", self.decimals, v * self.scale),
            other => panic!("a cell is text, a count or a number, not {other:?}"),
        }
    }
}

/// Rows under typed columns: one `push` feeds the JSON and the printout.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Printed above the table as `--- heading ---` (figures with several).
    heading: Option<String>,
    cols: Vec<Col>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    pub fn new(cols: impl IntoIterator<Item = Col>) -> Self {
        Table {
            heading: None,
            cols: cols.into_iter().collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics when the row's width is not the table's: rows are literals in
    /// the figure bodies, so a mismatch is a bug there.
    pub fn push(&mut self, cells: Vec<Value>) {
        assert_eq!(cells.len(), self.cols.len(), "row width mismatch");
        self.rows.push(cells);
    }

    fn index(&self, key: &str) -> usize {
        self.cols
            .iter()
            .position(|c| c.key == key)
            .unwrap_or_else(|| panic!("no column {key}"))
    }

    /// The numbers of column `key`, in row order.
    pub fn column<'a>(&'a self, key: &'a str) -> impl Iterator<Item = f64> + 'a {
        let i = self.index(key);
        self.rows.iter().map(move |row| match row[i] {
            Value::Float(v) => v,
            ref other => panic!("column {key} holds {other:?}, not a number"),
        })
    }

    /// The mean of column `key`.
    pub fn mean(&self, key: &str) -> f64 {
        self.column(key).sum::<f64>() / self.rows.len() as f64
    }

    /// The number under `want` in the row whose `key` cell is `is`: rows are
    /// addressed by what they hold, never by position.
    pub fn at(&self, key: &str, is: impl Serialize, want: &str) -> f64 {
        let (i, is) = (self.index(key), is.to_value());
        let at = self.rows.iter().position(|row| row[i] == is);
        let at = at.unwrap_or_else(|| panic!("no row with {key} = {is:?}"));
        self.column(want).nth(at).expect("row exists")
    }

    /// The rows whose `key` cell is `is`, as a table of their own.
    pub fn only(&self, key: &str, is: &str) -> Table {
        let (i, is) = (self.index(key), is.to_value());
        Table {
            heading: self.heading.clone(),
            cols: self.cols.clone(),
            rows: self.rows.iter().filter(|r| r[i] == is).cloned().collect(),
        }
    }

    /// The same table under a `--- heading ---` line.
    pub fn headed(self, heading: String) -> Table {
        Table {
            heading: Some(heading),
            ..self
        }
    }

    /// An array of objects: per row, the keyed columns in column order.
    pub fn json(&self) -> Value {
        let keyed = |row: &Vec<Value>| {
            let fields = self.cols.iter().zip(row);
            let fields = fields.filter(|(c, _)| !c.key.is_empty());
            Value::Object(
                fields
                    .map(|(c, cell)| (c.key.to_string(), cell.clone()))
                    .collect(),
            )
        };
        Value::Array(self.rows.iter().map(keyed).collect())
    }
}

/// The printed columns, right-aligned under their headers.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(heading) = &self.heading {
            writeln!(f, "\n  --- {heading} ---")?;
        }
        let printed = || {
            self.cols
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.header.is_empty())
        };
        let header: Vec<String> = printed().map(|(_, c)| c.header.to_string()).collect();
        let body = self
            .rows
            .iter()
            .map(|row| printed().map(|(i, c)| c.text(&row[i])).collect());
        let body: Vec<Vec<String>> = body.collect();
        // Width in bytes, padding in chars: a `×` in a header counts twice,
        // as it always has in these tables.
        let width = |i: usize| {
            body.iter()
                .map(|row| row[i].len())
                .fold(header[i].len(), usize::max)
        };
        let widths: Vec<usize> = (0..header.len()).map(width).collect();
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        for cells in [&header, &rule].into_iter().chain(&body) {
            let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}"));
            writeln!(f, "  {}", padded.collect::<Vec<_>>().join("  "))?;
        }
        Ok(())
    }
}

/// One reproduced figure or table of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    /// Printed under the banner, in order.
    pub tables: Vec<Table>,
    /// Printed before the claims.
    pub notes: Vec<String>,
    pub claims: Vec<Claim>,
    /// Printed after the claims.
    pub footnotes: Vec<String>,
    /// What `results/<id>.json` holds.
    pub json: Value,
    /// Written as `results/<id>_<name>.ppm`.
    pub images: Vec<(&'static str, RgbImage)>,
}

impl Figure {
    pub fn new(id: &'static str, title: &'static str) -> Self {
        Figure {
            id,
            title,
            tables: Vec::new(),
            notes: Vec::new(),
            claims: Vec::new(),
            footnotes: Vec::new(),
            json: Value::Null,
            images: Vec::new(),
        }
    }

    /// The common shape: one table, printed and serialised.
    pub fn with_table(mut self, table: Table) -> Self {
        self.json = table.json();
        self.tables.push(table);
        self
    }

    /// Adds a claim held to the paper's statement; pin it through the
    /// returned reference when the gap is an understood one.
    pub fn claim(&mut self, label: &str, paper: &'static str, measured: Measured) -> &mut Claim {
        self.claims
            .push(Claim::paper(self.id, label, paper, measured));
        self.claims.last_mut().expect("just pushed")
    }

    /// Writes `<dir>/<id>.json` and the images; returns the JSON's path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        let json = write_json(dir, self.id, &self.json)?;
        for (name, image) in &self.images {
            let path = dir.join(format!("{}_{name}.ppm", self.id));
            image.write_ppm(&path).map_err(|e| at_path(&path, e))?;
        }
        Ok(json)
    }
}

/// Writes `<dir>/<id>.json` (creating `dir`); an error names the path.
pub fn write_json(dir: &Path, id: &str, value: &impl Serialize) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir).map_err(|e| at_path(dir, e))?;
    let path = dir.join(format!("{id}.json"));
    let text = serde_json::to_string_pretty(value).expect("the shim's serialiser is infallible");
    std::fs::write(&path, text + "\n").map_err(|e| at_path(&path, e))?;
    Ok(path)
}

fn at_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Banner, tables, notes, claims and footnotes, as the figure prints them.
impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rule = "==========================================================";
        writeln!(f, "{rule}\n{}: {}\n{rule}", self.id, self.title)?;
        for table in &self.tables {
            write!(f, "{table}")?;
        }
        if !self.tables.is_empty() {
            writeln!(f)?;
        }
        self.notes.iter().try_for_each(|n| writeln!(f, "{n}"))?;
        self.claims.iter().try_for_each(|c| writeln!(f, "{c}"))?;
        self.footnotes.iter().try_for_each(|n| writeln!(f, "{n}"))
    }
}
