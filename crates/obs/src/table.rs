//! Minimal aligned-table printing and CSV output for experiment results.
//!
//! Reports build their JSON records first; a human table is a
//! projection of those records ([`Table::project`]), so every value is
//! spelled once.

use crate::json::Json;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One column of a table projected from JSON records: its header, a
/// dotted path into the record (`"sojourn.p50_ns"`), the factor numbers
/// are scaled by, and the decimal places they print with. A path
/// starting with `?` names a field only some record kinds carry; where
/// it is absent the cell is `-`.
pub type Column<'a> = (&'a str, &'a str, f64, usize);

/// A titled table of string cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Human-readable title (printed above the table).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells; each row must have `columns.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the row width disagrees with the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in `{}`",
            self.title
        );
        self.rows.push(row);
    }

    /// A table with one row per record, projected through `columns`.
    pub fn project<'r>(
        title: impl Into<String>,
        columns: &[Column],
        records: impl IntoIterator<Item = &'r Json>,
    ) -> Self {
        let headers: Vec<&str> = columns.iter().map(|c| c.0).collect();
        let mut t = Table::new(title, &headers);
        for r in records {
            t.push_record(columns, r);
        }
        t
    }

    /// Appends `record` projected through `columns`: numbers scaled and
    /// printed at the column's precision, strings as they are, `null`
    /// (anywhere along the path) as `-`. A scale below 1 divides by its
    /// reciprocal, so `1e-3` prints nanoseconds as `ns / 1e3` would.
    ///
    /// # Panics
    /// Panics naming the table and the path when the record lacks a
    /// required field, or the field is an array or object.
    pub fn push_record(&mut self, columns: &[Column], record: &Json) {
        let row = columns
            .iter()
            .map(|&(_, path, scale, prec)| {
                let (optional, keys) = match path.strip_prefix('?') {
                    Some(keys) => (true, keys),
                    None => (false, path),
                };
                let value = keys.split('.').try_fold(record, |v, key| match v {
                    Json::Null => Some(v),
                    _ => v.get(key),
                });
                match value {
                    None if optional => "-".into(),
                    None => panic!("table `{}`: record has no `{path}`", self.title),
                    Some(Json::Null) => "-".into(),
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::Bool(b)) => b.to_string(),
                    Some(v) => match v.as_f64() {
                        Some(x) if scale < 1.0 => fmt_f(x / scale.recip(), prec),
                        Some(x) => fmt_f(x * scale, prec),
                        None => panic!("table `{}`: `{path}` is not a scalar", self.title),
                    },
                }
            })
            .collect();
        self.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.columns, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Writes the table as CSV (header + rows). Cells containing commas
    /// or quotes are quoted per RFC 4180.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        fn escape(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{}",
            self.columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                body,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, body)
    }
}

/// Formats a float with the given precision, rendering non-finite values
/// as `sat` (the saturation marker used across the experiment tables).
pub fn fmt_f(x: f64, prec: usize) -> String {
    if x.is_finite() {
        format!("{x:.prec$}")
    } else {
        "sat".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.push(vec!["1".into(), "10.5".into()]);
        t.push(vec!["100".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("x"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1,5".into(), "x\"y".into()]);
        let dir = std::env::temp_dir().join("cbtree_table_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("a,b\n"));
        assert!(body.contains("\"1,5\""));
        assert!(body.contains("\"x\"\"y\""));
        let _ = std::fs::remove_dir_all(dir);
    }

    fn record() -> Json {
        Json::obj([
            ("name", "a".into()),
            ("rate", Json::F64(0.12345)),
            ("n", Json::U64(12_345)),
            ("gone", Json::Null),
            ("sojourn", Json::obj([("p50_ns", Json::U64(175))])),
        ])
    }

    #[test]
    fn projection_follows_paths_scales_and_renders_null_as_dash() {
        let cols: &[Column] = &[
            ("name", "name", 1.0, 0),
            ("rate%", "rate", 100.0, 1),
            ("n", "n", 1.0, 0),
            ("p50(us)", "sojourn.p50_ns", 1e-3, 2),
            ("gone", "gone", 1.0, 2),
            ("deep", "gone.p99_ns", 1.0, 2),
            ("opt", "?not_here", 1.0, 2),
        ];
        let t = Table::project("demo", cols, [&record()]);
        assert_eq!(
            t.columns,
            ["name", "rate%", "n", "p50(us)", "gone", "deep", "opt"]
        );
        // 175 ns prints as `175 / 1e3` does, not as `175 * 1e-3` ("0.18").
        assert_eq!(fmt_f(175.0 / 1e3, 2), "0.17");
        assert_eq!(t.rows, [["a", "12.3", "12345", "0.17", "-", "-", "-"]]);
    }

    #[test]
    #[should_panic(expected = "table `demo`: record has no `sojourn.p99_ns`")]
    fn projection_of_a_missing_field_names_the_table_and_the_path() {
        Table::project("demo", &[("p99", "sojourn.p99_ns", 1.0, 0)], [&record()]);
    }

    #[test]
    fn fmt_f_saturation_marker() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(f64::INFINITY, 2), "sat");
        assert_eq!(fmt_f(f64::NAN, 2), "sat");
    }
}
