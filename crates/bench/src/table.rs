//! Minimal result tables: aligned stdout rendering + CSV files.
//!
//! Deliberately dependency-free (no serde): experiment rows are flat
//! strings and CSV needs nothing more than escaping.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A rectangular result table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{c:>w$}", w = w);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders RFC-4180-style CSV.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the table and writes `<results_dir>/<file>.csv`.
    ///
    /// # Errors
    /// Fails, naming the path, if the directory cannot be created or the
    /// file cannot be written.
    pub fn emit(&self, results_dir: &Path, file: &str) -> io::Result<()> {
        println!("{}", self.render());
        let path = results_dir.join(format!("{file}.csv"));
        fs::create_dir_all(results_dir)
            .and_then(|()| fs::write(&path, self.to_csv()))
            .map_err(|e| {
                io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
            })?;
        println!("-> {}\n", path.display());
        Ok(())
    }
}

/// Formats a float with engineering-friendly precision.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        // All data lines have the same width.
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["pl,ain".into(), "qu\"ote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"pl,ain\""));
        assert!(csv.contains("\"qu\"\"ote\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn emit_into_a_regular_file_fails_naming_the_path() {
        let file = std::env::temp_dir().join(format!("ssj-results-file-{}", std::process::id()));
        fs::write(&file, "").unwrap();
        let err = Table::new("x", &["a"]).emit(&file, "out").unwrap_err();
        let _ = fs::remove_file(&file);
        assert!(
            err.to_string().contains(&file.display().to_string()),
            "{err}"
        );
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.1234), "0.123");
        assert_eq!(fnum(12.34), "12.3");
        assert_eq!(fnum(1234.5), "1234");
    }
}
