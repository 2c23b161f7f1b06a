//! Plain-text table rendering and CSV output for experiment results.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned results table that can also be saved as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the cell count must match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The cells of the column headed `header`, top to bottom (empty when
    /// no column has that header).
    pub fn column(&self, header: &str) -> Vec<&str> {
        let Some(i) = self.headers.iter().position(|h| h == header) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .filter_map(|row| row.get(i))
            .map(String::as_str)
            .collect()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Writes the table as CSV (headers + rows) to `path`.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        std::fs::write(path, out)
    }
}

/// Formats a `Duration` in seconds with millisecond resolution.
pub fn fmt_secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a ratio as a percentage with two decimals.
pub fn fmt_pct(r: f64) -> String {
    format!("{:.2}%", r * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["method", "time"]);
        t.push_row(vec!["naive-scan".into(), "1.5".into()]);
        t.push_row(vec!["tw".into(), "12345.0".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("naive-scan"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2 + 2 + 1); // title, header, rule, 2 rows
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join(format!("twtable-{}", std::process::id()));
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(std::time::Duration::from_millis(1500)), "1.500");
        assert_eq!(fmt_pct(0.01234), "1.23%");
    }
}
