//! Plain-text table rendering for experiment reports.
//!
//! The `repro` harness prints every paper table and figure as an aligned
//! text table plus machine-readable CSV; this module is the shared
//! formatter.

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table (first column left-aligned, the
    /// rest right-aligned, as is conventional for numeric tables).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("## {}\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("{cell:>w$}"));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Render as CSV (headers + rows, comma-separated, quotes around cells
    /// containing commas).
    pub fn to_csv(&self) -> String {
        let escape = |s: &String| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(escape)
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(escape).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with sensible precision for reports.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// Format a percentage with a sign.
pub fn fpct(x: f64) -> String {
    format!("{x:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["scheme", "slowdown"]);
        t.row(vec!["EASY".into(), "3.20".into()]);
        t.row(vec!["Conservative".into(), "4.15".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("scheme"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, rule, two rows (plus title).
        assert_eq!(lines.len(), 5);
        // Right-aligned numeric column: both rows end at the same column.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into(), "hello, world".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,\"hello, world\"\n");
    }

    #[test]
    fn csv_escapes_quotes() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["say \"hi\"".into()]);
        assert_eq!(t.to_csv(), "a\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        Table::new("x", &["a", "b"]).row(vec!["only one".into()]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = Table::new("x", &["a"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(3.17159), "3.17");
        assert_eq!(fnum(42.42), "42.4");
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fpct(-12.34), "-12.3%");
        assert_eq!(fpct(5.0), "+5.0%");
    }
}
