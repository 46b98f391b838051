//! Minimal fixed-width ASCII table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple left-aligned ASCII table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row arity does not match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "Table: row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let hline = |out: &mut String| {
            for w in &widths {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        hline(&mut out);
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(out, "| {h:<width$} ", width = widths[i]);
        }
        out.push_str("|\n");
        hline(&mut out);
        for row in &self.rows {
            for i in 0..cols {
                let _ = write!(out, "| {:<width$} ", row[i], width = widths[i]);
            }
            out.push_str("|\n");
        }
        hline(&mut out);
        out
    }
}

/// Formats a float with 2 decimal places (the paper's precision).
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a signed percentage with one decimal place.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1.00".into()]);
        t.row(&["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| name   | value |"));
        assert!(s.contains("| longer | 2     |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // All lines same width.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(78.4313), "78.43");
        assert_eq!(pct(0.1103), "+11.0%");
        assert_eq!(pct(-0.5), "-50.0%");
    }
}
