//! Plain-text report tables for the experiment harness.

use std::fmt;

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| (*s).to_owned()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity must match header");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i].saturating_sub(c.chars().count());
                write!(f, " {}{} |", c, " ".repeat(pad))?;
            }
            writeln!(f)
        };
        let sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        sep(f)?;
        write_row(f, &self.header)?;
        sep(f)?;
        for r in &self.rows {
            write_row(f, r)?;
        }
        sep(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "12345".into()]);
        let s = t.to_string();
        assert!(s.contains("| alpha | 1     |"), "{s}");
        assert!(s.contains("| b     | 12345 |"), "{s}");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
