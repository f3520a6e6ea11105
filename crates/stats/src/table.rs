//! ASCII table and CSV rendering for experiment output.
//!
//! Every experiment in the harness emits a [`Table`]: a header, rows of
//! cells, and optional free-form notes. The same table renders to an
//! aligned ASCII grid for the terminal and to CSV for `results/*.csv`.

use std::fmt;

/// A simple rectangular table of strings.
///
/// # Example
///
/// ```
/// use antdensity_stats::table::Table;
///
/// let mut t = Table::new("demo", &["t", "epsilon"]);
/// t.row(&["100", "0.31"]);
/// t.row(&["400", "0.16"]);
/// let ascii = t.render();
/// assert!(ascii.contains("epsilon"));
/// assert_eq!(t.to_csv().lines().count(), 3); // header + 2 rows
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates an empty table with the given title and column header.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(title: &str, header: &[&str]) -> Self {
        assert!(!header.is_empty(), "table needs at least one column");
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row of string cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Adds a free-form note line printed under the table.
    pub fn note(&mut self, note: &str) -> &mut Self {
        self.notes.push(note.to_string());
        self
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column header.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// All data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Notes attached to the table.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Renders an aligned ASCII table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (i, &w) in widths.iter().enumerate().take(cols) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                s.push_str(&format!(" {cell:>w$} |"));
            }
            s
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Renders RFC-4180-style CSV (quotes cells containing commas/quotes).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with `prec` decimal places, switching to scientific
/// notation outside `[1e-4, 1e7)` for readability of tiny probabilities.
pub fn format_sig(v: f64, prec: usize) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if !(1e-4..1e7).contains(&a) {
        format!("{v:.prec$e}")
    } else if v == v.trunc() && a < 1e7 {
        format!("{}", v as i64)
    } else {
        format!("{v:.prec$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_grid() {
        let mut t = Table::new("demo", &["a", "long_column"]);
        t.row(&["1", "2"]);
        t.row(&["333", "4"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long_column"));
        // all body lines have the same width
        let widths: Vec<usize> = s
            .lines()
            .filter(|l| l.starts_with('|') || l.starts_with('+'))
            .map(|l| l.len())
            .collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn csv_has_header_plus_rows() {
        let mut t = Table::new("x", &["c1", "c2"]);
        t.row(&["1", "hello"]);
        let csv = t.to_csv();
        assert_eq!(csv, "c1,c2\n1,hello\n");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["c"]);
        t.row(&["a,b"]);
        t.row(&["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn notes_render() {
        let mut t = Table::new("x", &["v"]);
        t.row(&["1"]).note("paper predicts slope -1");
        assert!(t.render().contains("note: paper predicts slope -1"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn format_sig_cases() {
        assert_eq!(format_sig(0.0, 3), "0");
        assert_eq!(format_sig(5.0, 3), "5");
        assert_eq!(format_sig(-2.5, 2), "-2.50");
        assert!(format_sig(1.0e-7, 2).contains('e'));
        assert!(format_sig(3.2e9, 2).contains('e'));
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new("d", &["v"]);
        t.row(&["9"]);
        assert_eq!(format!("{t}"), t.render());
    }
}
