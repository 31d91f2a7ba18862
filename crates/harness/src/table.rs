//! Printable result tables with an RFC-4180 CSV rendering; the sweep
//! prints them and writes the CSV under `results/`.

use std::fmt::Write as _;

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new<H: AsRef<str>>(title: impl Into<String>, headers: &[H]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table serialized as RFC-4180 CSV (cells containing commas,
    /// quotes or line breaks are quoted; embedded quotes doubled).
    pub fn to_csv(&self) -> String {
        let mut csv = String::new();
        for line in std::iter::once(&self.headers).chain(&self.rows) {
            let cells: Vec<String> = line.iter().map(|c| csv_cell(c)).collect();
            csv.push_str(&cells.join(","));
            csv.push('\n');
        }
        csv
    }
}

/// Quotes one CSV cell per RFC 4180 when it contains a comma, quote or
/// line break; returns it verbatim otherwise.
fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Formats a float with 3 decimals for table cells.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 2 decimals for table cells.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a count (integer-valued f64) for table cells.
pub fn n0(v: f64) -> String {
    format!("{}", v.round() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("long_header"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn plain_cells_stay_unquoted() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "x y".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,x y\n");
    }

    #[test]
    fn csv_quotes_commas_quotes_and_newlines() {
        let mut t = Table::new("demo", &["k", "v"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        t.row(vec!["line\nbreak".into(), "plain".into()]);
        assert_eq!(
            t.to_csv(),
            "k,v\n\"a,b\",\"say \"\"hi\"\"\"\n\"line\nbreak\",plain\n"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(n0(41.7), "42");
    }
}
