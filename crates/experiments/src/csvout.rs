//! A minimal CSV writer (hand-rolled to keep the dependency set small).

use std::fs;
use std::io::Write;
use std::path::Path;

/// An in-memory CSV table.
#[derive(Clone, Debug)]
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Csv {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The column names.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: impl IntoIterator<Item = String>) {
        let cells: Vec<String> = cells.into_iter().collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a row computed column by column: `cell` maps a column name
    /// to that column's cell.
    pub fn row_by(&mut self, cell: impl Fn(&str) -> String) {
        let row: Vec<String> = self.header.iter().map(|column| cell(column)).collect();
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV text (RFC 4180: cells containing a comma,
    /// quote or newline are quoted, with inner quotes doubled).
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_row(&mut out, &self.header);
        for r in &self.rows {
            render_row(&mut out, r);
        }
        out
    }

    /// Writes the table to `dir/name.csv`, creating `dir` if needed.
    pub fn write(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut f = fs::File::create(dir.join(format!("{name}.csv")))?;
        f.write_all(self.render().as_bytes())
    }
}

fn render_row(out: &mut String, cells: &[String]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if cell.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&cell.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

/// Formats a float with six decimal places for CSV cells.
pub fn f(v: f64) -> String {
    format!("{v:.6}")
}

/// Formats a seed-averaged count: whole numbers render without a decimal
/// point (so single-seed tables look like raw counts), fractional means
/// keep two decimals.
pub fn count(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_csv() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(["1".into(), "2".into()]);
        c.row(["x".into(), "y".into()]);
        assert_eq!(c.render(), "a,b\n1,2\nx,y\n");
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    /// RFC 4180 regression: commas, quotes and newlines in cells must not
    /// corrupt the table shape.
    #[test]
    fn quotes_special_cells() {
        let mut c = Csv::new(&["label", "value"]);
        c.row(["has,comma".into(), "plain".into()]);
        c.row(["say \"hi\"".into(), "line\nbreak".into()]);
        assert_eq!(
            c.render(),
            "label,value\n\"has,comma\",plain\n\"say \"\"hi\"\"\",\"line\nbreak\"\n"
        );
    }

    #[test]
    fn count_formats_means() {
        assert_eq!(count(7.0), "7");
        assert_eq!(count(7.5), "7.50");
        assert_eq!(count(0.0), "0");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_wrong_width() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(["1".into()]);
    }

    #[test]
    fn writes_file() {
        let dir = std::env::temp_dir().join("flexpass_csv_test");
        let mut c = Csv::new(&["x"]);
        c.row(["42".into()]);
        c.write(&dir, "t").unwrap();
        let s = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(s, "x\n42\n");
    }
}
