//! The one CSV format (RFC 4180, hand-rolled to keep the dependency set
//! small): the figures render through it, and `--plot` and the claims read
//! their output back through [`Csv::parse`].

use std::fs;
use std::io::Write;
use std::path::Path;

/// An in-memory CSV table.
#[derive(Clone, Debug, PartialEq)]
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

    /// Parses CSV text as [`Csv::render`] writes it. A row narrower than the
    /// header (a run killed mid-write) is skipped with one stderr line
    /// naming `path` and the row's line number, and cells past the header's
    /// width are dropped, so every row can be indexed by any header column.
    pub fn parse(path: &Path, text: &str) -> Csv {
        let mut records = records(text).into_iter();
        let header = records.next().map(|(_, h)| h).unwrap_or_default();
        let rows = records
            .filter(|(_, r)| r.iter().any(|c| !c.trim().is_empty()))
            .filter_map(|(line, mut r)| {
                let (file, width) = (path.display(), header.len());
                if r.len() < width {
                    eprintln!(
                        "warning: {file}:{line}: row has {} of {width} columns, skipped",
                        r.len()
                    );
                    return None;
                }
                r.truncate(width);
                Some(r)
            })
            .collect();
        Csv { header, rows }
    }

    /// The column names.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows, each as wide as the header.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
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

    /// Parses `dir/name.csv`; `None` if it cannot be read (not written yet).
    pub fn read(dir: &Path, name: &str) -> Option<Csv> {
        let path = dir.join(format!("{name}.csv"));
        let text = fs::read_to_string(&path).ok()?;
        Some(Csv::parse(&path, &text))
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

/// Splits CSV text into records, each with the 1-based line it starts on —
/// the inverse of [`render_row`]: a quoted cell may hold commas, newlines
/// and doubled quotes.
fn records(text: &str) -> Vec<(usize, Vec<String>)> {
    let mut out = Vec::new();
    let (mut row, mut cell) = (Vec::new(), String::new());
    let (mut line, mut start, mut quoted) = (1, 1, false);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\n' {
            line += 1;
        }
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                cell.push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => row.push(std::mem::take(&mut cell)),
            '\n' if !quoted => {
                row.push(std::mem::take(&mut cell));
                out.push((start, std::mem::take(&mut row)));
                start = line;
            }
            '\r' if !quoted => {}
            c => cell.push(c),
        }
    }
    if !cell.is_empty() || !row.is_empty() {
        row.push(cell);
        out.push((start, row));
    }
    out
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
    /// corrupt the table shape, and `parse` reads back what `render` wrote.
    #[test]
    fn quotes_special_cells() {
        let mut c = Csv::new(&["label", "value"]);
        c.row(["has,comma".into(), "plain".into()]);
        c.row(["say \"hi\"".into(), "line\nbreak".into()]);
        assert_eq!(
            c.render(),
            "label,value\n\"has,comma\",plain\n\"say \"\"hi\"\"\",\"line\nbreak\"\n"
        );
        c.row(["".into(), "\"a,\"\"\r\nb".into()]);
        assert_eq!(Csv::parse(Path::new("t.csv"), &c.render()), c);
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
        assert_eq!(Csv::read(&dir, "t"), Some(c));
    }
}
