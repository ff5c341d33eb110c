//! Result tables: pretty printing and JSON persistence.

use std::fmt;
use std::fs;
use std::path::PathBuf;

/// A labelled table of experiment results.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title, e.g. `"Figure 8a: PageRank running time vs failures"`.
    pub(crate) title: String,
    /// One-line note (paper reference values, caveats).
    pub(crate) note: String,
    /// Column headers.
    pub(crate) headers: Vec<String>,
    /// Rows of cells (already formatted).
    pub(crate) rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            note: String::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets the note line.
    pub(crate) fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// Appends a row.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Returns a cell parsed as `f64`, for assertions in tests.
    ///
    /// # Panics
    ///
    /// Panics if the cell is missing. Non-numeric cells yield `NaN`.
    #[cfg(test)]
    pub(crate) fn cell_f64(&self, row: usize, col: usize) -> f64 {
        self.rows[row][col]
            .trim_end_matches(['%', 'x', 's', 'h'])
            .trim()
            .parse()
            .unwrap_or(f64::NAN)
    }

    /// Writes the table as JSON to `results/<name>.json` at the
    /// workspace root.
    pub(crate) fn save_json(&self, name: &str) -> std::io::Result<()> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, self.to_json())?;
        Ok(())
    }

    /// Renders the table as pretty-printed JSON. Tables are flat
    /// (strings and arrays of strings), so the encoding is done by
    /// hand; only string escaping needs care.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!("  \"note\": {},\n", json_str(&self.note)));
        out.push_str(&format!(
            "  \"headers\": {},\n",
            json_str_array(&self.headers)
        ));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            out.push_str(&json_str_array(row));
        }
        out.push_str(if self.rows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out.push('\n');
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", cells.join(", "))
}

fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n=== {} ===", self.title)?;
        if !self.note.is_empty() {
            writeln!(f, "    {}", self.note)?;
        }
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "  ")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, "{:width$}  ", c, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("T", &["a", "b"]).with_note("n");
        t.push_row(vec!["x".into(), "1.5%".into()]);
        assert!((t.cell_f64(0, 1) - 1.5).abs() < 1e-12);
        let s = t.to_string();
        assert!(s.contains("=== T ==="));
        assert!(s.contains("1.5%"));
    }

    #[test]
    fn json_encoding_escapes_and_nests() {
        let mut t = Table::new("Q\"uo\\te", &["h1", "h2"]).with_note("line\nbreak");
        t.push_row(vec!["a".into(), "b\tc".into()]);
        let j = t.to_json();
        assert!(j.contains(r#""title": "Q\"uo\\te""#));
        assert!(j.contains(r#""note": "line\nbreak""#));
        assert!(j.contains(r#"["h1", "h2"]"#));
        assert!(j.contains(r#"["a", "b\tc"]"#));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn json_encoding_empty_rows() {
        let t = Table::new("T", &["a"]);
        let j = t.to_json();
        assert!(j.contains("\"rows\": []"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }
}
