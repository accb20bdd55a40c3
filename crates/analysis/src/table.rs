//! Plain-text, CSV and JSON rendering of experiment results.

/// Renders `s` as a JSON string literal: quoted, with `"`, `\` and every
/// control character below U+0020 escaped, so any table cell, note or
/// file path embeds into a document that strict JSON parsers accept.
pub fn json_string(s: &str) -> String {
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

/// A rendered experiment: a title, column headers, data rows and free-form
/// notes (the comparison against the paper's claim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentTable {
    /// Experiment identifier, e.g. `"E3"`.
    pub id: String,
    /// One-line description of what the table reproduces.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
    /// Notes: the paper's claim and whether the measured shape matches.
    pub notes: Vec<String>,
}

impl ExperimentTable {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        headers: Vec<&str>,
    ) -> ExperimentTable {
        ExperimentTable {
            id: id.into(),
            title: title.into(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row; the row is padded or truncated to the header
    /// width.
    pub fn push_row(&mut self, row: Vec<String>) {
        let mut row = row;
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Appends a note line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Renders the table as a self-contained JSON object
    /// (`{"id", "title", "headers", "rows", "notes"}`), every string
    /// escaped by [`json_string`]. The workspace has no serialization
    /// dependency, so the document is written by hand.
    pub fn to_json(&self) -> String {
        let array = |items: Vec<String>| format!("[{}]", items.join(", "));
        let string_array =
            |items: &[String]| array(items.iter().map(|s| json_string(s)).collect::<Vec<_>>());
        let rows = array(
            self.rows
                .iter()
                .map(|r| string_array(r))
                .collect::<Vec<_>>(),
        );
        format!(
            "{{\"id\": {}, \"title\": {}, \"headers\": {}, \"rows\": {}, \"notes\": {}}}",
            json_string(&self.id),
            json_string(&self.title),
            string_array(&self.headers),
            rows,
            string_array(&self.notes),
        )
    }

    /// Renders the table as CSV (headers + rows; notes become `#` comments).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentTable {
        let mut t = ExperimentTable::new("E0", "sample", vec!["graph", "n", "value"]);
        t.push_row(vec!["ring".into(), "8".into(), "3.5".into()]);
        t.push_row(vec!["grid".into(), "12".into()]);
        t.push_note("values should grow with n");
        t
    }

    #[test]
    fn text_rendering_is_aligned_and_contains_everything() {
        let text = sample().to_text();
        assert!(text.contains("== E0 — sample =="));
        assert!(text.contains("graph"));
        assert!(text.contains("ring"));
        assert!(text.contains("note: values should grow with n"));
        // The truncated row was padded.
        assert_eq!(sample().rows[0].len(), 3);
    }

    #[test]
    fn csv_rendering_escapes_and_comments() {
        let mut t = sample();
        t.push_row(vec!["has,comma".into(), "1".into(), "a \"quote\"".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("# values should grow with n\n"));
        assert!(csv.contains("graph,n,value"));
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"a \"\"quote\"\"\""));
    }

    #[test]
    fn json_rendering_escapes_and_nests_correctly() {
        let mut t = sample();
        t.push_row(vec![
            "a \"quote\"".into(),
            "back\\slash".into(),
            "line\nbreak".into(),
        ]);
        let json = t.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"id\": \"E0\""));
        assert!(json.contains("\"headers\": [\"graph\", \"n\", \"value\"]"));
        assert!(json.contains("\\\"quote\\\""));
        assert!(json.contains("back\\\\slash"));
        assert!(json.contains("line\\nbreak"));
        assert!(json.contains("\"notes\": [\"values should grow with n\"]"));
        // Unicode (Δ, ♦) passes through unescaped — JSON is UTF-8.
        let mut t = ExperimentTable::new("EΔ", "♦-stability", vec!["k"]);
        t.push_row(vec!["1".into()]);
        assert!(t.to_json().contains("♦-stability"));
    }

    #[test]
    fn json_strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(
            json_string("say \"hi\" \\ a\nb\tc\u{1}d"),
            "\"say \\\"hi\\\" \\\\ a\\nb\\tc\\u0001d\""
        );
    }

    #[test]
    fn rows_are_padded_to_header_width() {
        let t = sample();
        assert_eq!(
            t.rows[1],
            vec!["grid".to_string(), "12".to_string(), String::new()]
        );
    }
}
