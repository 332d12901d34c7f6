//! Text rendering for the figure harness: aligned tables and ASCII series
//! plots, so `repro figN` output is readable in a terminal and diffable in
//! EXPERIMENTS.md.

use std::fmt::{Display, Write as _};
use std::io;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row; must match the header arity.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(s, "{:<width$}", cell, width = widths[i]);
                if i + 1 < ncols {
                    s.push_str("  ");
                }
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Renders a numeric series as a labelled ASCII bar chart (one row per
/// point), scaled to `max_width` characters: [`write_series`] into a string.
pub fn render_series(title: &str, labels: &[String], values: &[f64], max_width: usize) -> String {
    let mut out = Vec::new();
    let written = write_series(&mut out, title, labels.iter(), values, max_width);
    let text = written.ok().and_then(|()| String::from_utf8(out).ok());
    // lint:allow(unwrap, a Vec sink cannot fail and the chart is UTF-8 text)
    text.expect("chart renders")
}

/// Writes a numeric series as a labelled ASCII bar chart, one row per
/// point as it goes, scaled to `max_width` characters. `labels` yields one
/// label per value and is walked twice (once for the label column's width),
/// so a caller can chart a million points without a label or row held.
pub fn write_series<L: Display>(
    out: &mut impl io::Write,
    title: &str,
    labels: impl ExactSizeIterator<Item = L> + Clone,
    values: &[f64],
    max_width: usize,
) -> io::Result<()> {
    assert_eq!(labels.len(), values.len(), "label/value length mismatch");
    writeln!(out, "== {title} ==")?;
    if values.is_empty() {
        return writeln!(out, "(empty series)");
    }
    let peak = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    // Each label is formatted into one reused buffer: no String per row.
    fn set(label: &mut String, l: impl Display) -> usize {
        label.clear();
        let _ = write!(label, "{l}");
        label.len()
    }
    let mut label = String::new();
    let label_w = labels
        .clone()
        .map(|l| set(&mut label, l))
        .max()
        .unwrap_or(0);
    let bars = "#".repeat(max_width);
    for (l, &v) in labels.zip(values) {
        set(&mut label, l);
        let bar_len = if peak > 0.0 {
            ((v / peak) * max_width as f64).round().max(0.0) as usize
        } else {
            0
        };
        writeln!(
            out,
            "{:<label_w$} |{} {:.3}",
            label,
            &bars[..bar_len.min(max_width)],
            v,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["short", "1"].map(String::from));
        t.row(&["a-much-longer-name", "22"].map(String::from));
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("name"));
        // Both rows align the second column at the same offset as the header.
        let lines: Vec<&str> = s.lines().collect();
        let col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].chars().nth(col), Some('1'));
        assert_eq!(lines[4].chars().nth(col), Some('2'));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn series_renders_bars() {
        let s = render_series(
            "latency",
            &["t0".to_string(), "t1".to_string()],
            &[1.0, 2.0],
            10,
        );
        assert!(s.contains("t0"));
        assert!(s.contains("##########")); // peak gets full width
        assert!(s.contains("#####")); // half value gets half width
    }

    /// Labels of any `Display` type, padded to the widest, chart the same
    /// bytes as the same labels given as strings.
    #[test]
    fn write_series_streams_what_render_series_renders() {
        let values: Vec<f64> = (0..120).map(|i| f64::from(i % 7) * 1.5).collect();
        let labels: Vec<String> = (0..values.len()).map(|i| i.to_string()).collect();
        let mut out = Vec::new();
        write_series(&mut out, "t", 0..values.len(), &values, 20).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, render_series("t", &labels, &values, 20));
        assert!(text.contains("\n7   |"), "{text}");
    }

    #[test]
    fn series_handles_empty_and_zero() {
        let s = render_series("e", &[], &[], 10);
        assert!(s.contains("empty series"));
        let z = render_series("z", &["a".to_string()], &[0.0], 10);
        assert!(z.contains("a"));
    }
}
