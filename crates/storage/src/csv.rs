//! CSV record managers: adapters turning external CSV files into facts and
//! materialising reasoning output, as used by `@bind("P", "csv:path")`
//! annotations (Section 4, "record managers"; test setup of Section 6 uses
//! "simple CSV archives").

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use vadalog_model::prelude::*;

/// Error raised by the CSV record manager.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A row had a different number of fields than the first row.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Expected field count.
        expected: usize,
        /// Found field count.
        found: usize,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv i/o error: {e}"),
            CsvError::RaggedRow {
                line,
                expected,
                found,
            } => write!(f, "csv row {line} has {found} fields, expected {expected}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Parse one CSV field into a [`Value`]: integers and floats are recognised,
/// `true`/`false` become booleans, everything else is a string.
pub fn parse_field(field: &str) -> Value {
    let trimmed = field.trim();
    if let Ok(i) = trimmed.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = trimmed.parse::<f64>() {
        return Value::Float(f);
    }
    match trimmed {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => {
            // strip symmetric quotes if present
            let unquoted = trimmed
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .unwrap_or(trimmed);
            Value::str(unquoted)
        }
    }
}

fn split_row(line: &str) -> Vec<String> {
    // Minimal CSV splitting with support for double-quoted fields containing
    // commas.
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    fields.push(current);
    fields
}

/// Read a CSV file into facts of `predicate`.
///
/// `has_header`: when `true` the first row is skipped (and ignored — the
/// Vadalog perspective is positional; `@mapping` handles naming).
pub fn read_csv_facts(
    path: impl AsRef<Path>,
    predicate: &str,
    has_header: bool,
) -> Result<Vec<Fact>, CsvError> {
    let file = std::fs::File::open(path)?;
    let reader = BufReader::new(file);
    read_csv_from_reader(reader, predicate, has_header)
}

/// Read CSV facts from any reader (used by tests and in-memory sources).
pub fn read_csv_from_reader<R: BufRead>(
    reader: R,
    predicate: &str,
    has_header: bool,
) -> Result<Vec<Fact>, CsvError> {
    let mut facts = Vec::new();
    let mut expected: Option<usize> = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if has_header && i == 0 {
            continue;
        }
        let fields = split_row(&line);
        match expected {
            None => expected = Some(fields.len()),
            Some(n) if n != fields.len() => {
                return Err(CsvError::RaggedRow {
                    line: i + 1,
                    expected: n,
                    found: fields.len(),
                })
            }
            _ => {}
        }
        let args = fields.iter().map(|f| parse_field(f)).collect();
        facts.push(Fact::new(predicate, args));
    }
    Ok(facts)
}

/// Serialise one value as a CSV field.
pub fn format_field(v: &Value) -> String {
    match v {
        Value::Str(s) => {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        Value::Null(n) => format!("_:{n}"),
        other => other.to_string(),
    }
}

/// Write facts (all of the same arity) to a CSV file.
pub fn write_csv_facts<'a>(
    path: impl AsRef<Path>,
    facts: impl IntoIterator<Item = &'a Fact>,
) -> Result<(), CsvError> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for f in facts {
        let row: Vec<String> = f.args.iter().map(format_field).collect();
        writeln!(file, "{}", row.join(","))?;
    }
    file.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_typed_fields() {
        let data = "acme,sub,0.6\nacme,other,1\nweird co,\"a,b\",true\n";
        let facts = read_csv_from_reader(Cursor::new(data), "Own", false).unwrap();
        assert_eq!(facts.len(), 3);
        assert_eq!(facts[0].args[2], Value::Float(0.6));
        assert_eq!(facts[1].args[2], Value::Int(1));
        assert_eq!(facts[2].args[1], Value::str("a,b"));
        assert_eq!(facts[2].args[2], Value::Bool(true));
    }

    #[test]
    fn header_row_is_skipped_when_requested() {
        let data = "comp1,comp2,w\nacme,sub,0.6\n";
        let with = read_csv_from_reader(Cursor::new(data), "Own", true).unwrap();
        assert_eq!(with.len(), 1);
        let without = read_csv_from_reader(Cursor::new(data), "Own", false).unwrap();
        assert_eq!(without.len(), 2);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let data = "a,b,c\nx,y\n";
        let err = read_csv_from_reader(Cursor::new(data), "P", false).unwrap_err();
        match err {
            CsvError::RaggedRow {
                line,
                expected,
                found,
            } => {
                assert_eq!(line, 2);
                assert_eq!(expected, 3);
                assert_eq!(found, 2);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn round_trip_through_a_temp_file() {
        let dir = std::env::temp_dir().join("vadalog_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("own.csv");
        let facts = vec![
            Fact::new("Own", vec!["a".into(), "b".into(), Value::Float(0.5)]),
            Fact::new("Own", vec!["with, comma".into(), "c".into(), Value::Int(2)]),
        ];
        write_csv_facts(&path, &facts).unwrap();
        let back = read_csv_facts(&path, "Own", false).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].args[2], Value::Float(0.5));
        assert_eq!(back[1].args[0], Value::str("with, comma"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_lines_are_ignored() {
        let data = "a,b\n\n\nc,d\n";
        let facts = read_csv_from_reader(Cursor::new(data), "P", false).unwrap();
        assert_eq!(facts.len(), 2);
    }
}
