//! CSV persistence for tables.
//!
//! iGDB persists every source snapshot as timestamped flat files and loads
//! them into relations (paper §2: "iGDB saves timestamped snapshots of each
//! source, then automatically processes and loads the data"). This module
//! writes/reads a table as RFC-4180-style CSV with a two-line header:
//!
//! ```text
//! #types,int,text,float?,geom
//! asn,name,lat,geom
//! 174,COGENT-174,40.0,"POINT (1 2)"
//! ```
//!
//! Line 1 carries the column types (with `?` marking nullable); line 2 the
//! column names; then data rows. Empty unquoted fields are NULL; empty
//! *quoted* fields are empty strings.

use crate::schema::{ColumnDef, ColumnType, Schema};
use crate::table::Table;
use crate::value::Value;
use crate::{DbError, Result};

/// Serializes a table to CSV text.
pub fn table_to_csv(table: &Table) -> String {
    let mut buf = Vec::new();
    write_csv(table, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("CSV output is UTF-8")
}

/// Streams a table as CSV into `w` — byte-for-byte what [`table_to_csv`]
/// returns, without materializing the whole document (the big relations at
/// planet scale would double resident memory during a save).
pub fn write_csv<W: std::io::Write>(table: &Table, w: &mut W) -> Result<()> {
    let io = |e: std::io::Error| DbError::Io(e.to_string());
    w.write_all(b"#types").map_err(io)?;
    for c in table.schema().columns() {
        w.write_all(b",").map_err(io)?;
        w.write_all(c.ty.tag().as_bytes()).map_err(io)?;
        if c.nullable {
            w.write_all(b"?").map_err(io)?;
        }
    }
    w.write_all(b"\n").map_err(io)?;
    for (i, c) in table.schema().columns().iter().enumerate() {
        if i > 0 {
            w.write_all(b",").map_err(io)?;
        }
        w.write_all(escape_field(&c.name, false).as_bytes())
            .map_err(io)?;
    }
    w.write_all(b"\n").map_err(io)?;
    for (_, row) in table.iter() {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                w.write_all(b",").map_err(io)?;
            }
            match v {
                Value::Null => {}
                Value::Text(s) => w.write_all(escape_field(s, true).as_bytes()).map_err(io)?,
                other => write!(w, "{other}").map_err(io)?,
            }
        }
        w.write_all(b"\n").map_err(io)?;
    }
    Ok(())
}

/// One data row the lenient reader could not load: its 1-based file line
/// (header lines included) and the typed reason.
#[derive(Debug, Clone, PartialEq)]
pub struct RowIssue {
    pub line: usize,
    pub error: DbError,
}

impl std::fmt::Display for RowIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

/// Parses CSV text (in the format written by [`table_to_csv`]) back into a
/// table, rejecting the whole file on the first malformed row.
pub fn table_from_csv(text: &str) -> Result<Table> {
    let (table, issues) = table_from_csv_lenient(text)?;
    match issues.into_iter().next() {
        Some(issue) => Err(DbError::Format(issue.to_string())),
        None => Ok(table),
    }
}

/// Parses CSV text tolerating malformed *data rows*: every loadable row goes
/// into the table, every bad one becomes a [`RowIssue`]. Header problems
/// (missing `#types`, arity mismatch, unknown type tags) are still fatal —
/// without a schema nothing is loadable.
pub fn table_from_csv_lenient(text: &str) -> Result<(Table, Vec<RowIssue>)> {
    let mut lines = split_records(text);
    let type_line = lines
        .next()
        .ok_or_else(|| DbError::Format("empty CSV".into()))?;
    let type_fields = parse_record(&type_line)?;
    if type_fields.first().map(|f| f.raw.as_str()) != Some("#types") {
        return Err(DbError::Format("missing #types header".into()));
    }
    let name_line = lines
        .next()
        .ok_or_else(|| DbError::Format("missing column-name header".into()))?;
    let name_fields = parse_record(&name_line)?;
    if name_fields.len() != type_fields.len() - 1 {
        return Err(DbError::Format(format!(
            "type header has {} columns, name header has {}",
            type_fields.len() - 1,
            name_fields.len()
        )));
    }
    // `Schema::new` panics on a repeated name, which only code may pass it.
    let mut seen = std::collections::HashSet::new();
    if let Some(dup) = name_fields.iter().find(|nf| !seen.insert(nf.raw.as_str())) {
        return Err(DbError::Format(format!("duplicate column '{}'", dup.raw)));
    }
    let mut columns = Vec::new();
    for (tf, nf) in type_fields[1..].iter().zip(&name_fields) {
        let (tag, nullable) = match tf.raw.strip_suffix('?') {
            Some(t) => (t, true),
            None => (tf.raw.as_str(), false),
        };
        let ty = ColumnType::from_tag(tag)?;
        columns.push(ColumnDef {
            name: nf.raw.clone(),
            ty,
            nullable,
        });
    }
    let schema = Schema::new(columns);
    let mut table = Table::new(schema);
    let mut issues = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        match parse_row(&line, &table) {
            Ok(row) => {
                if let Err(e) = table.insert(row) {
                    issues.push(RowIssue {
                        line: lineno + 3,
                        error: e,
                    });
                }
            }
            Err(e) => issues.push(RowIssue {
                line: lineno + 3,
                error: e,
            }),
        }
    }
    Ok((table, issues))
}

fn parse_row(line: &str, table: &Table) -> Result<Vec<Value>> {
    let fields = parse_record(line)?;
    if fields.len() != table.schema().len() {
        return Err(DbError::Format(format!(
            "row has {} fields, schema has {}",
            fields.len(),
            table.schema().len()
        )));
    }
    let mut row = Vec::with_capacity(fields.len());
    for (f, c) in fields.iter().zip(table.schema().columns()) {
        row.push(parse_value(f, c)?);
    }
    Ok(row)
}

/// Writes a table to a file.
pub fn save_table(table: &Table, path: &std::path::Path) -> Result<()> {
    let f = std::fs::File::create(path).map_err(|e| DbError::Io(e.to_string()))?;
    let mut w = std::io::BufWriter::new(f);
    write_csv(table, &mut w)?;
    use std::io::Write as _;
    w.flush().map_err(|e| DbError::Io(e.to_string()))
}

/// Reads a table from a file.
pub fn load_table(path: &std::path::Path) -> Result<Table> {
    let text = std::fs::read_to_string(path).map_err(|e| DbError::Io(e.to_string()))?;
    table_from_csv(&text)
}

/// Reads a table from a file, collecting malformed rows instead of failing.
pub fn load_table_lenient(path: &std::path::Path) -> Result<(Table, Vec<RowIssue>)> {
    let text = std::fs::read_to_string(path).map_err(|e| DbError::Io(e.to_string()))?;
    table_from_csv_lenient(&text)
}

/// One parsed CSV field: raw content plus whether it was quoted (which
/// distinguishes NULL from empty string).
struct Field {
    raw: String,
    quoted: bool,
}

fn parse_value(f: &Field, col: &ColumnDef) -> Result<Value> {
    if f.raw.is_empty() && !f.quoted {
        return Ok(Value::Null);
    }
    match col.ty {
        ColumnType::Int => f
            .raw
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| DbError::Format(format!("bad int '{}': {e}", f.raw))),
        ColumnType::Float => f
            .raw
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|e| DbError::Format(format!("bad float '{}': {e}", f.raw))),
        ColumnType::Bool => match f.raw.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            other => Err(DbError::Format(format!("bad bool '{other}'"))),
        },
        ColumnType::Text | ColumnType::Geometry => Ok(Value::text(f.raw.as_str())),
    }
}

fn escape_field(s: &str, quote_empty: bool) -> String {
    let needs_quotes = s.contains(',')
        || s.contains('"')
        || s.contains('\n')
        || s.contains('\r')
        || (s.is_empty() && quote_empty);
    if needs_quotes {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Splits text into logical CSV records, honouring quoted newlines.
fn split_records(text: &str) -> impl Iterator<Item = String> + '_ {
    let mut records = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for ch in text.chars() {
        match ch {
            '"' => {
                in_quotes = !in_quotes;
                cur.push(ch);
            }
            '\n' if !in_quotes => {
                records.push(std::mem::take(&mut cur));
            }
            '\r' if !in_quotes => {}
            _ => cur.push(ch),
        }
    }
    if !cur.is_empty() {
        records.push(cur);
    }
    records.into_iter()
}

fn parse_record(line: &str) -> Result<Vec<Field>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        cur.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                _ => cur.push(ch),
            }
        } else {
            match ch {
                '"' => {
                    in_quotes = true;
                    quoted = true;
                }
                ',' => {
                    fields.push(Field {
                        raw: std::mem::take(&mut cur),
                        quoted: std::mem::take(&mut quoted),
                    });
                }
                _ => cur.push(ch),
            }
        }
    }
    if in_quotes {
        return Err(DbError::Format(format!(
            "unterminated quote in record: {line}"
        )));
    }
    fields.push(Field { raw: cur, quoted });
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType, Schema};

    fn sample() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("asn", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::nullable("lat", ColumnType::Float),
            ColumnDef::new("geom", ColumnType::Geometry),
            ColumnDef::new("ok", ColumnType::Bool),
        ]);
        let mut t = Table::new(schema);
        t.insert(vec![
            Value::Int(174),
            Value::text("Cogent, Communications"),
            Value::Float(40.5),
            Value::text("POINT (1 2)"),
            Value::Bool(true),
        ])
        .unwrap();
        t.insert(vec![
            Value::Int(13335),
            Value::text("He said \"hi\""),
            Value::Null,
            Value::text("LINESTRING (0 0, 1 1)"),
            Value::Bool(false),
        ])
        .unwrap();
        t.insert(vec![
            Value::Int(1),
            Value::text(""),
            Value::Float(-3.25),
            Value::text("POINT (0 0)"),
            Value::Bool(true),
        ])
        .unwrap();
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let csv = table_to_csv(&t);
        let back = table_from_csv(&csv).unwrap();
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.rows(), t.rows());
    }

    #[test]
    fn null_vs_empty_string_distinguished() {
        let t = sample();
        let csv = table_to_csv(&t);
        let back = table_from_csv(&csv).unwrap();
        assert_eq!(back.row(1).unwrap()[2], Value::Null);
        assert_eq!(back.row(2).unwrap()[1], Value::text(""));
    }

    #[test]
    fn quoted_newline_in_field() {
        let schema = Schema::new(vec![ColumnDef::new("s", ColumnType::Text)]);
        let mut t = Table::new(schema);
        t.insert(vec![Value::text("line1\nline2")]).unwrap();
        let back = table_from_csv(&table_to_csv(&t)).unwrap();
        assert_eq!(back.row(0).unwrap()[0], Value::text("line1\nline2"));
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(table_from_csv("").is_err());
        assert!(table_from_csv("asn,name\n1,x\n").is_err()); // no #types
        assert!(table_from_csv("#types,int\na,b\n").is_err()); // arity mismatch
        assert!(table_from_csv("#types,widget\na\n").is_err()); // bad type
    }

    #[test]
    fn rejects_malformed_rows() {
        let good = "#types,int,text\nasn,name\n";
        assert!(table_from_csv(&format!("{good}1\n")).is_err()); // arity
        assert!(table_from_csv(&format!("{good}xyz,name\n")).is_err()); // bad int
        assert!(table_from_csv(&format!("{good}1,\"unterminated\n")).is_err());
    }

    #[test]
    fn null_in_required_column_rejected_on_load() {
        let csv = "#types,int,text\nasn,name\n,missing-asn\n";
        assert!(table_from_csv(csv).is_err());
    }

    #[test]
    fn lenient_reader_keeps_good_rows_and_lines_up_issues() {
        // Line 3 ok, 4 truncated (arity), 5 bad float, 6 ok, 7 null in a
        // required column, 8 unterminated quote (which runs to EOF, so it
        // must come last to leave the other rows intact).
        let csv = "#types,int,text,float\n\
                   asn,name,lat\n\
                   174,Cogent,40.5\n\
                   13335,Cloudflare\n\
                   3356,Lumen,not-a-float\n\
                   6939,HE,37.7\n\
                   ,NoAsn,1.0\n\
                   701,\"Verizon,-10.0\n";
        let (table, issues) = table_from_csv_lenient(csv).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.row(0).unwrap()[0], Value::Int(174));
        assert_eq!(table.row(1).unwrap()[1], Value::text("HE"));
        let lines: Vec<usize> = issues.iter().map(|i| i.line).collect();
        assert_eq!(lines, vec![4, 5, 7, 8]);
        assert!(issues[1].error.to_string().contains("bad float"));
        // The strict reader rejects the same text outright, citing the
        // first bad line.
        let err = table_from_csv(csv).err().expect("strict must reject");
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    #[test]
    fn lenient_reader_still_fails_on_broken_headers() {
        assert!(table_from_csv_lenient("").is_err());
        assert!(table_from_csv_lenient("asn,name\n1,x\n").is_err());
        assert!(table_from_csv_lenient("#types,int\na,b\n").is_err());
        assert!(table_from_csv_lenient("#types,widget\na\n").is_err());
        let dup = table_from_csv_lenient("#types,int,int\na,a\n").expect_err("duplicate");
        assert!(dup.to_string().contains("duplicate column 'a'"), "{dup}");
    }

    #[test]
    fn lenient_reader_reports_nothing_on_clean_input() {
        let (table, issues) = table_from_csv_lenient(&table_to_csv(&sample())).unwrap();
        assert_eq!(table.len(), 3);
        assert!(issues.is_empty());
    }

    #[test]
    fn file_round_trip() {
        let t = sample();
        let dir = std::env::temp_dir().join("igdb_db_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        save_table(&t, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert_eq!(back.rows(), t.rows());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_table_round_trips() {
        let schema = Schema::new(vec![ColumnDef::new("x", ColumnType::Int)]);
        let t = Table::new(schema);
        let back = table_from_csv(&table_to_csv(&t)).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.schema(), t.schema());
    }
}
