//! Row storage with validation and secondary hash indexes.

use std::collections::HashMap;

use crate::schema::Schema;
use crate::value::{Value, ValueKey};
use crate::{DbError, Result};

/// A table: a schema plus rows, with optional per-column hash indexes.
///
/// Rows are stored struct-of-arrays style in one flat cell arena
/// (`width = schema.len()` cells per row) instead of one `Vec` allocation
/// per row — at planet scale the per-row `Vec` header and allocator slack
/// dominated resident memory. Row ids in indexes are `u32` (4×10⁹ rows is
/// far beyond any scenario tier).
///
/// Indexes are equality indexes (hash maps from value to row ids), which is
/// what iGDB's key lookups need — ASN, standardized metro name,
/// organization name. Range scans fall back to sequential scan, which is
/// fine at iGDB scale (the largest relation, `asn_conn`, holds ~4×10⁵
/// rows).
#[derive(Clone)]
pub struct Table {
    schema: Schema,
    width: usize,
    nrows: usize,
    cells: Vec<Value>,
    /// column index -> (value key -> row ids)
    indexes: HashMap<usize, HashMap<ValueKey, Vec<u32>>>,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("columns", &self.schema.len())
            .field("rows", &self.nrows)
            .finish()
    }
}

/// Borrowed view of a table's rows, yielding `&[Value]` slices into the
/// flat cell arena. Replaces the old `&[Vec<Value>]` return of
/// [`Table::rows`] without forcing call sites to change shape:
/// `t.rows().iter()`, `for row in t.rows()`, `t.rows().len()`, and
/// `t.rows()[i]` all still work.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    cells: &'a [Value],
    width: usize,
    nrows: usize,
}

impl<'a> Rows<'a> {
    pub fn len(&self) -> usize {
        self.nrows
    }

    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    pub fn get(&self, id: usize) -> Option<&'a [Value]> {
        if id < self.nrows {
            Some(&self.cells[id * self.width..(id + 1) * self.width])
        } else {
            None
        }
    }

    pub fn iter(&self) -> RowsIter<'a> {
        RowsIter { rows: *self, next: 0 }
    }

    /// Materializes the rows as owned `Vec`s (cold paths and tests only).
    pub fn to_vec(&self) -> Vec<Vec<Value>> {
        self.iter().map(|r| r.to_vec()).collect()
    }
}

#[derive(Clone)]
pub struct RowsIter<'a> {
    rows: Rows<'a>,
    next: usize,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        let row = self.rows.get(self.next)?;
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.rows.nrows - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a [Value];
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> RowsIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Rows<'a> {
    type Item = &'a [Value];
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> RowsIter<'a> {
        self.iter()
    }
}

impl std::ops::Index<usize> for Rows<'_> {
    type Output = [Value];

    fn index(&self, id: usize) -> &[Value] {
        self.get(id).expect("row id out of range")
    }
}

impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.width == other.width
            && self.cells == other.cells
    }
}

impl std::fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Table {
    pub fn new(schema: Schema) -> Self {
        let width = schema.len();
        Self {
            schema,
            width,
            nrows: 0,
            cells: Vec::new(),
            indexes: HashMap::new(),
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn len(&self) -> usize {
        self.nrows
    }

    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    pub fn rows(&self) -> Rows<'_> {
        Rows {
            cells: &self.cells,
            width: self.width,
            nrows: self.nrows,
        }
    }

    pub fn row(&self, id: usize) -> Option<&[Value]> {
        self.rows().get(id)
    }

    /// Validates and appends a row, returning its row id.
    ///
    /// The row is anything that lends its cells as a slice and then gives
    /// them up by value: a `[Value; N]` array (no allocation per row — what
    /// the build's stage loops pass) or a `Vec<Value>`. The whole row is
    /// checked against the schema before any cell is written, so a rejected
    /// row leaves the table and its indexes exactly as they were; an
    /// accepted one is entered in every index.
    pub fn insert<R>(&mut self, row: R) -> Result<usize>
    where
        R: AsRef<[Value]> + IntoIterator<Item = Value>,
    {
        let cells = row.as_ref();
        self.schema.validate_row(cells)?;
        let id = self.nrows;
        let id32 = u32::try_from(id).map_err(|_| {
            DbError::Format("table exceeds u32 row-id range".to_string())
        })?;
        for (&col, index) in self.indexes.iter_mut() {
            index.entry(cells[col].key()).or_default().push(id32);
        }
        self.cells.extend(row);
        self.nrows += 1;
        Ok(id)
    }

    /// Reserves cell space for `rows` more rows.
    pub fn reserve(&mut self, rows: usize) {
        self.cells.reserve(rows * self.width);
    }

    /// Validates and appends many rows; all-or-nothing per row (earlier
    /// rows stay inserted if a later row fails — batch loads should treat
    /// an error as fatal for the snapshot).
    pub fn insert_all<R, I>(&mut self, rows: I) -> Result<usize>
    where
        R: AsRef<[Value]> + IntoIterator<Item = Value>,
        I: IntoIterator<Item = R>,
    {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Builds (or rebuilds) an equality index on `column`.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let col = self.schema.index_of(column)?;
        let mut index: HashMap<ValueKey, Vec<u32>> = HashMap::with_capacity(self.nrows);
        for (id, row) in self.rows().iter().enumerate() {
            index.entry(row[col].key()).or_default().push(id as u32);
        }
        index.shrink_to_fit();
        self.indexes.insert(col, index);
        Ok(())
    }

    /// Releases cell-arena growth slack (the arena doubles while rows
    /// stream in, so capacity can run ~2x the final size). Call once a
    /// table stops growing; long-lived databases keep peak RSS at data
    /// size instead of growth history.
    pub fn shrink_to_fit(&mut self) {
        self.cells.shrink_to_fit();
        for index in self.indexes.values_mut() {
            index.shrink_to_fit();
        }
    }

    /// Appends this table's canonical fingerprint to `out`: schema, every
    /// row in insertion order (floats rendered by bit pattern so `-0.0`,
    /// NaN payloads, and rounding all count), and every index with its
    /// entries sorted by rendered key. Two tables fingerprint identically
    /// iff a reader could not tell them apart — the byte-comparison
    /// artifact behind the delta-apply ≡ full-rebuild contract.
    pub fn fingerprint_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.reserve(self.cells.len() * 8 + 64);
        let _ = write!(out, "schema:");
        for c in self.schema.columns() {
            let _ = write!(out, " {}:{:?}:{}", c.name, c.ty, c.nullable);
        }
        out.push('\n');
        fn render(v: &Value, out: &mut String) {
            use std::fmt::Write as _;
            match v {
                Value::Null => out.push('~'),
                Value::Int(i) => {
                    let _ = write!(out, "i{i}");
                }
                Value::Float(f) => {
                    let _ = write!(out, "f{:016x}", f.to_bits());
                }
                Value::Text(s) => {
                    let _ = write!(out, "t{s}");
                }
                Value::Bool(b) => {
                    let _ = write!(out, "b{b}");
                }
            }
        }
        for row in self.rows() {
            let _ = write!(out, "row:");
            for v in row {
                out.push(' ');
                render(v, out);
            }
            out.push('\n');
        }
        let mut cols: Vec<usize> = self.indexes.keys().copied().collect();
        cols.sort_unstable();
        for col in cols {
            let _ = writeln!(out, "index col={col}");
            let index = &self.indexes[&col];
            // Render every key into one shared buffer and sort (start, end)
            // ranges by slice comparison — same order and bytes as sorting
            // per-key `String`s, without materializing one per entry.
            let mut buf = String::with_capacity(index.len() * 12);
            let mut entries: Vec<(u32, u32, &Vec<u32>)> = Vec::with_capacity(index.len());
            for (k, ids) in index {
                let start = buf.len() as u32;
                match k {
                    ValueKey::Null => buf.push('~'),
                    ValueKey::Int(i) => {
                        let _ = write!(buf, "i{i}");
                    }
                    ValueKey::Float(bits) => {
                        let _ = write!(buf, "f{bits:016x}");
                    }
                    ValueKey::Text(s) => {
                        let _ = write!(buf, "t{s}");
                    }
                    ValueKey::Bool(b) => {
                        let _ = write!(buf, "b{b}");
                    }
                }
                entries.push((start, buf.len() as u32, ids));
            }
            entries.sort_by(|a, b| buf[a.0 as usize..a.1 as usize].cmp(&buf[b.0 as usize..b.1 as usize]));
            for (start, end, ids) in entries {
                let _ = writeln!(out, "  {} {ids:?}", &buf[start as usize..end as usize]);
            }
        }
    }

    /// True if an equality index exists on `column`.
    pub fn has_index(&self, column: &str) -> bool {
        self.schema
            .index_of(column)
            .map(|c| self.indexes.contains_key(&c))
            .unwrap_or(false)
    }

    /// Row ids where `column == value`, using the index when present.
    pub fn lookup(&self, column: &str, value: &Value) -> Result<Vec<usize>> {
        let col = self.schema.index_of(column)?;
        if let Some(index) = self.indexes.get(&col) {
            Ok(index
                .get(&value.key())
                .map(|ids| ids.iter().map(|&i| i as usize).collect())
                .unwrap_or_default())
        } else {
            Ok(self
                .rows()
                .iter()
                .enumerate()
                .filter(|(_, r)| r[col] == *value)
                .map(|(i, _)| i)
                .collect())
        }
    }

    /// Borrowing variant of [`Table::lookup`] for hot join loops: returns
    /// the index's id slice directly, no allocation per call. Requires an
    /// index on `column` (errors otherwise — unindexed probing in a hot
    /// loop is a bug, not a fallback).
    pub fn lookup_ids(&self, column: &str, value: &Value) -> Result<&[u32]> {
        let col = self.schema.index_of(column)?;
        let index = self.indexes.get(&col).ok_or_else(|| {
            DbError::Format(format!("lookup_ids requires an index on column {column:?}"))
        })?;
        Ok(index
            .get(&value.key())
            .map(|ids| ids.as_slice())
            .unwrap_or(&[]))
    }

    /// Convenience: the value of `column` in row `id`.
    pub fn value(&self, id: usize, column: &str) -> Result<&Value> {
        let col = self.schema.index_of(column)?;
        self.row(id)
            .map(|r| &r[col])
            .ok_or_else(|| DbError::Format(format!("row id {id} out of range")))
    }

    /// Iterates `(row_id, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[Value])> {
        self.rows().iter().enumerate().map(|(i, r)| (i, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("asn", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Text),
        ]);
        let mut t = Table::new(schema);
        t.insert(vec![Value::Int(174), Value::text("COGENT-174")])
            .unwrap();
        t.insert(vec![Value::Int(6939), Value::text("HURRICANE")])
            .unwrap();
        t.insert(vec![Value::Int(174), Value::text("Cogent alt name")])
            .unwrap();
        t
    }

    #[test]
    fn insert_returns_sequential_ids() {
        let t = table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.row(0).unwrap()[0], Value::Int(174));
        assert!(t.row(3).is_none());
    }

    #[test]
    fn insert_validates() {
        let mut t = table();
        assert!(t.insert(vec![Value::text("wrong"), Value::text("x")]).is_err());
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert_eq!(t.len(), 3, "failed inserts must not add rows");
    }

    #[test]
    fn lookup_without_index_scans() {
        let t = table();
        assert_eq!(t.lookup("asn", &Value::Int(174)).unwrap(), vec![0, 2]);
        assert!(t.lookup("asn", &Value::Int(999)).unwrap().is_empty());
        assert!(t.lookup("nope", &Value::Int(1)).is_err());
    }

    #[test]
    fn lookup_with_index_matches_scan() {
        let mut t = table();
        t.create_index("asn").unwrap();
        assert!(t.has_index("asn"));
        assert!(!t.has_index("name"));
        assert_eq!(t.lookup("asn", &Value::Int(174)).unwrap(), vec![0, 2]);
        assert_eq!(t.lookup("asn", &Value::Int(6939)).unwrap(), vec![1]);
    }

    #[test]
    fn index_tracks_inserts_after_creation() {
        let mut t = table();
        t.create_index("asn").unwrap();
        t.insert(vec![Value::Int(174), Value::text("third entry")])
            .unwrap();
        assert_eq!(t.lookup("asn", &Value::Int(174)).unwrap(), vec![0, 2, 3]);
    }

    #[test]
    fn lookup_ids_borrows_from_the_index() {
        let mut t = table();
        assert!(
            t.lookup_ids("asn", &Value::Int(174)).is_err(),
            "lookup_ids requires an index"
        );
        t.create_index("asn").unwrap();
        assert_eq!(t.lookup_ids("asn", &Value::Int(174)).unwrap(), &[0u32, 2]);
        assert_eq!(t.lookup_ids("asn", &Value::Int(6939)).unwrap(), &[1u32]);
        assert!(t.lookup_ids("asn", &Value::Int(999)).unwrap().is_empty());
        assert!(t.lookup_ids("nope", &Value::Int(1)).is_err());
    }

    #[test]
    fn rows_view_iterates_and_indexes() {
        let t = table();
        let rows = t.rows();
        assert_eq!(rows.len(), 3);
        assert!(!rows.is_empty());
        assert_eq!(rows[1][0], Value::Int(6939));
        assert_eq!(rows.iter().count(), 3);
        let names: Vec<&str> = rows
            .iter()
            .filter_map(|r| r[1].as_text())
            .collect();
        assert_eq!(names, vec!["COGENT-174", "HURRICANE", "Cogent alt name"]);
        // two views over the same table compare equal
        assert_eq!(t.rows(), t.rows());
    }

    #[test]
    fn zero_column_table_counts_rows() {
        let mut t = Table::new(Schema::new(vec![]));
        t.insert(vec![]).unwrap();
        t.insert(vec![]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows().iter().count(), 2);
        assert!(t.rows().iter().all(|r| r.is_empty()));
    }

    #[test]
    fn value_accessor() {
        let t = table();
        assert_eq!(t.value(1, "name").unwrap(), &Value::text("HURRICANE"));
        assert!(t.value(99, "name").is_err());
    }

    #[test]
    fn insert_all_counts() {
        let mut t = table();
        let n = t
            .insert_all(vec![
                vec![Value::Int(1), Value::text("a")],
                vec![Value::Int(2), Value::text("b")],
            ])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.len(), 5);
    }
}
