//! A named collection of tables with directory persistence.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use crate::csv::{load_table, save_table};
use crate::schema::Schema;
use crate::table::Table;
use crate::{DbError, Result};

/// The iGDB database: named relations plus save/load of the whole set as a
/// directory of CSV files (one file per relation, `<table>.csv`).
///
/// Every write takes `&mut self`, so a database behind a shared reference —
/// a published epoch's world, read by many requests at once — is read-only
/// by type. A refresh builds the next world beside it instead of writing
/// this one, mirroring how iGDB lets users "refresh their local data as
/// frequently as required" (paper §2).
///
/// Tables are held by reference count, so two databases can hold the same
/// table ([`Database::share_table_from`]) — a refresh keeps every table
/// its sources did not touch without copying a row. Writes are
/// copy-on-write: a write to a table another database also holds copies
/// the table first, so it never shows through to the other holder.
#[derive(Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
}

fn unknown(name: &str) -> DbError {
    DbError::UnknownTable(name.to_string())
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table. Errors if the name is taken.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        self.put_table(name, Table::new(schema))
    }

    /// Registers an already-populated table (e.g. parsed from a snapshot).
    pub fn put_table(&mut self, name: &str, table: Table) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(DbError::DuplicateTable(name.to_string()));
        }
        self.tables.insert(name.to_string(), Arc::new(table));
        Ok(())
    }

    /// Replaces a table wholesale (snapshot refresh).
    pub fn replace_table(&mut self, name: &str, table: Table) {
        self.tables.insert(name.to_string(), Arc::new(table));
    }

    /// Makes `name` here the very table `src` holds under that name,
    /// replacing whatever this database held: no row is copied, and a
    /// later write through either database copies the table first.
    pub fn share_table_from(&mut self, src: &Database, name: &str) -> Result<()> {
        let table = src.tables.get(name).cloned().ok_or_else(|| unknown(name))?;
        self.tables.insert(name.to_string(), table);
        Ok(())
    }

    /// Removes a table, returning it if present (still shared with any
    /// other database that holds it).
    pub fn drop_table(&mut self, name: &str) -> Option<Arc<Table>> {
        self.tables.remove(name)
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Canonical dump of the whole database — table names in sorted order,
    /// each with its schema, rows (floats by bit pattern) and index
    /// entries. Two databases are interchangeable to every reader iff
    /// their fingerprints are byte-equal; the delta-determinism suite
    /// compares an incrementally patched database against a from-scratch
    /// rebuild through this.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (name, table) in &self.tables {
            out.push_str("== table ");
            out.push_str(name);
            out.push('\n');
            table.fingerprint_into(&mut out);
        }
        out
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Runs `f` with shared access to a table.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> R) -> Result<R> {
        self.tables
            .get(name)
            .map(|t| f(t))
            .ok_or_else(|| unknown(name))
    }

    /// Runs `f` with exclusive access to a table, copying it first if
    /// another database shares it.
    pub fn with_table_mut<R>(&mut self, name: &str, f: impl FnOnce(&mut Table) -> R) -> Result<R> {
        let t = self.tables.get_mut(name).ok_or_else(|| unknown(name))?;
        Ok(f(Arc::make_mut(t)))
    }

    /// Inserts one row into a table.
    pub fn insert(&mut self, name: &str, row: Vec<crate::Value>) -> Result<usize> {
        self.with_table_mut(name, |t| t.insert(row))?
    }

    /// Number of rows in a table.
    pub fn row_count(&self, name: &str) -> Result<usize> {
        self.with_table(name, |t| t.len())
    }

    /// Appends every row of every table of `other`: the union of two
    /// databases. Every iGDB relation carries `as_of_date` (paper §3), so a
    /// history database is the union of one build per snapshot date, the
    /// dated dumps side by side. A table `self` lacks is created with
    /// `other`'s schema; one it has must have the same schema, checked for
    /// every table before any row moves. Indexes on `self` stay current.
    pub fn append_from(&mut self, other: &Database) -> Result<()> {
        for (name, table) in &other.tables {
            if self
                .tables
                .get(name)
                .is_some_and(|t| t.schema() != table.schema())
            {
                return Err(DbError::SchemaViolation(format!(
                    "table '{name}': schemas differ"
                )));
            }
        }
        for (name, table) in &other.tables {
            let mine = self
                .tables
                .entry(name.clone())
                .or_insert_with(|| Arc::new(Table::new(table.schema().clone())));
            Arc::make_mut(mine).insert_all(table.rows().iter().map(<[crate::Value]>::to_vec))?;
        }
        Ok(())
    }

    /// Saves every table as `<dir>/<name>.csv`, creating the directory.
    pub fn save_dir(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(|e| DbError::Io(e.to_string()))?;
        for (name, table) in &self.tables {
            save_table(table, &dir.join(format!("{name}.csv")))?;
        }
        Ok(())
    }

    /// Loads every `*.csv` in a directory as a table named after the file
    /// stem.
    pub fn load_dir(dir: &Path) -> Result<Self> {
        let mut db = Self::new();
        let entries = std::fs::read_dir(dir).map_err(|e| DbError::Io(e.to_string()))?;
        for entry in entries {
            let entry = entry.map_err(|e| DbError::Io(e.to_string()))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("csv") {
                let name = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .ok_or_else(|| DbError::Format(format!("bad file name: {path:?}")))?
                    .to_string();
                db.put_table(&name, load_table(&path)?)?;
            }
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};
    use crate::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("asn", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Text),
        ])
    }

    #[test]
    fn create_insert_query_cycle() {
        let mut db = Database::new();
        db.create_table("asn_name", schema()).unwrap();
        db.insert("asn_name", vec![Value::Int(174), Value::text("COGENT")])
            .unwrap();
        assert_eq!(db.row_count("asn_name").unwrap(), 1);
        let hit = db
            .with_table("asn_name", |t| {
                t.lookup("asn", &Value::Int(174)).unwrap().len()
            })
            .unwrap();
        assert_eq!(hit, 1);
    }

    #[test]
    fn duplicate_and_unknown_tables() {
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        assert!(matches!(
            db.create_table("t", schema()),
            Err(DbError::DuplicateTable(_))
        ));
        assert!(matches!(
            db.row_count("missing"),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn drop_and_replace() {
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        db.insert("t", vec![Value::Int(1), Value::text("a")]).unwrap();
        let mut replacement = Table::new(schema());
        replacement
            .insert(vec![Value::Int(2), Value::text("b")])
            .unwrap();
        db.replace_table("t", replacement);
        assert_eq!(db.row_count("t").unwrap(), 1);
        assert_eq!(
            db.with_table("t", |t| t.row(0).unwrap()[0].clone()).unwrap(),
            Value::Int(2)
        );
        let dropped = db.drop_table("t").unwrap();
        assert_eq!(dropped.len(), 1);
        assert!(!db.has_table("t"));
    }

    #[test]
    fn a_shared_table_is_copied_on_write() {
        let addr = |db: &Database| db.with_table("t", |t| t as *const Table as usize).unwrap();
        let (mut a, mut b) = (Database::new(), Database::new());
        a.create_table("t", schema()).unwrap();
        a.insert("t", vec![Value::Int(1), Value::text("a")]).unwrap();
        // An unshared table is written in place.
        let own = addr(&a);
        a.insert("t", vec![Value::Int(2), Value::text("b")]).unwrap();
        assert_eq!(addr(&a), own);

        b.share_table_from(&a, "t").unwrap();
        assert_eq!(addr(&b), own, "sharing copies nothing");
        let before = a.fingerprint();
        b.insert("t", vec![Value::Int(3), Value::text("c")]).unwrap();
        assert_ne!(addr(&b), own);
        assert_eq!(a.fingerprint(), before, "a write through b reached a");
        assert_eq!(b.row_count("t").unwrap(), 3);

        // The other direction, through `with_table_mut`.
        b.share_table_from(&a, "t").unwrap();
        a.with_table_mut("t", |t| t.create_index("asn")).unwrap().unwrap();
        assert!(a.with_table("t", |t| t.has_index("asn")).unwrap());
        assert!(!b.with_table("t", |t| t.has_index("asn")).unwrap());
        assert_eq!(b.fingerprint(), before);

        // Dropping one holder's table leaves the other's.
        b.share_table_from(&a, "t").unwrap();
        assert!(b.drop_table("t").is_some());
        assert_eq!(a.row_count("t").unwrap(), 2);
        assert!(matches!(
            b.share_table_from(&a, "missing"),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn directory_round_trip() {
        let mut db = Database::new();
        db.create_table("asn_name", schema()).unwrap();
        db.insert("asn_name", vec![Value::Int(174), Value::text("COGENT")])
            .unwrap();
        db.create_table("asn_org", schema()).unwrap();
        db.insert("asn_org", vec![Value::Int(174), Value::text("Cogent LLC")])
            .unwrap();

        let dir = std::env::temp_dir().join("igdb_db_dir_test");
        std::fs::remove_dir_all(&dir).ok();
        db.save_dir(&dir).unwrap();
        let back = Database::load_dir(&dir).unwrap();
        assert_eq!(back.table_names(), vec!["asn_name", "asn_org"]);
        assert_eq!(back.row_count("asn_name").unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_from_is_the_union_of_two_databases() {
        let (mut a, mut b) = (Database::new(), Database::new());
        a.create_table("asn_name", schema()).unwrap();
        a.insert("asn_name", vec![Value::Int(174), Value::text("COGENT")]).unwrap();
        a.with_table_mut("asn_name", |t| t.create_index("asn")).unwrap().unwrap();
        b.create_table("asn_name", schema()).unwrap();
        b.insert("asn_name", vec![Value::Int(174), Value::text("COGENT-174")]).unwrap();
        b.insert("asn_name", vec![Value::Int(3356), Value::text("LEVEL3")]).unwrap();
        b.create_table("asn_org", schema()).unwrap();
        b.insert("asn_org", vec![Value::Int(174), Value::text("Cogent LLC")]).unwrap();
        a.append_from(&b).unwrap();
        assert_eq!(a.table_names(), vec!["asn_name", "asn_org"]);
        assert_eq!(a.row_count("asn_name").unwrap(), 3);
        assert_eq!(a.row_count("asn_org").unwrap(), 1);
        // Existing rows keep their place, appended ones follow in order,
        // and the index sees both.
        a.with_table("asn_name", |t| {
            assert_eq!(t.row(0).unwrap()[1], Value::text("COGENT"));
            assert_eq!(t.row(2).unwrap()[1], Value::text("LEVEL3"));
            assert_eq!(t.lookup("asn", &Value::Int(174)).unwrap(), vec![0, 1]);
        })
        .unwrap();
        assert_eq!(b.row_count("asn_name").unwrap(), 2, "the source is only read");

        // A schema mismatch on any table refuses the whole append.
        let mut c = Database::new();
        c.create_table("asn_name", schema()).unwrap();
        c.insert("asn_name", vec![Value::Int(1), Value::text("x")]).unwrap();
        c.create_table("asn_org", Schema::new(vec![ColumnDef::new("asn", ColumnType::Int)]))
            .unwrap();
        assert!(matches!(a.append_from(&c), Err(DbError::SchemaViolation(_))));
        assert_eq!(a.row_count("asn_name").unwrap(), 3);
    }

    #[test]
    fn table_names_sorted() {
        let mut db = Database::new();
        db.create_table("zeta", schema()).unwrap();
        db.create_table("alpha", schema()).unwrap();
        assert_eq!(db.table_names(), vec!["alpha", "zeta"]);
    }
}
