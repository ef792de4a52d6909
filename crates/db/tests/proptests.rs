//! Property-based tests for the relational engine.

use proptest::prelude::*;

use igdb_db::csv::{table_from_csv, table_to_csv};
use igdb_db::{
    Aggregate, ColumnDef, ColumnType, Database, DbError, Predicate, Query, Schema, Table, Value,
};

fn arb_value_for(ty: ColumnType, nullable: bool) -> BoxedStrategy<Value> {
    let base: BoxedStrategy<Value> = match ty {
        ColumnType::Int => any::<i64>().prop_map(Value::Int).boxed(),
        ColumnType::Float => (-1e9f64..1e9).prop_map(Value::Float).boxed(),
        ColumnType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        ColumnType::Text | ColumnType::Geometry => {
            r#"[ -~]{0,24}"#.prop_map(|s: String| Value::text(s)).boxed()
        }
    };
    if nullable {
        prop_oneof![3 => base, 1 => Just(Value::Null)].boxed()
    } else {
        base
    }
}

fn arb_table() -> impl Strategy<Value = Table> {
    let schema = Schema::new(vec![
        ColumnDef::new("k", ColumnType::Int),
        ColumnDef::nullable("t", ColumnType::Text),
        ColumnDef::nullable("f", ColumnType::Float),
        ColumnDef::new("b", ColumnType::Bool),
        ColumnDef::new("g", ColumnType::Geometry),
    ]);
    let row = (
        any::<i64>().prop_map(Value::Int),
        arb_value_for(ColumnType::Text, true),
        arb_value_for(ColumnType::Float, true),
        any::<bool>().prop_map(Value::Bool),
        arb_value_for(ColumnType::Geometry, false),
    )
        .prop_map(|(a, b, c, d, e)| vec![a, b, c, d, e]);
    proptest::collection::vec(row, 0..40).prop_map(move |rows| {
        let mut t = Table::new(schema.clone());
        for r in rows {
            t.insert(r).unwrap();
        }
        t
    })
}

/// The columns of `arb_table`'s schema.
const COLUMNS: [&str; 5] = ["k", "t", "f", "b", "g"];

/// A row `arb_table`'s schema accepts.
fn good_row(k: i64, text: &str) -> [Value; 5] {
    [
        Value::Int(k),
        Value::text(text),
        Value::Float(0.5),
        Value::Bool(true),
        Value::text("POINT (0 0)"),
    ]
}

/// A cell of a type that column `col` of `arb_table`'s schema refuses.
fn mistyped(col: usize) -> Value {
    [
        Value::Bool(true),
        Value::Int(1),
        Value::text("x"),
        Value::Float(1.0),
        Value::Int(2),
    ][col]
        .clone()
}

fn table_fingerprint(t: &Table) -> String {
    let mut out = String::new();
    t.fingerprint_into(&mut out);
    out
}

/// One step against a pair of databases over three table names. `Share`
/// makes database `db` take the table from the other one.
#[derive(Clone, Debug)]
enum Op {
    Share { db: usize, table: usize },
    Insert { db: usize, table: usize, k: i64 },
    Index { db: usize, table: usize },
    Drop { db: usize, table: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let pick = || (0usize..2, 0usize..3);
    prop_oneof![
        pick().prop_map(|(db, table)| Op::Share { db, table }),
        (pick(), any::<i64>()).prop_map(|((db, table), k)| Op::Insert { db, table, k }),
        pick().prop_map(|(db, table)| Op::Index { db, table }),
        pick().prop_map(|(db, table)| Op::Drop { db, table }),
    ]
}

/// Applies `op`; `deep` shares by copying the table, the model of what
/// sharing by reference must be indistinguishable from.
fn step(dbs: &mut [Database; 2], op: &Op, deep: bool) -> bool {
    let name = |table: usize| format!("t{table}");
    match *op {
        Op::Share { db, table } => {
            let [first, second] = dbs;
            let (to, from) = if db == 0 {
                (first, &*second)
            } else {
                (second, &*first)
            };
            if deep {
                from.with_table(&name(table), Table::clone)
                    .map(|t| to.replace_table(&name(table), t))
                    .is_ok()
            } else {
                to.share_table_from(from, &name(table)).is_ok()
            }
        }
        Op::Insert { db, table, k } => dbs[db]
            .insert(
                &name(table),
                vec![Value::Int(k), Value::text(format!("r{k}"))],
            )
            .is_ok(),
        Op::Index { db, table } => dbs[db]
            .with_table_mut(&name(table), |t| t.create_index("k"))
            .is_ok(),
        Op::Drop { db, table } => dbs[db].drop_table(&name(table)).is_some(),
    }
}

proptest! {
    /// Tables shared by reference behave as deep copies: whatever is
    /// inserted, indexed or dropped through either database, each one
    /// fingerprints as the model does.
    #[test]
    fn shared_tables_behave_as_copies(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let schema = Schema::new(vec![
            ColumnDef::new("k", ColumnType::Int),
            ColumnDef::new("t", ColumnType::Text),
        ]);
        let fresh = || {
            let mut db = Database::new();
            for table in 0..3 {
                db.create_table(&format!("t{table}"), schema.clone()).unwrap();
            }
            db
        };
        let (mut real, mut model) = ([fresh(), fresh()], [fresh(), fresh()]);
        for op in &ops {
            prop_assert_eq!(step(&mut real, op, false), step(&mut model, op, true), "{:?}", op);
            for db in 0..2 {
                prop_assert_eq!(real[db].fingerprint(), model[db].fingerprint(), "{:?}", op);
            }
        }
    }

    /// A row the schema refuses — too narrow, too wide, a null in a
    /// non-nullable column, a cell of the wrong type — leaves the table
    /// and its indexes fingerprint-identical, with the same error whether
    /// it came as an array or as a `Vec`. A row it accepts is entered in
    /// the index of every column, and the two forms write the same bytes.
    #[test]
    fn rejected_rows_change_nothing_and_accepted_rows_reach_every_index(
        t in arb_table(),
        k in any::<i64>(),
        text in r#"[ -~]{0,24}"#,
        col in 0usize..5,
        case in 0usize..4,
    ) {
        let mut t = t;
        for c in COLUMNS {
            t.create_index(c).unwrap();
        }
        let before = table_fingerprint(&t);
        let good = good_row(k, &text);
        let (array, vec) = match case {
            0 => {
                let [a, b, c, d, _] = good.clone();
                let narrow = [a, b, c, d];
                (t.insert(narrow.clone()), t.insert(narrow.to_vec()))
            }
            1 => {
                let [a, b, c, d, e] = good.clone();
                let wide = [a, b, c, d, e, Value::Null];
                (t.insert(wide.clone()), t.insert(wide.to_vec()))
            }
            2 => {
                // `k`, `b` and `g` are the non-nullable columns.
                let mut bad = good.clone();
                bad[[0, 3, 4][col % 3]] = Value::Null;
                (t.insert(bad.clone()), t.insert(bad.to_vec()))
            }
            _ => {
                let mut bad = good.clone();
                bad[col] = mistyped(col);
                (t.insert(bad.clone()), t.insert(bad.to_vec()))
            }
        };
        let array = array.unwrap_err();
        prop_assert!(matches!(array, DbError::SchemaViolation(_)), "{:?}", array);
        prop_assert_eq!(&array, &vec.unwrap_err());
        prop_assert_eq!(table_fingerprint(&t), before);

        let mut by_vec = t.clone();
        let id = t.insert(good.clone()).unwrap();
        prop_assert_eq!(by_vec.insert(good.to_vec()).unwrap(), id);
        prop_assert_eq!(table_fingerprint(&t), table_fingerprint(&by_vec));
        prop_assert_eq!(t.row(id).unwrap(), &good[..]);
        for (c, v) in COLUMNS.iter().zip(&good) {
            prop_assert!(t.lookup_ids(c, v).unwrap().contains(&(id as u32)), "{}", c);
        }
    }

    /// Copying a range of another table's rows writes the same bytes, and
    /// enters the copies in every index, as inserting those rows one by
    /// one. A range past the source's end is refused and changes nothing.
    #[test]
    fn extend_from_equals_inserting_the_rows(
        dst in arb_table(),
        src in arb_table(),
        indexed in proptest::collection::vec(0usize..5, 0..3),
        bounds in (0usize..45, 0usize..45),
    ) {
        let mut dst = dst;
        for &c in &indexed {
            dst.create_index(COLUMNS[c]).unwrap();
        }
        let before = table_fingerprint(&dst);
        let (lo, hi) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        let mut by_insert = dst.clone();
        let got = dst.extend_from(&src, lo..hi);
        if hi > src.len() {
            prop_assert!(matches!(got, Err(DbError::Format(_))), "{:?}", got);
            prop_assert_eq!(table_fingerprint(&dst), before);
            return Ok(());
        }
        got.unwrap();
        for id in lo..hi {
            by_insert.insert(src.row(id).unwrap().to_vec()).unwrap();
        }
        prop_assert_eq!(table_fingerprint(&dst), table_fingerprint(&by_insert));
        let first = dst.len() - (hi - lo);
        for (k, id) in (lo..hi).enumerate() {
            for &c in &indexed {
                let v = &src.row(id).unwrap()[c];
                let ids = dst.lookup_ids(COLUMNS[c], v).unwrap();
                prop_assert!(ids.contains(&((first + k) as u32)), "{}", COLUMNS[c]);
            }
        }
    }

    #[test]
    fn csv_roundtrip_preserves_rows(t in arb_table()) {
        let text = table_to_csv(&t);
        let back = table_from_csv(&text).unwrap();
        prop_assert_eq!(back.schema(), t.schema());
        prop_assert_eq!(back.rows(), t.rows());
    }

    #[test]
    fn indexed_lookup_equals_scan(t in arb_table(), needle in any::<i64>()) {
        // Lookups with and without an index agree; include values known to
        // be present.
        let mut probe_values: Vec<i64> = t.rows().iter().filter_map(|r| r[0].as_int()).collect();
        probe_values.push(needle);
        let mut indexed = {
            let mut t2 = Table::new(t.schema().clone());
            for r in t.rows() {
                t2.insert(r.to_vec()).unwrap();
            }
            t2.create_index("k").unwrap();
            t2
        };
        for v in probe_values {
            let plain = t.lookup("k", &Value::Int(v)).unwrap();
            let fast = indexed.lookup("k", &Value::Int(v)).unwrap();
            prop_assert_eq!(plain, fast);
        }
        // Keep the borrow checker honest about mutability.
        indexed.insert(vec![
            Value::Int(needle),
            Value::Null,
            Value::Null,
            Value::Bool(false),
            Value::text("POINT (0 0)"),
        ]).unwrap();
        prop_assert!(indexed.lookup("k", &Value::Int(needle)).unwrap().len()
            >= t.lookup("k", &Value::Int(needle)).unwrap().len());
    }

    #[test]
    fn filter_partitions_rows(t in arb_table(), pivot in any::<i64>()) {
        let lt = Query::new(&t)
            .filter(Predicate::Lt("k".into(), Value::Int(pivot)))
            .count()
            .unwrap();
        let ge = Query::new(&t)
            .filter(Predicate::Ge("k".into(), Value::Int(pivot)))
            .count()
            .unwrap();
        prop_assert_eq!(lt + ge, t.len());
    }

    #[test]
    fn order_by_sorts_totally(t in arb_table()) {
        let rows = Query::new(&t).order_by("f", true).rows().unwrap();
        for w in rows.windows(2) {
            prop_assert!(w[0][2].total_cmp(&w[1][2]) != std::cmp::Ordering::Greater);
        }
        prop_assert_eq!(rows.len(), t.len());
    }

    #[test]
    fn group_by_counts_sum_to_total(t in arb_table()) {
        let groups = Query::new(&t)
            .group_by(vec!["b"], vec![Aggregate::Count])
            .unwrap();
        let total: i64 = groups.iter().map(|g| g[1].as_int().unwrap()).sum();
        prop_assert_eq!(total as usize, t.len());
        prop_assert!(groups.len() <= 2);
    }

    #[test]
    fn distinct_never_exceeds_total(t in arb_table()) {
        let distinct = Query::new(&t).select(vec!["t"]).distinct().count().unwrap();
        prop_assert!(distinct <= t.len().max(1));
    }

    #[test]
    fn limit_caps_results(t in arb_table(), n in 0usize..50) {
        let rows = Query::new(&t).limit(n).rows().unwrap();
        prop_assert_eq!(rows.len(), n.min(t.len()));
    }

    #[test]
    fn value_total_order_is_transitive(
        a in any::<i64>().prop_map(Value::Int),
        b in (-1e6f64..1e6).prop_map(Value::Float),
        c in r#"[ -~]{0,8}"#.prop_map(|s: String| Value::text(s)),
    ) {
        use std::cmp::Ordering::*;
        let vals = [Value::Null, a, b, c, Value::Bool(true)];
        for x in &vals {
            for y in &vals {
                for z in &vals {
                    if x.total_cmp(y) != Greater && y.total_cmp(z) != Greater {
                        prop_assert!(x.total_cmp(z) != Greater, "{x:?} {y:?} {z:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn interned_text_roundtrips(s in r#"[ -~]{0,80}"#) {
        // Through the interner directly…
        let st = igdb_db::Str::new(&s);
        prop_assert_eq!(st.as_str(), s.as_str());
        prop_assert_eq!(st.to_string(), s.clone());
        prop_assert_eq!(igdb_db::Str::from(s.clone()), st.clone());
        // …and through a Value cell.
        let v = Value::text(s.clone());
        prop_assert_eq!(v.as_text(), Some(s.as_str()));
    }

    #[test]
    fn str_order_matches_str(a in r#"[ -~]{0,80}"#, b in r#"[ -~]{0,80}"#) {
        let (sa, sb) = (igdb_db::Str::new(&a), igdb_db::Str::new(&b));
        prop_assert_eq!(sa.cmp(&sb), a.as_str().cmp(b.as_str()));
        prop_assert_eq!(sa == sb, a == b);
    }
}

/// Header ingredients: type tags (one unknown, one nullable) and column
/// names (one quoted, one empty).
const CSV_TAGS: [&str; 6] = ["int", "text", "float?", "bool", "geom", "widget"];
const CSV_NAMES: [&str; 5] = ["a", "b", "é", "\"a\"", ""];

/// Body ingredients: values, separators, line ends, quotes, and
/// multi-byte characters.
const CSV_TOKENS: [&str; 17] = [
    "int", "a", "b", "7", "-2.5", "true", "NaN", ",", "\n", "\r\n", "\"", "\"\"", " ", "é", "日",
    "", "#types",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// A `#types` line of tags and a line of names, then token soup —
    /// values, separators, quotes and line ends in any order — is loaded
    /// or refused with a typed error, never a panic. A loaded row or a row
    /// issue is one record past the two header lines.
    #[test]
    fn lenient_csv_reader_never_panics_on_token_soup(
        tags in proptest::collection::vec(0..CSV_TAGS.len(), 1..4),
        names in proptest::collection::vec(0..CSV_NAMES.len(), 0..4),
        body in proptest::collection::vec(0..CSV_TOKENS.len(), 0..24),
    ) {
        let line = |picks: &[usize], from: &[&str]| {
            picks.iter().map(|&i| from[i]).collect::<Vec<_>>().join(",")
        };
        let soup = format!(
            "#types,{}\n{}\n{}",
            line(&tags, &CSV_TAGS),
            line(&names, &CSV_NAMES),
            body.iter().map(|&i| CSV_TOKENS[i]).collect::<String>()
        );
        if let Ok((table, issues)) = igdb_db::table_from_csv_lenient(&soup) {
            let records = soup.split('\n').count().saturating_sub(2);
            prop_assert!(table.len() + issues.len() <= records, "{:?}", soup);
            prop_assert!(issues.iter().all(|i| i.line >= 3), "{:?}", soup);
        }
    }
}

/// Rows of a table of another schema are refused, however alike the
/// cells: the copy would skip the per-row check that catches them. The
/// refused table keeps its rows and its index as they were.
#[test]
fn extend_from_refuses_another_schema_and_changes_nothing() {
    let narrow = Schema::new(vec![ColumnDef::new("k", ColumnType::Int)]);
    let renamed = Schema::new(vec![ColumnDef::new("key", ColumnType::Int)]);
    let nullable = Schema::new(vec![ColumnDef::nullable("k", ColumnType::Int)]);
    let mut dst = Table::new(narrow.clone());
    dst.insert([Value::Int(1)]).unwrap();
    dst.create_index("k").unwrap();
    let before = table_fingerprint(&dst);
    for other in [renamed, nullable] {
        let mut src = Table::new(other);
        src.insert([Value::Int(2)]).unwrap();
        let err = dst.extend_from(&src, 0..1).unwrap_err();
        assert!(matches!(err, DbError::SchemaViolation(_)), "{err:?}");
        assert_eq!(table_fingerprint(&dst), before);
    }
    let mut same = Table::new(narrow);
    same.insert([Value::Int(2)]).unwrap();
    dst.extend_from(&same, 0..1).unwrap();
    assert_eq!(dst.lookup_ids("k", &Value::Int(2)).unwrap(), &[1u32]);
}
