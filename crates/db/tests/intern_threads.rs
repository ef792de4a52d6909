//! Interner behavior under concurrent interning, and the fingerprint's
//! independence from intern order — the two properties the server leans
//! on when worker threads intern text concurrently.

use igdb_db::{ColumnDef, ColumnType, Database, Schema, Str, Value};

/// Every thread resolving the same string must get the same symbol (the
/// interner is process-global), and symbols must round-trip to the exact
/// original content regardless of which thread interned first.
#[test]
fn symbols_agree_across_worker_threads() {
    let names: Vec<String> = (0..512).map(|i| format!("xthread-metro-{i}")).collect();
    let resolve = || -> Vec<(Option<u32>, String)> {
        names
            .iter()
            .map(|n| {
                let s = Str::new(n);
                (s.sym(), s.as_str().to_string())
            })
            .collect()
    };
    // Four threads, released together, race to intern each name first.
    let start = std::sync::Barrier::new(4);
    let per_thread: Vec<_> = std::thread::scope(|scope| {
        let racer = || {
            start.wait();
            resolve()
        };
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(racer)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("interning thread"))
            .collect()
    });
    let baseline = resolve();
    for (n, (sym, content)) in names.iter().zip(&baseline) {
        assert!(sym.is_some(), "short content is always a symbol");
        assert_eq!(content, n);
    }
    for (t, resolved) in per_thread.iter().enumerate() {
        assert_eq!(resolved, &baseline, "thread {t}");
    }
}

/// The database fingerprint renders text by content, never by symbol id,
/// so two databases with identical rows fingerprint identically even when
/// their strings were interned in opposite orders (different symbol ids).
#[test]
fn fingerprint_is_intern_order_independent() {
    let rows: Vec<[String; 2]> = (0..64)
        .map(|i| [format!("fporder-key-{i}"), format!("fporder-val-{}", i * 7)])
        .collect();
    let build = |reverse: bool| {
        // Force a different id assignment by pre-interning in the chosen
        // order before any row is inserted.
        let mut order: Vec<&String> = rows.iter().flatten().collect();
        if reverse {
            order.reverse();
        }
        for s in order {
            let _ = Str::new(s);
        }
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("k", ColumnType::Text),
                ColumnDef::new("v", ColumnType::Text),
            ]),
        )
        .unwrap();
        for [k, v] in &rows {
            db.insert("t", vec![Value::text(k), Value::text(v)])
                .unwrap();
        }
        db.with_table_mut("t", |t| t.create_index("k"))
            .unwrap()
            .unwrap();
        db.fingerprint()
    };
    assert_eq!(build(false), build(true));
}
