//! Query evaluation: predicate scans, sorting, grouping, joins.
//!
//! The paper leans on "self-contained SQL queries" (§4.4) for everything
//! from AS footprint overlap to consistency audits. This module provides
//! the equivalent relational algebra over [`Table`]s: filter → sort →
//! project → limit pipelines, group-by with aggregates, and hash equi-joins
//! (index-accelerated when the join column is indexed).

use std::collections::{HashMap, HashSet};

use crate::table::Table;
use crate::value::{Value, ValueKey};
use crate::Result;

/// A filter expression over named columns.
#[derive(Clone, Debug)]
pub enum Predicate {
    /// Always true (the default filter).
    True,
    Eq(String, Value),
    Ne(String, Value),
    Lt(String, Value),
    Le(String, Value),
    Gt(String, Value),
    Ge(String, Value),
    /// Text column contains the given substring (case-sensitive).
    Contains(String, String),
    /// Text column contains the given substring, ASCII case-insensitive.
    ContainsNoCase(String, String),
    IsNull(String),
    NotNull(String),
    /// Integer column value is a member of the set.
    InInt(String, HashSet<i64>),
    /// Text column value is a member of the set.
    InText(String, HashSet<String>),
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
    Not(Box<Predicate>),
}

impl Predicate {
    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Evaluates against a row (columns resolved through the table schema).
    pub fn eval(&self, table: &Table, row: &[Value]) -> Result<bool> {
        let get = |name: &str| -> Result<&Value> { Ok(&row[table.schema().index_of(name)?]) };
        Ok(match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => get(c)? == v,
            Predicate::Ne(c, v) => get(c)? != v,
            Predicate::Lt(c, v) => !get(c)?.is_null() && get(c)?.total_cmp(v).is_lt(),
            Predicate::Le(c, v) => !get(c)?.is_null() && get(c)?.total_cmp(v).is_le(),
            Predicate::Gt(c, v) => !get(c)?.is_null() && get(c)?.total_cmp(v).is_gt(),
            Predicate::Ge(c, v) => !get(c)?.is_null() && get(c)?.total_cmp(v).is_ge(),
            Predicate::Contains(c, s) => get(c)?.as_text().is_some_and(|t| t.contains(s)),
            Predicate::ContainsNoCase(c, s) => get(c)?
                .as_text()
                .is_some_and(|t| t.to_ascii_lowercase().contains(&s.to_ascii_lowercase())),
            Predicate::IsNull(c) => get(c)?.is_null(),
            Predicate::NotNull(c) => !get(c)?.is_null(),
            Predicate::InInt(c, set) => get(c)?.as_int().is_some_and(|i| set.contains(&i)),
            Predicate::InText(c, set) => get(c)?.as_text().is_some_and(|t| set.contains(t)),
            Predicate::And(a, b) => a.eval(table, row)? && b.eval(table, row)?,
            Predicate::Or(a, b) => a.eval(table, row)? || b.eval(table, row)?,
            Predicate::Not(p) => !p.eval(table, row)?,
        })
    }

    /// If this predicate (or a conjunct of it) pins an indexed column to a
    /// single value, returns `(column, value)` for index seeding.
    fn index_seed<'a>(&'a self, table: &Table) -> Option<(&'a str, &'a Value)> {
        match self {
            Predicate::Eq(c, v) if table.has_index(c) => Some((c.as_str(), v)),
            Predicate::And(a, b) => a.index_seed(table).or_else(|| b.index_seed(table)),
            _ => None,
        }
    }
}

/// Aggregate functions for [`Query::group_by`].
#[derive(Clone, Debug)]
pub enum Aggregate {
    /// Number of rows in the group.
    Count,
    /// Number of distinct values of a column within the group.
    CountDistinct(String),
    Sum(String),
    Min(String),
    Max(String),
    Avg(String),
}

/// A fluent query over a single table.
///
/// ```
/// use igdb_db::{ColumnDef, ColumnType, Predicate, Query, Schema, Table, Value};
/// let schema = Schema::new(vec![
///     ColumnDef::new("asn", ColumnType::Int),
///     ColumnDef::new("country", ColumnType::Text),
/// ]);
/// let mut t = Table::new(schema);
/// t.insert(vec![Value::Int(13335), Value::text("US")]).unwrap();
/// t.insert(vec![Value::Int(13335), Value::text("DE")]).unwrap();
/// t.insert(vec![Value::Int(174), Value::text("US")]).unwrap();
/// let rows = Query::new(&t)
///     .filter(Predicate::Eq("asn".into(), Value::Int(13335)))
///     .rows()
///     .unwrap();
/// assert_eq!(rows.len(), 2);
/// ```
pub struct Query<'t> {
    table: &'t Table,
    predicate: Predicate,
    order: Vec<(String, bool)>, // (column, ascending)
    limit: Option<usize>,
    projection: Option<Vec<String>>,
    distinct: bool,
}

impl<'t> Query<'t> {
    pub fn new(table: &'t Table) -> Self {
        Self {
            table,
            predicate: Predicate::True,
            order: Vec::new(),
            limit: None,
            projection: None,
            distinct: false,
        }
    }

    /// Sets the filter (replacing any previous one; compose with
    /// [`Predicate::and`]).
    pub fn filter(mut self, p: Predicate) -> Self {
        self.predicate = p;
        self
    }

    /// Adds a sort key; earlier calls take precedence.
    pub fn order_by(mut self, column: impl Into<String>, ascending: bool) -> Self {
        self.order.push((column.into(), ascending));
        self
    }

    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Projects to the named columns (in the given order).
    pub fn select(mut self, columns: Vec<&str>) -> Self {
        self.projection = Some(columns.into_iter().map(str::to_string).collect());
        self
    }

    /// Deduplicates result rows (applied after projection).
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Matching row ids after filter + sort + limit (before projection).
    pub fn row_ids(&self) -> Result<Vec<usize>> {
        // Seed from an index when the predicate pins one. `lookup_ids`
        // borrows the index's own posting list, so the seeded path does
        // not materialize a candidate vector at all.
        let mut ids = Vec::new();
        {
            let mut consider = |id: usize| -> Result<()> {
                let row = self.table.row(id).expect("candidate id in range");
                if self.predicate.eval(self.table, row)? {
                    ids.push(id);
                }
                Ok(())
            };
            if let Some((col, val)) = self.predicate.index_seed(self.table) {
                for &id in self.table.lookup_ids(col, val)? {
                    consider(id as usize)?;
                }
            } else {
                for id in 0..self.table.len() {
                    consider(id)?;
                }
            }
        }
        if !self.order.is_empty() {
            // Resolve sort columns once.
            let mut keys = Vec::new();
            for (c, asc) in &self.order {
                keys.push((self.table.schema().index_of(c)?, *asc));
            }
            ids.sort_by(|&a, &b| {
                let ra = self.table.row(a).unwrap();
                let rb = self.table.row(b).unwrap();
                for &(col, asc) in &keys {
                    let ord = ra[col].total_cmp(&rb[col]);
                    if ord != std::cmp::Ordering::Equal {
                        return if asc { ord } else { ord.reverse() };
                    }
                }
                a.cmp(&b) // stable tiebreak
            });
        }
        if let Some(n) = self.limit {
            ids.truncate(n);
        }
        Ok(ids)
    }

    /// Materializes result rows (filter → sort → project → distinct →
    /// limit). Note distinct applies post-projection, pre-limit, matching
    /// SQL `SELECT DISTINCT … LIMIT n`.
    pub fn rows(&self) -> Result<Vec<Vec<Value>>> {
        // For distinct, the limit must apply after dedup, so fetch all ids.
        let saved_limit = self.limit;
        let ids = if self.distinct {
            let q = Query {
                table: self.table,
                predicate: self.predicate.clone(),
                order: self.order.clone(),
                limit: None,
                projection: None,
                distinct: false,
            };
            q.row_ids()?
        } else {
            self.row_ids()?
        };
        let proj_cols: Option<Vec<usize>> = match &self.projection {
            Some(names) => Some(
                names
                    .iter()
                    .map(|n| self.table.schema().index_of(n))
                    .collect::<Result<Vec<_>>>()?,
            ),
            None => None,
        };
        let mut out = Vec::with_capacity(ids.len());
        let mut seen: HashSet<Vec<ValueKey>> = HashSet::new();
        for id in ids {
            let row = self.table.row(id).unwrap();
            let projected: Vec<Value> = match &proj_cols {
                Some(cols) => cols.iter().map(|&c| row[c].clone()).collect(),
                None => row.to_vec(),
            };
            if self.distinct {
                let key: Vec<ValueKey> = projected.iter().map(Value::key).collect();
                if !seen.insert(key) {
                    continue;
                }
            }
            out.push(projected);
            if self.distinct {
                if let Some(n) = saved_limit {
                    if out.len() >= n {
                        break;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Number of matching rows (distinct-aware).
    pub fn count(&self) -> Result<usize> {
        if self.distinct {
            Ok(self.rows()?.len())
        } else {
            Ok(self.row_ids()?.len())
        }
    }

    /// Group-by with aggregates. Returns one row per group: the group key
    /// values followed by one value per aggregate. Groups are sorted by key
    /// for determinism.
    pub fn group_by(&self, keys: Vec<&str>, aggs: Vec<Aggregate>) -> Result<Vec<Vec<Value>>> {
        let key_cols: Vec<usize> = keys
            .iter()
            .map(|k| self.table.schema().index_of(k))
            .collect::<Result<Vec<_>>>()?;
        // Resolve aggregate columns up front.
        enum ResolvedAgg {
            Count,
            CountDistinct(usize),
            Sum(usize),
            Min(usize),
            Max(usize),
            Avg(usize),
        }
        let resolved: Vec<ResolvedAgg> = aggs
            .iter()
            .map(|a| {
                Ok(match a {
                    Aggregate::Count => ResolvedAgg::Count,
                    Aggregate::CountDistinct(c) => {
                        ResolvedAgg::CountDistinct(self.table.schema().index_of(c)?)
                    }
                    Aggregate::Sum(c) => ResolvedAgg::Sum(self.table.schema().index_of(c)?),
                    Aggregate::Min(c) => ResolvedAgg::Min(self.table.schema().index_of(c)?),
                    Aggregate::Max(c) => ResolvedAgg::Max(self.table.schema().index_of(c)?),
                    Aggregate::Avg(c) => ResolvedAgg::Avg(self.table.schema().index_of(c)?),
                })
            })
            .collect::<Result<Vec<_>>>()?;

        struct GroupState {
            key_values: Vec<Value>,
            count: usize,
            distinct: Vec<HashSet<ValueKey>>,
            sums: Vec<f64>,
            mins: Vec<Option<Value>>,
            maxs: Vec<Option<Value>>,
        }
        let mut groups: HashMap<Vec<ValueKey>, GroupState> = HashMap::new();
        // Group over the filtered rows (no order/limit — SQL semantics put
        // ORDER BY/LIMIT after grouping; callers sort the returned rows).
        let base = Query {
            table: self.table,
            predicate: self.predicate.clone(),
            order: Vec::new(),
            limit: None,
            projection: None,
            distinct: false,
        };
        for id in base.row_ids()? {
            let row = self.table.row(id).unwrap();
            let key: Vec<ValueKey> = key_cols.iter().map(|&c| row[c].key()).collect();
            let state = groups.entry(key).or_insert_with(|| GroupState {
                key_values: key_cols.iter().map(|&c| row[c].clone()).collect(),
                count: 0,
                distinct: vec![HashSet::new(); resolved.len()],
                sums: vec![0.0; resolved.len()],
                mins: vec![None; resolved.len()],
                maxs: vec![None; resolved.len()],
            });
            state.count += 1;
            for (ai, agg) in resolved.iter().enumerate() {
                match agg {
                    ResolvedAgg::Count => {}
                    ResolvedAgg::CountDistinct(c) => {
                        state.distinct[ai].insert(row[*c].key());
                    }
                    ResolvedAgg::Sum(c) | ResolvedAgg::Avg(c) => {
                        if let Some(f) = row[*c].as_float() {
                            state.sums[ai] += f;
                        }
                    }
                    ResolvedAgg::Min(c) => {
                        let v = &row[*c];
                        if !v.is_null()
                            && state.mins[ai]
                                .as_ref()
                                .is_none_or(|m| v.total_cmp(m).is_lt())
                        {
                            state.mins[ai] = Some(v.clone());
                        }
                    }
                    ResolvedAgg::Max(c) => {
                        let v = &row[*c];
                        if !v.is_null()
                            && state.maxs[ai]
                                .as_ref()
                                .is_none_or(|m| v.total_cmp(m).is_gt())
                        {
                            state.maxs[ai] = Some(v.clone());
                        }
                    }
                }
            }
        }
        let mut out: Vec<Vec<Value>> = groups
            .into_values()
            .map(|g| {
                let mut row = g.key_values.clone();
                for (ai, agg) in resolved.iter().enumerate() {
                    row.push(match agg {
                        ResolvedAgg::Count => Value::Int(g.count as i64),
                        ResolvedAgg::CountDistinct(_) => Value::Int(g.distinct[ai].len() as i64),
                        ResolvedAgg::Sum(_) => Value::Float(g.sums[ai]),
                        ResolvedAgg::Avg(_) => Value::Float(g.sums[ai] / g.count as f64),
                        ResolvedAgg::Min(_) => g.mins[ai].clone().unwrap_or(Value::Null),
                        ResolvedAgg::Max(_) => g.maxs[ai].clone().unwrap_or(Value::Null),
                    });
                }
                row
            })
            .collect();
        out.sort_by(|a, b| {
            for i in 0..key_cols.len() {
                let ord = a[i].total_cmp(&b[i]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(out)
    }
}

/// Hash equi-join: all `(left_row_id, right_row_id)` pairs where the join
/// columns are equal (nulls never match, per SQL). Builds the hash side on
/// the smaller table; uses an existing index on the right column if any.
pub fn hash_join(
    left: &Table,
    left_col: &str,
    right: &Table,
    right_col: &str,
) -> Result<Vec<(usize, usize)>> {
    let lc = left.schema().index_of(left_col)?;
    let rc = right.schema().index_of(right_col)?;
    let mut out = Vec::new();
    if right.has_index(right_col) {
        // Probe the index per left row; `lookup_ids` borrows each posting
        // list instead of allocating a fresh id vector per probe.
        for (lid, lrow) in left.iter() {
            if lrow[lc].is_null() {
                continue;
            }
            for &rid in right.lookup_ids(right_col, &lrow[lc])? {
                out.push((lid, rid as usize));
            }
        }
        return Ok(out);
    }
    // Build on the smaller side.
    if left.len() <= right.len() {
        let mut map: HashMap<ValueKey, Vec<usize>> = HashMap::new();
        for (lid, lrow) in left.iter() {
            if !lrow[lc].is_null() {
                map.entry(lrow[lc].key()).or_default().push(lid);
            }
        }
        for (rid, rrow) in right.iter() {
            if rrow[rc].is_null() {
                continue;
            }
            if let Some(lids) = map.get(&rrow[rc].key()) {
                for &lid in lids {
                    out.push((lid, rid));
                }
            }
        }
        out.sort_unstable();
    } else {
        let mut map: HashMap<ValueKey, Vec<usize>> = HashMap::new();
        for (rid, rrow) in right.iter() {
            if !rrow[rc].is_null() {
                map.entry(rrow[rc].key()).or_default().push(rid);
            }
        }
        for (lid, lrow) in left.iter() {
            if lrow[lc].is_null() {
                continue;
            }
            if let Some(rids) = map.get(&lrow[lc].key()) {
                for &rid in rids {
                    out.push((lid, rid));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType, Schema};

    fn asn_loc() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("asn", ColumnType::Int),
            ColumnDef::new("metro", ColumnType::Text),
            ColumnDef::new("country", ColumnType::Text),
            ColumnDef::nullable("dist", ColumnType::Float),
        ]);
        let mut t = Table::new(schema);
        let rows = [
            (13335, "Chicago", "US", Some(1.0)),
            (13335, "Berlin", "DE", Some(2.0)),
            (13335, "Frankfurt", "DE", None),
            (174, "Chicago", "US", Some(3.0)),
            (174, "Paris", "FR", Some(4.0)),
            (6939, "Chicago", "US", Some(5.0)),
        ];
        for (asn, metro, cc, d) in rows {
            t.insert(vec![
                Value::Int(asn),
                Value::text(metro),
                Value::text(cc),
                d.map(Value::Float).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn filter_eq_and_composite() {
        let t = asn_loc();
        let n = Query::new(&t)
            .filter(Predicate::Eq("asn".into(), Value::Int(13335)))
            .count()
            .unwrap();
        assert_eq!(n, 3);
        let n2 = Query::new(&t)
            .filter(
                Predicate::Eq("asn".into(), Value::Int(13335))
                    .and(Predicate::Eq("country".into(), Value::text("DE"))),
            )
            .count()
            .unwrap();
        assert_eq!(n2, 2);
        let n3 = Query::new(&t)
            .filter(
                Predicate::Eq("country".into(), Value::text("FR"))
                    .or(Predicate::Eq("country".into(), Value::text("DE"))),
            )
            .count()
            .unwrap();
        assert_eq!(n3, 3);
    }

    #[test]
    fn filter_with_index_matches_scan() {
        let mut t = asn_loc();
        let before = Query::new(&t)
            .filter(Predicate::Eq("asn".into(), Value::Int(174)))
            .rows()
            .unwrap();
        t.create_index("asn").unwrap();
        let after = Query::new(&t)
            .filter(Predicate::Eq("asn".into(), Value::Int(174)))
            .rows()
            .unwrap();
        assert_eq!(before, after);
        assert_eq!(after.len(), 2);
    }

    #[test]
    fn comparison_predicates_skip_nulls() {
        let t = asn_loc();
        let n = Query::new(&t)
            .filter(Predicate::Gt("dist".into(), Value::Float(2.5)))
            .count()
            .unwrap();
        assert_eq!(n, 3); // 3.0, 4.0, 5.0 — the NULL row doesn't match
        let nn = Query::new(&t)
            .filter(Predicate::IsNull("dist".into()))
            .count()
            .unwrap();
        assert_eq!(nn, 1);
    }

    #[test]
    fn contains_predicates() {
        let t = asn_loc();
        let n = Query::new(&t)
            .filter(Predicate::Contains("metro".into(), "ago".into()))
            .count()
            .unwrap();
        assert_eq!(n, 3);
        let n2 = Query::new(&t)
            .filter(Predicate::ContainsNoCase("metro".into(), "CHI".into()))
            .count()
            .unwrap();
        assert_eq!(n2, 3);
    }

    #[test]
    fn in_set_predicates() {
        let t = asn_loc();
        let n = Query::new(&t)
            .filter(Predicate::InInt(
                "asn".into(),
                [174i64, 6939].into_iter().collect(),
            ))
            .count()
            .unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn order_by_and_limit() {
        let t = asn_loc();
        let rows = Query::new(&t)
            .order_by("dist", false)
            .limit(2)
            .select(vec!["metro"])
            .rows()
            .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::text("Chicago")], vec![Value::text("Paris")]]
        );
    }

    #[test]
    fn multi_key_order() {
        let t = asn_loc();
        let rows = Query::new(&t)
            .order_by("country", true)
            .order_by("metro", true)
            .select(vec!["country", "metro"])
            .rows()
            .unwrap();
        assert_eq!(rows[0], vec![Value::text("DE"), Value::text("Berlin")]);
        assert_eq!(rows[1], vec![Value::text("DE"), Value::text("Frankfurt")]);
        assert_eq!(rows[2], vec![Value::text("FR"), Value::text("Paris")]);
    }

    #[test]
    fn distinct_projection() {
        let t = asn_loc();
        let metros = Query::new(&t)
            .select(vec!["metro"])
            .distinct()
            .rows()
            .unwrap();
        assert_eq!(metros.len(), 4); // Chicago, Berlin, Frankfurt, Paris
    }

    #[test]
    fn distinct_with_limit_applies_after_dedup() {
        let t = asn_loc();
        let metros = Query::new(&t)
            .select(vec!["metro"])
            .distinct()
            .limit(3)
            .rows()
            .unwrap();
        assert_eq!(metros.len(), 3);
        let all: HashSet<String> = metros
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert_eq!(all.len(), 3, "limit must not produce duplicates");
    }

    #[test]
    fn group_by_count_distinct() {
        // The Table 2 query shape: per ASN, number of distinct countries.
        let t = asn_loc();
        let groups = Query::new(&t)
            .group_by(
                vec!["asn"],
                vec![Aggregate::CountDistinct("country".into()), Aggregate::Count],
            )
            .unwrap();
        assert_eq!(groups.len(), 3);
        // Sorted by key: 174, 6939, 13335.
        assert_eq!(
            groups[0],
            vec![Value::Int(174), Value::Int(2), Value::Int(2)]
        );
        assert_eq!(
            groups[1],
            vec![Value::Int(6939), Value::Int(1), Value::Int(1)]
        );
        assert_eq!(
            groups[2],
            vec![Value::Int(13335), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn group_by_sum_min_max_avg() {
        let t = asn_loc();
        let groups = Query::new(&t)
            .filter(Predicate::Eq("asn".into(), Value::Int(174)))
            .group_by(
                vec!["asn"],
                vec![
                    Aggregate::Sum("dist".into()),
                    Aggregate::Min("dist".into()),
                    Aggregate::Max("dist".into()),
                    Aggregate::Avg("dist".into()),
                ],
            )
            .unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0][1], Value::Float(7.0));
        assert_eq!(groups[0][2], Value::Float(3.0));
        assert_eq!(groups[0][3], Value::Float(4.0));
        assert_eq!(groups[0][4], Value::Float(3.5));
    }

    #[test]
    fn join_basic() {
        let names = {
            let schema = Schema::new(vec![
                ColumnDef::new("asn", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
            ]);
            let mut t = Table::new(schema);
            t.insert(vec![Value::Int(13335), Value::text("CLOUDFLARENET")])
                .unwrap();
            t.insert(vec![Value::Int(174), Value::text("COGENT-174")])
                .unwrap();
            t.insert(vec![Value::Int(999), Value::text("UNSEEN")])
                .unwrap();
            t
        };
        let locs = asn_loc();
        let pairs = hash_join(&names, "asn", &locs, "asn").unwrap();
        assert_eq!(pairs.len(), 5); // 3 cloudflare + 2 cogent
        for (l, r) in pairs {
            assert_eq!(
                names.row(l).unwrap()[0],
                locs.row(r).unwrap()[0],
                "join keys must match"
            );
        }
    }

    #[test]
    fn join_with_index_same_result() {
        let mut locs = asn_loc();
        let names = {
            let schema = Schema::new(vec![
                ColumnDef::new("asn", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
            ]);
            let mut t = Table::new(schema);
            t.insert(vec![Value::Int(174), Value::text("COGENT-174")])
                .unwrap();
            t
        };
        let plain: HashSet<(usize, usize)> = hash_join(&names, "asn", &locs, "asn")
            .unwrap()
            .into_iter()
            .collect();
        locs.create_index("asn").unwrap();
        let indexed: HashSet<(usize, usize)> = hash_join(&names, "asn", &locs, "asn")
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(plain, indexed);
    }

    #[test]
    fn join_nulls_never_match() {
        let schema = Schema::new(vec![ColumnDef::nullable("k", ColumnType::Int)]);
        let mut a = Table::new(schema.clone());
        a.insert(vec![Value::Null]).unwrap();
        a.insert(vec![Value::Int(1)]).unwrap();
        let mut b = Table::new(schema);
        b.insert(vec![Value::Null]).unwrap();
        b.insert(vec![Value::Int(1)]).unwrap();
        let pairs = hash_join(&a, "k", &b, "k").unwrap();
        assert_eq!(pairs, vec![(1, 1)]);
    }

    #[test]
    fn unknown_columns_error() {
        let t = asn_loc();
        assert!(Query::new(&t)
            .filter(Predicate::Eq("nope".into(), Value::Int(1)))
            .rows()
            .is_err());
        assert!(Query::new(&t).select(vec!["nope"]).rows().is_err());
        assert!(Query::new(&t).order_by("nope", true).rows().is_err());
        assert!(Query::new(&t).group_by(vec!["nope"], vec![]).is_err());
    }
}
