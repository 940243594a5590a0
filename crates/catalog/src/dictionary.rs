//! The data dictionary: named tables with data, indexes and statistics.

use crate::stats::{AnalyzeOptions, TableStats};
use std::collections::{BTreeSet, HashMap};
use taurus_common::error::{Error, Result};
use taurus_common::{Row, Schema, TableId, Value};
use taurus_storage::{IndexDef, OrderedIndex, RowId, TableData};

/// A table as the dictionary knows it: heap data, indexes, statistics.
#[derive(Debug)]
pub struct CatalogTable {
    pub id: TableId,
    pub name: String,
    pub data: TableData,
    pub indexes: Vec<OrderedIndex>,
    /// Populated by [`Catalog::analyze_all`] / [`Catalog::analyze`].
    pub stats: Option<TableStats>,
}

impl CatalogTable {
    pub fn schema(&self) -> &Schema {
        self.data.schema()
    }

    /// The index whose key starts with exactly the given columns, if any.
    pub fn index_on(&self, columns: &[usize]) -> Option<&OrderedIndex> {
        self.indexes.iter().find(|ix| ix.def().columns.as_slice() == columns)
    }

    /// Indexes whose *first* key column is `col` — candidates for lookups
    /// and ranges on that column.
    pub fn indexes_leading_with(&self, col: usize) -> impl Iterator<Item = &OrderedIndex> {
        self.indexes.iter().filter(move |ix| ix.def().columns.first() == Some(&col))
    }

    /// Whether `col` is covered by a single-column UNIQUE index.
    pub fn is_unique_column(&self, col: usize) -> bool {
        self.indexes.iter().any(|ix| ix.def().unique && ix.def().columns.as_slice() == [col])
    }

    /// Row count (live data, not statistics).
    pub fn num_rows(&self) -> usize {
        self.data.num_rows()
    }

    /// Rejects heap rows `start..` if one of them repeats a UNIQUE key of
    /// an earlier row: stored, or earlier in the same batch. Keys that
    /// hold a NULL never conflict.
    fn check_unique(&self, start: usize) -> Result<()> {
        for ix in self.indexes.iter().filter(|ix| ix.def().unique) {
            let mut batch = BTreeSet::new();
            for row in &self.data.rows()[start..] {
                let key = ix.key_of(row);
                if key.0.iter().any(Value::is_null) {
                    continue;
                }
                if ix.contains_key(&key) || batch.contains(&key) {
                    let shown: Vec<String> = key.0.iter().map(Value::to_string).collect();
                    return Err(Error::semantic(format!(
                        "duplicate key ({}) for unique index '{}' on '{}'",
                        shown.join(", "),
                        ix.def().name,
                        self.name
                    )));
                }
                batch.insert(key);
            }
        }
        Ok(())
    }
}

/// MySQL's `innodb_stats_auto_recalc` rule: once an insert leaves a table's
/// row count differing from its analyzed `row_count` by more than
/// `row_count / STATS_RECALC_DIVISOR` (10%), the table is re-ANALYZEd.
pub const STATS_RECALC_DIVISOR: u64 = 10;

/// The catalog. Built mutably during setup, then shared immutably (wrap in
/// `Arc`) for the read-only benchmark workloads.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<CatalogTable>,
    by_name: HashMap<String, usize>,
    /// Monotonic counter bumped by every structural or statistics change
    /// (CREATE TABLE / CREATE INDEX / index rebuild / ANALYZE). Plan-cache
    /// entries record the version they were compiled under and are
    /// invalidated when it moves. Row appends ([`Catalog::insert`]) do not
    /// bump it: they maintain every index in place and keep the statistics,
    /// so a plan compiled before the append stays correct after it. Only
    /// the automatic re-ANALYZE an append may trigger (see
    /// [`STATS_RECALC_DIVISOR`]) publishes a statistics change.
    version: u64,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Current schema/statistics version (see the field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Create an empty table; names are unique.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<TableId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(Error::semantic(format!("table '{name}' already exists")));
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(name.clone(), self.tables.len());
        self.tables.push(CatalogTable {
            id,
            name,
            data: TableData::new(schema),
            indexes: Vec::new(),
            stats: None,
        });
        self.version += 1;
        Ok(id)
    }

    /// `INSERT`: append rows to a table, all of them or none.
    ///
    /// Every row is checked first: arity, types, and each UNIQUE index,
    /// against the stored rows and the other rows of the call (a key that
    /// holds a NULL never conflicts). A rejected call leaves heap, indexes,
    /// statistics and version as they were. Accepted rows enter every index
    /// in place. Statistics are kept and the version does not move, except
    /// when the append drifts the row count past [`STATS_RECALC_DIVISOR`]:
    /// then the table is re-ANALYZEd with the options of its last ANALYZE.
    /// A table that was never analyzed (a bulk load before its ANALYZE) is
    /// never analyzed here.
    pub fn insert(&mut self, table: TableId, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        let t = self.table_mut(table)?;
        let start = t.num_rows();
        let checked = rows
            .into_iter()
            .try_for_each(|r| t.data.push(r).map(drop))
            .and_then(|()| t.check_unique(start));
        if let Err(e) = checked {
            t.data.truncate(start);
            return Err(e);
        }
        for ix in &mut t.indexes {
            for (row, id) in t.data.rows()[start..].iter().zip(start as RowId..) {
                ix.insert(id, row);
            }
        }
        let recalc = t
            .stats
            .as_ref()
            .filter(|s| {
                (t.data.num_rows() as u64).abs_diff(s.row_count)
                    > s.row_count / STATS_RECALC_DIVISOR
            })
            .map(|s| s.options.clone());
        match recalc {
            Some(opts) => self.analyze(table, &opts),
            None => Ok(()),
        }
    }

    /// Declare an index; it is built from current data immediately.
    pub fn create_index(
        &mut self,
        table: TableId,
        name: impl Into<String>,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<()> {
        let t = self.table_mut(table)?;
        let def = IndexDef::new(name, columns, unique);
        if t.indexes.iter().any(|ix| ix.def().name == def.name) {
            return Err(Error::semantic(format!(
                "index '{}' already exists on '{}'",
                def.name, t.name
            )));
        }
        for &c in &def.columns {
            if c >= t.schema().len() {
                return Err(Error::semantic(format!(
                    "index column {c} out of range for '{}'",
                    t.name
                )));
            }
        }
        t.indexes.push(OrderedIndex::build(def, &t.data));
        self.version += 1;
        Ok(())
    }

    /// Rebuild all indexes of a table from its current data (after bulk
    /// loads that followed index creation).
    pub fn build_indexes(&mut self, table: TableId) -> Result<()> {
        let t = self.table_mut(table)?;
        let defs: Vec<IndexDef> = t.indexes.iter().map(|ix| ix.def().clone()).collect();
        t.indexes = defs.into_iter().map(|d| OrderedIndex::build(d, &t.data)).collect();
        self.version += 1;
        Ok(())
    }

    /// `ANALYZE TABLE`: compute statistics.
    pub fn analyze(&mut self, table: TableId, opts: &AnalyzeOptions) -> Result<()> {
        let t = self.table_mut(table)?;
        let unique: Vec<bool> = (0..t.schema().len()).map(|c| t.is_unique_column(c)).collect();
        t.stats = Some(TableStats::analyze(&t.data, &unique, opts));
        self.version += 1;
        Ok(())
    }

    /// `ANALYZE` every table.
    pub fn analyze_all(&mut self, opts: &AnalyzeOptions) {
        let ids: Vec<TableId> = self.tables.iter().map(|t| t.id).collect();
        for id in ids {
            self.analyze(id, opts).expect("ids are live");
        }
    }

    pub fn table(&self, id: TableId) -> Result<&CatalogTable> {
        self.tables
            .get(id.0 as usize)
            .ok_or_else(|| Error::CatalogMissing(format!("table id {id}")))
    }

    pub fn table_by_name(&self, name: &str) -> Result<&CatalogTable> {
        self.by_name
            .get(name)
            .map(|&i| &self.tables[i])
            .ok_or_else(|| Error::CatalogMissing(format!("table '{name}'")))
    }

    pub fn tables(&self) -> &[CatalogTable] {
        &self.tables
    }

    fn table_mut(&mut self, id: TableId) -> Result<&mut CatalogTable> {
        self.tables
            .get_mut(id.0 as usize)
            .ok_or_else(|| Error::CatalogMissing(format!("table id {id}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{Column, DataType, Value};

    fn demo() -> (Catalog, TableId) {
        let mut cat = Catalog::new();
        let id = cat
            .create_table(
                "t",
                Schema::new(vec![
                    Column::new("pk", DataType::Int),
                    Column::new("v", DataType::Str),
                ]),
            )
            .unwrap();
        cat.insert(id, (0..10).map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))])).unwrap();
        cat.create_index(id, "primary", vec![0], true).unwrap();
        (cat, id)
    }

    #[test]
    fn create_and_lookup() {
        let (cat, id) = demo();
        assert_eq!(cat.table(id).unwrap().name, "t");
        assert_eq!(cat.table_by_name("t").unwrap().id, id);
        assert!(cat.table_by_name("missing").is_err());
        assert!(cat.table(TableId(99)).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut cat, _) = demo();
        assert!(cat.create_table("t", Schema::default()).is_err());
    }

    #[test]
    fn index_management() {
        let (mut cat, id) = demo();
        let t = cat.table(id).unwrap();
        assert!(t.index_on(&[0]).is_some());
        assert!(t.is_unique_column(0));
        assert!(!t.is_unique_column(1));
        assert!(cat.create_index(id, "primary", vec![0], true).is_err(), "dup name");
        assert!(cat.create_index(id, "bad", vec![9], false).is_err(), "col range");
        // Index built after data load sees all rows.
        cat.create_index(id, "v_idx", vec![1], false).unwrap();
        let t = cat.table(id).unwrap();
        assert_eq!(t.index_on(&[1]).unwrap().num_keys(), 10);
    }

    /// Seeded generator for the property tests (64-bit LCG, high bits).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Every index of `id` equals a from-scratch build over the same heap,
    /// by ordered scan and by prefix lookups on every stored key prefix.
    fn assert_indexes_fresh(cat: &Catalog, id: TableId) {
        let t = cat.table(id).unwrap();
        for ix in &t.indexes {
            let fresh = OrderedIndex::build(ix.def().clone(), &t.data);
            let name = &ix.def().name;
            assert_eq!(ix.num_keys(), fresh.num_keys(), "{name}: key count");
            let scan: Vec<RowId> = ix.scan_ordered().collect();
            assert_eq!(scan, fresh.scan_ordered().collect::<Vec<_>>(), "{name}: ordered scan");
            assert_eq!(scan.len(), t.num_rows(), "{name}: every row indexed once");
            for row in t.data.rows() {
                let key = ix.key_of(row);
                for len in 1..=key.0.len() {
                    let prefix = &key.0[..len];
                    let got: Vec<RowId> = ix.lookup(prefix).collect();
                    assert_eq!(got, fresh.lookup(prefix).collect::<Vec<_>>(), "{name}: {prefix:?}");
                }
            }
        }
    }

    #[test]
    fn insert_maintains_indexes() {
        let mut cat = Catalog::new();
        let id = cat
            .create_table(
                "t",
                Schema::new(vec![
                    Column::new("pk", DataType::Int),
                    Column::nullable("a", DataType::Int),
                    Column::nullable("b", DataType::Str),
                ]),
            )
            .unwrap();
        cat.create_index(id, "t_pk", vec![0], true).unwrap();
        cat.create_index(id, "t_a", vec![1], false).unwrap();
        cat.create_index(id, "t_ab", vec![1, 2], false).unwrap();
        cat.create_index(id, "t_ba", vec![2, 1], false).unwrap();
        let version = cat.version();
        let mut rng = 42u64;
        let mut pk = 0;
        while pk < 300 {
            let batch = 1 + next(&mut rng) % 4;
            let rows: Vec<Row> = (0..batch)
                .map(|_| {
                    pk += 1;
                    let a = match next(&mut rng) % 6 {
                        0 => Value::Null,
                        n => Value::Int(n as i64),
                    };
                    let b = match next(&mut rng) % 4 {
                        0 => Value::Null,
                        n => Value::str(["x", "y", "z"][n as usize - 1]),
                    };
                    vec![Value::Int(pk), a, b]
                })
                .collect();
            cat.insert(id, rows).unwrap();
            assert_indexes_fresh(&cat, id);
        }
        assert_eq!(cat.table(id).unwrap().num_rows(), pk as usize);
        assert_eq!(cat.version(), version, "appends publish no change");
        assert!(cat.table(id).unwrap().stats.is_none(), "never analyzed, never auto-analyzed");
    }

    #[test]
    fn rejected_insert_changes_nothing() {
        let (mut cat, id) = demo();
        cat.analyze_all(&AnalyzeOptions::default());
        let version = cat.version();
        let row = |k: i64, v: &str| vec![Value::Int(k), Value::str(v)];
        let type_error =
            cat.insert(id, vec![row(10, "ok"), vec![Value::str("x"), Value::str("y")]]);
        let stored_dup = cat.insert(id, vec![row(10, "ok"), row(3, "dup")]);
        let batch_dup = cat.insert(id, vec![row(20, "a"), row(21, "b"), row(20, "c")]);
        for err in [type_error, stored_dup, batch_dup] {
            assert!(matches!(err, Err(Error::Semantic(_))), "{err:?}");
        }
        let msg = cat.insert(id, vec![row(3, "dup")]).unwrap_err().to_string();
        assert!(msg.contains("'primary'") && msg.contains("(3)"), "{msg}");
        let t = cat.table(id).unwrap();
        assert_eq!(t.num_rows(), 10);
        assert_eq!(t.stats.as_ref().unwrap().row_count, 10);
        assert_eq!(cat.version(), version);
        assert_indexes_fresh(&cat, id);
    }

    #[test]
    fn null_keys_never_conflict() {
        let mut cat = Catalog::new();
        let id = cat
            .create_table(
                "u",
                Schema::new(vec![
                    Column::nullable("a", DataType::Int),
                    Column::nullable("b", DataType::Int),
                ]),
            )
            .unwrap();
        cat.create_index(id, "u_ab", vec![0, 1], true).unwrap();
        let r = |a: Value, b: Value| vec![a, b];
        cat.insert(id, vec![r(Value::Null, Value::Int(1)), r(Value::Null, Value::Int(1))]).unwrap();
        cat.insert(id, vec![r(Value::Int(1), Value::Null), r(Value::Int(1), Value::Null)]).unwrap();
        cat.insert(id, vec![r(Value::Int(1), Value::Int(1))]).unwrap();
        assert!(cat.insert(id, vec![r(Value::Int(1), Value::Int(1))]).is_err());
        assert_eq!(cat.table(id).unwrap().num_rows(), 5);
        assert_indexes_fresh(&cat, id);
    }

    #[test]
    fn drifted_statistics_recalculate_once() {
        let (mut cat, id) = demo();
        cat.insert(id, (10..100).map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))]))
            .unwrap();
        let opts = AnalyzeOptions { max_buckets: 7, histograms_on_unique: false };
        cat.analyze(id, &opts).unwrap();
        let version = cat.version();
        let stats = |cat: &Catalog| cat.table(id).unwrap().stats.clone().unwrap();
        // Up to 10% drift (10 of 100 rows) keeps the statistics.
        for i in 100..110 {
            cat.insert(id, vec![vec![Value::Int(i), Value::str("new")]]).unwrap();
            assert_eq!(cat.version(), version, "row {i}");
            assert_eq!(stats(&cat).row_count, 100);
        }
        // The 11th row crosses the threshold: one re-ANALYZE.
        cat.insert(id, vec![vec![Value::Int(110), Value::str("new")]]).unwrap();
        assert_eq!(cat.version(), version + 1);
        let s = stats(&cat);
        assert_eq!(s.row_count, 111);
        assert_eq!(s.column(0).ndv, 111.0);
        assert_eq!(s.options.max_buckets, 7);
        assert!(!s.options.histograms_on_unique);
        assert!(s.column(0).histogram.is_none(), "unique column: no histogram, as analyzed");
        assert!(s.column(1).histogram.as_ref().unwrap().num_buckets() <= 7);
        // The next row measures drift against the refreshed count.
        cat.insert(id, vec![vec![Value::Int(111), Value::str("new")]]).unwrap();
        assert_eq!(cat.version(), version + 1);
    }

    #[test]
    fn version_bumps_on_ddl_not_plain_inserts() {
        let mut cat = Catalog::new();
        let v0 = cat.version();
        let id =
            cat.create_table("t", Schema::new(vec![Column::new("pk", DataType::Int)])).unwrap();
        let v1 = cat.version();
        assert!(v1 > v0, "CREATE TABLE bumps");
        cat.insert(id, vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(cat.version(), v1, "raw insert does not bump");
        cat.create_index(id, "pk_idx", vec![0], true).unwrap();
        let v2 = cat.version();
        assert!(v2 > v1, "CREATE INDEX bumps");
        cat.build_indexes(id).unwrap();
        let v3 = cat.version();
        assert!(v3 > v2, "index rebuild bumps");
        cat.analyze(id, &AnalyzeOptions::default()).unwrap();
        assert!(cat.version() > v3, "ANALYZE bumps");
    }

    #[test]
    fn analyze_populates_stats() {
        let (mut cat, id) = demo();
        assert!(cat.table(id).unwrap().stats.is_none());
        cat.analyze_all(&AnalyzeOptions::default());
        let stats = cat.table(id).unwrap().stats.as_ref().unwrap();
        assert_eq!(stats.row_count, 10);
        assert_eq!(stats.column(0).ndv, 10.0);
        // Unique column still has a histogram (paper's lifted restriction).
        assert!(stats.column(0).histogram.is_some());
    }
}
