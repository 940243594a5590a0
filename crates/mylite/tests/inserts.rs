//! The write path against the plan cache: single-row INSERTs maintain the
//! indexes in place and keep the catalog version, so cached plans keep
//! serving. After every insert, each plan-cached read — at dop 1 and 4, on
//! the row and batch engines — must return exactly the rows of a fresh
//! engine built from the same data (indexes built from scratch, freshly
//! analyzed, no plan cache).

use mylite::{CacheOutcome, Engine, MySqlOptimizer, SessionOpts};
use taurus_catalog::Catalog;
use taurus_common::{Column, DataType, Row, Schema, Value};

/// Seeded generator (64-bit LCG, high bits).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

const DIMS: i64 = 8;

fn fact_row(rng: &mut Rng, id: i64) -> Row {
    let k = match rng.below(10) {
        0 => Value::Null,
        n => Value::Int(n as i64 * 3 % 7),
    };
    vec![
        Value::Int(id),
        k,
        Value::Int(rng.below(DIMS as u64) as i64),
        Value::Int(rng.below(1000) as i64),
        Value::str(format!("s{}", rng.below(5))),
    ]
}

/// `fact(id, k, g, v, s)` with a unique key, a nullable secondary index
/// and a composite one, joined to `dim(did, name)`; analyzed.
fn build(fact: &[Row]) -> Engine {
    let mut cat = Catalog::new();
    let f = cat
        .create_table(
            "fact",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::nullable("k", DataType::Int),
                Column::new("g", DataType::Int),
                Column::new("v", DataType::Int),
                Column::new("s", DataType::Str),
            ]),
        )
        .unwrap();
    cat.insert(f, fact.to_vec()).unwrap();
    cat.create_index(f, "fact_pk", vec![0], true).unwrap();
    cat.create_index(f, "fact_k", vec![1], false).unwrap();
    cat.create_index(f, "fact_gk", vec![2, 1], false).unwrap();
    let d = cat
        .create_table(
            "dim",
            Schema::new(vec![
                Column::new("did", DataType::Int),
                Column::new("name", DataType::Str),
            ]),
        )
        .unwrap();
    cat.insert(d, (0..DIMS).map(|i| vec![Value::Int(i), Value::str(format!("d{i}"))])).unwrap();
    cat.create_index(d, "dim_pk", vec![0], true).unwrap();
    let mut e = Engine::new(cat);
    e.analyze();
    e
}

/// The read shapes, with literals drawn from `rng`.
fn reads(rng: &mut Rng, max_id: i64) -> Vec<String> {
    let k = rng.below(7);
    let g = rng.below(DIMS as u64);
    let lo = rng.below(max_id as u64);
    vec![
        format!("SELECT id, v FROM fact WHERE k = {k} ORDER BY id"),
        format!("SELECT id FROM fact WHERE id BETWEEN {lo} AND {} ORDER BY id", lo + 30),
        format!("SELECT g, COUNT(*), SUM(v) FROM fact WHERE k > {k} GROUP BY g ORDER BY g"),
        format!(
            "SELECT f.id, d.name FROM fact f, dim d WHERE f.g = d.did AND f.k = {k} ORDER BY f.id"
        ),
        format!("SELECT id, s FROM fact WHERE g = {g} AND k = {k} ORDER BY id"),
        "SELECT id, k FROM fact ORDER BY k, id LIMIT 7".to_string(),
        "SELECT COUNT(*) FROM fact WHERE k IS NULL".to_string(),
    ]
}

#[test]
fn cached_reads_match_a_fresh_engine_after_every_insert() {
    let mut rng = Rng(7);
    let mut fact: Vec<Row> = (0..200).map(|id| fact_row(&mut rng, id)).collect();
    let e = build(&fact);
    let variants: Vec<SessionOpts> = [(1, false), (1, true), (4, false), (4, true)]
        .into_iter()
        .map(|(dop, vectorized)| SessionOpts {
            dop: Some(dop),
            vectorized: Some(vectorized),
            parallel_threshold: Some(16),
            morsel_rows: Some(32),
            ..SessionOpts::default()
        })
        .collect();
    let version = e.catalog().version();
    for step in 0..40 {
        let id = 200 + step;
        let row = fact_row(&mut rng, id);
        let values: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Str(s) => format!("'{s}'"),
                other => other.to_string(),
            })
            .collect();
        let sql = format!("INSERT INTO fact VALUES ({})", values.join(", "));
        let (out, outcome) =
            e.query_cached_opts(&sql, &MySqlOptimizer, &SessionOpts::default()).unwrap();
        assert_eq!(outcome, CacheOutcome::Uncached);
        assert_eq!(out.rows, vec![vec![Value::Int(1)]]);
        fact.push(row);

        let fresh = build(&fact);
        for sql in reads(&mut rng, id) {
            let want = fresh.query(&sql).unwrap();
            for opts in &variants {
                let (got, _) = e.query_cached_opts(&sql, &MySqlOptimizer, opts).unwrap();
                assert_eq!(got.columns, want.columns, "{sql}");
                assert_eq!(got.rows, want.rows, "after insert {step}, {opts:?}: {sql}");
            }
        }
    }
    // 200 -> 240 rows crosses the 10% drift rule once (at 221 rows).
    assert_eq!(e.catalog().version(), version + 1, "only the automatic re-ANALYZE bumps");
    let stats = e.plan_cache_stats();
    assert!(stats.hits > 10 * (stats.misses + stats.invalidations), "{stats:?}");
}
