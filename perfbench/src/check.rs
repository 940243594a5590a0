//! Reply verification against references that do not come from the path
//! under test: a twin engine planned by the native optimizer for the
//! seeded streams, and committed native-optimizer digests for the suite.

use crate::mix::Schema;
use mylite::{Engine, MySqlOptimizer};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use taurus_common::error::Result;
use taurus_common::Value;
use taurus_workloads::{tpcds, tpch};

/// Native-optimizer result digests of all 121 templates at SCALE 1, in
/// canonical order: `name<TAB>rows<TAB>digest`. Regenerate with
/// `cargo run --release --manifest-path perfbench/Cargo.toml -- --make-reference`.
const SUITE_SCALE1: &str = include_str!("../reference/suite_scale1.tsv");

/// The scale the committed digests were made at.
pub const REFERENCE_SCALE: f64 = 1.0;

/// Hash of a reply's rows, exact to the bit (for same-statement compares).
pub fn exact_hash(rows: &[Vec<Value>]) -> u64 {
    let mut h = DefaultHasher::new();
    rows.len().hash(&mut h);
    for r in rows {
        r.hash(&mut h);
    }
    h.finish()
}

/// Canonical digest of a result set: rows rendered with doubles rounded to
/// four decimals (summation order is plan-dependent), sorted, then hashed
/// with FNV-1a. Returns `(row count, digest)`.
pub fn canonical_digest(rows: &[Vec<Value>]) -> (usize, u64) {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Double(d) => {
                        let d = if *d == 0.0 { 0.0 } else { *d };
                        format!("D{d:.4}")
                    }
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    lines.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (rows.len(), h)
}

/// One suite template.
#[derive(Debug, Clone)]
pub struct Template {
    pub schema: Schema,
    pub name: String,
    pub sql: String,
}

/// The 22 TPC-H then 99 TPC-DS templates, in canonical order.
pub fn templates() -> Vec<Template> {
    let h = tpch::queries().into_iter().map(|q| Template {
        schema: Schema::Tpch,
        name: format!("tpch_{}", q.name),
        sql: q.sql,
    });
    let ds = tpcds::queries().into_iter().map(|q| Template {
        schema: Schema::Tpcds,
        name: format!("tpcds_{}", q.name),
        sql: q.sql,
    });
    h.chain(ds).collect()
}

/// Expected `(rows, digest)` per template, in template order.
pub type Digests = Vec<(usize, u64)>;

/// The committed SCALE 1 digests, checked against the template list.
pub fn committed_digests(templates: &[Template]) -> std::result::Result<Digests, String> {
    let lines: Vec<&str> = SUITE_SCALE1.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() != templates.len() {
        return Err(format!("{} reference digests for {} templates", lines.len(), templates.len()));
    }
    lines
        .iter()
        .zip(templates)
        .map(|(line, t)| {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                [name, rows, digest] if *name == t.name => Ok((
                    rows.parse().map_err(|_| format!("bad row count in {line:?}"))?,
                    u64::from_str_radix(digest, 16).map_err(|_| format!("bad digest {line:?}"))?,
                )),
                _ => Err(format!("reference line {line:?} does not match template {}", t.name)),
            }
        })
        .collect()
}

/// Digests computed now by the native optimizer on fresh engines.
pub fn native_digests(templates: &[Template], engines: &[Engine; 2]) -> Result<Digests> {
    templates
        .iter()
        .map(|t| {
            let out = engines[t.schema.index()].query_with(&t.sql, &MySqlOptimizer)?;
            Ok(canonical_digest(&out.rows))
        })
        .collect()
}

/// The reference file's text for `templates` and their digests.
pub fn reference_text(templates: &[Template], digests: &Digests) -> String {
    templates
        .iter()
        .zip(digests)
        .map(|(t, (rows, d))| format!("{}\t{rows}\t{d:016x}\n", t.name))
        .collect()
}
