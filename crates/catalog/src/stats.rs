//! Table and column statistics (`ANALYZE`).
//!
//! The metadata provider ships these to Orca (§5.5): cardinality, per-column
//! null counts, distinct counts, and histograms. MySQL's own optimizer uses
//! the same numbers, so both optimizers see identical statistics — matching
//! the paper's setup, where Orca consumes "the histograms as they existed
//! inside MySQL" (§8).

use crate::histogram::Histogram;
use std::sync::Arc;
use taurus_common::Value;
use taurus_storage::TableData;

/// Knobs for statistics collection.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Histogram bucket budget (MySQL's default is 100).
    pub max_buckets: usize,
    /// §5.5/§7: stock MySQL skips histograms for UNIQUE columns; the paper
    /// lifted that restriction so Orca could see them. `true` = lifted.
    pub histograms_on_unique: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions { max_buckets: 100, histograms_on_unique: true }
    }
}

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub ndv: f64,
    /// Number of NULLs.
    pub null_count: u64,
    /// Minimum non-null value, if any rows exist.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Histogram over non-null values (absent for all-null columns or when
    /// suppressed by [`AnalyzeOptions`]).
    pub histogram: Option<Arc<Histogram>>,
}

impl ColumnStats {
    /// Fraction of rows that are NULL in this column.
    pub fn null_fraction(&self, row_count: u64) -> f64 {
        if row_count == 0 {
            0.0
        } else {
            self.null_count as f64 / row_count as f64
        }
    }
}

/// Statistics for a table.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub row_count: u64,
    pub columns: Vec<ColumnStats>,
    /// The options these statistics were computed with; an automatic
    /// recalculation reuses them.
    pub options: AnalyzeOptions,
}

impl TableStats {
    /// Compute statistics over the table's current contents.
    ///
    /// `unique_columns[c]` marks columns covered by a single-column UNIQUE
    /// index, for the histogram-suppression knob.
    pub fn analyze(
        table: &TableData,
        unique_columns: &[bool],
        opts: &AnalyzeOptions,
    ) -> TableStats {
        let ncols = table.schema().len();
        let row_count = table.num_rows() as u64;
        let mut columns = Vec::with_capacity(ncols);
        for c in 0..ncols {
            let mut non_null: Vec<Value> = Vec::with_capacity(table.num_rows());
            let mut null_count = 0u64;
            for (_, row) in table.scan() {
                if row[c].is_null() {
                    null_count += 1;
                } else {
                    non_null.push(row[c].clone());
                }
            }
            non_null.sort_by(|a, b| a.total_cmp(b));
            let ndv = count_distinct_sorted(&non_null);
            let min = non_null.first().cloned();
            let max = non_null.last().cloned();
            let unique = unique_columns.get(c).copied().unwrap_or(false);
            let histogram = if unique && !opts.histograms_on_unique {
                None
            } else {
                Histogram::build(&non_null, opts.max_buckets).map(Arc::new)
            };
            columns.push(ColumnStats { ndv: ndv as f64, null_count, min, max, histogram });
        }
        TableStats { row_count, columns, options: opts.clone() }
    }

    pub fn column(&self, c: usize) -> &ColumnStats {
        &self.columns[c]
    }

    /// Default selectivity for a predicate we cannot estimate (System R's
    /// classic 1/10 for inequality-ish, 1/ndv-ish handled by callers).
    pub const DEFAULT_SELECTIVITY: f64 = 0.1;
}

fn count_distinct_sorted(sorted: &[Value]) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    1 + sorted.windows(2).filter(|w| w[0].total_cmp(&w[1]) != std::cmp::Ordering::Equal).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{Column, DataType, Schema};

    fn table_with(values: &[Option<i64>]) -> TableData {
        let mut t = TableData::new(Schema::new(vec![Column::nullable("x", DataType::Int)]));
        for v in values {
            t.push(vec![v.map(Value::Int).unwrap_or(Value::Null)]).unwrap();
        }
        t
    }

    #[test]
    fn analyze_basic_counts() {
        let t = table_with(&[Some(1), Some(2), Some(2), None, Some(5)]);
        let s = TableStats::analyze(&t, &[false], &AnalyzeOptions::default());
        assert_eq!(s.row_count, 5);
        let c = s.column(0);
        assert_eq!(c.ndv, 3.0);
        assert_eq!(c.null_count, 1);
        assert_eq!(c.min, Some(Value::Int(1)));
        assert_eq!(c.max, Some(Value::Int(5)));
        assert!(c.histogram.is_some());
        assert!((c.null_fraction(s.row_count) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn unique_histogram_suppression_knob() {
        let t = table_with(&[Some(1), Some(2), Some(3)]);
        let lifted = TableStats::analyze(&t, &[true], &AnalyzeOptions::default());
        assert!(lifted.column(0).histogram.is_some(), "paper default: restriction lifted");
        let stock = TableStats::analyze(
            &t,
            &[true],
            &AnalyzeOptions { histograms_on_unique: false, ..Default::default() },
        );
        assert!(stock.column(0).histogram.is_none(), "stock MySQL behaviour");
        // Non-unique columns keep histograms either way.
        let stock_nonunique = TableStats::analyze(
            &t,
            &[false],
            &AnalyzeOptions { histograms_on_unique: false, ..Default::default() },
        );
        assert!(stock_nonunique.column(0).histogram.is_some());
    }

    #[test]
    fn all_null_column() {
        let t = table_with(&[None, None]);
        let s = TableStats::analyze(&t, &[false], &AnalyzeOptions::default());
        let c = s.column(0);
        assert_eq!(c.ndv, 0.0);
        assert_eq!(c.null_count, 2);
        assert!(c.min.is_none() && c.histogram.is_none());
    }

    #[test]
    fn empty_table() {
        let t = table_with(&[]);
        let s = TableStats::analyze(&t, &[false], &AnalyzeOptions::default());
        assert_eq!(s.row_count, 0);
        assert_eq!(s.column(0).null_fraction(0), 0.0);
    }
}
