//! Heap table storage.

use taurus_common::error::{Error, Result};
use taurus_common::{Row, Schema, Value};

/// Position of a row in its table's heap.
pub type RowId = u32;

/// A heap of rows with a fixed schema.
///
/// Rows are append-only (the workloads are read-mostly decision-support
/// benchmarks, like the paper's), which keeps `RowId`s stable: a new row
/// always has the largest id, so indexes take it in place.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    schema: Schema,
    rows: Vec<Row>,
}

impl TableData {
    pub fn new(schema: Schema) -> TableData {
        TableData { schema, rows: Vec::new() }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row after checking arity and (loosely) types.
    ///
    /// Type checking accepts NULL anywhere (nullability is the catalog's
    /// concern) and any numeric for numeric columns, mirroring MySQL's
    /// permissive coercions.
    pub fn push(&mut self, row: Row) -> Result<RowId> {
        if row.len() != self.schema.len() {
            return Err(Error::semantic(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        for (i, v) in row.iter().enumerate() {
            let col = self.schema.column(i);
            if let Some(dt) = v.data_type() {
                let ok = dt == col.data_type
                    || (dt.is_numeric() && col.data_type.is_numeric())
                    || (dt == taurus_common::DataType::Int
                        && col.data_type == taurus_common::DataType::Bool);
                if !ok {
                    return Err(Error::semantic(format!(
                        "value {v} of type {dt} cannot be stored in column '{}' of type {}",
                        col.name, col.data_type
                    )));
                }
            }
        }
        let id = self.rows.len() as RowId;
        self.rows.push(row);
        Ok(id)
    }

    /// Bulk-append without per-row result plumbing; panics on arity errors
    /// (loaders construct rows programmatically).
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) {
        for r in rows {
            self.push(r).expect("bulk-loaded row must match schema");
        }
    }

    /// Drop every row from position `len` on: the undo of an append that
    /// a later check rejected. Row ids below `len` are unaffected.
    pub fn truncate(&mut self, len: usize) {
        self.rows.truncate(len);
    }

    pub fn row(&self, id: RowId) -> &Row {
        &self.rows[id as usize]
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Heap scan in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows.iter().enumerate().map(|(i, r)| (i as RowId, r))
    }

    /// Value at `(row, col)`.
    pub fn value(&self, id: RowId, col: usize) -> &Value {
        &self.rows[id as usize][col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{Column, DataType};

    fn table() -> TableData {
        TableData::new(Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::nullable("name", DataType::Str),
        ]))
    }

    #[test]
    fn push_and_scan() {
        let mut t = table();
        t.push(vec![Value::Int(1), Value::str("a")]).unwrap();
        t.push(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(t.num_rows(), 2);
        let ids: Vec<RowId> = t.scan().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(t.value(0, 1), &Value::str("a"));
    }

    #[test]
    fn arity_and_type_checks() {
        let mut t = table();
        assert!(t.push(vec![Value::Int(1)]).is_err());
        assert!(t.push(vec![Value::str("x"), Value::str("a")]).is_err());
        // Numeric coercion is permitted.
        assert!(t.push(vec![Value::Double(1.5), Value::Null]).is_ok());
    }
}
