//! Values and records.
//!
//! A [`Record`] is a positional tuple of [`Value`]s; column names and types
//! live in the companion [`crate::schema::Schema`]. Values are kept simple —
//! the four types LINEITEM needs — with total ordering within a type so
//! predicates can use range comparisons. A record read from a columnar
//! batch is a shared view of its row, materialised only when a value is
//! read (see [`Record`]).

use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::batch::RecordBatch;

/// A single column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (prices, discounts, taxes).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// A date as days since 1992-01-01 (the TPC-H epoch).
    Date(u32),
}

impl Value {
    /// Type-aware comparison. Values of different types are incomparable
    /// (`None`), as are NaN floats.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            // Allow int/float mixing, as SQL does.
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            _ => None,
        }
    }

    /// Approximate serialized width in bytes, used by the storage size model.
    pub fn width(&self) -> u64 {
        match self {
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64,
            Value::Date(_) => 4,
        }
    }

    /// Human-readable type name (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Date(_) => "date",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "'{v}'"),
            Value::Date(d) => {
                // Render as an approximate ISO date from the TPC-H epoch.
                let year = 1992 + d / 365;
                let doy = d % 365;
                write!(f, "{year}-{:03}", doy + 1)
            }
        }
    }
}

/// A row: positional values matching some schema.
///
/// A record has two private representations with one behaviour:
///
/// * **owned** — a `Vec<Value>`, what [`Record::new`] builds;
/// * **view** — a shared handle on one (optionally projected) row of an
///   immutable [`RecordBatch`], what [`BatchSelection::record`] returns.
///   Cloning or dropping a view is a reference-count operation;
///   [`Record::arity`] and [`Record::width`] read the batch directly, and
///   the first [`Record::get`]/[`Record::values`] call materialises the
///   row once (through [`RecordBatch::record`]) into a per-view cache.
///
/// Equality, `Debug` and `Display` see only the values, so the two
/// representations of the same row are indistinguishable. A view keeps
/// its batch alive: it is a snapshot of the dataset version it was read
/// from, whatever later rewrites do to the block.
///
/// [`BatchSelection::record`]: crate::batch::BatchSelection::record
#[derive(Clone)]
pub struct Record(Repr);

#[derive(Clone)]
enum Repr {
    Owned(Vec<Value>),
    View(Arc<RowView>),
}

/// One row of a shared batch, materialised on first read.
struct RowView {
    batch: Arc<RecordBatch>,
    row: usize,
    projection: Arc<[usize]>,
    values: OnceLock<Vec<Value>>,
}

impl Record {
    /// Build a record from values.
    pub fn new(values: Vec<Value>) -> Self {
        Record(Repr::Owned(values))
    }

    /// A view of `row` of `batch`, projected to `projection` (empty = all
    /// columns). Nothing is materialised until a value is read.
    pub(crate) fn view(batch: Arc<RecordBatch>, row: usize, projection: Arc<[usize]>) -> Self {
        debug_assert!(row < batch.len());
        Record(Repr::View(Arc::new(RowView {
            batch,
            row,
            projection,
            values: OnceLock::new(),
        })))
    }

    /// Value of column `idx`.
    ///
    /// # Panics
    /// Panics if the index is out of range — records are always produced to
    /// match their schema, so this indicates a compiler/generator bug.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }

    /// All values in column order.
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::Owned(values) => values,
            Repr::View(view) => view
                .values
                .get_or_init(|| view.batch.record(view.row, &view.projection).into_values()),
        }
    }

    /// The values, by move when owned.
    fn into_values(self) -> Vec<Value> {
        match self.0 {
            Repr::Owned(values) => values,
            Repr::View(_) => self.values().to_vec(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        match &self.0 {
            Repr::Owned(values) => values.len(),
            Repr::View(view) if view.projection.is_empty() => view.batch.arity(),
            Repr::View(view) => view.projection.len(),
        }
    }

    /// Project the record down to the given column indices (in that order).
    pub fn project(&self, columns: &[usize]) -> Record {
        Record::new(columns.iter().map(|&c| self.get(c).clone()).collect())
    }

    /// Approximate serialized width in bytes.
    pub fn width(&self) -> u64 {
        match &self.0 {
            Repr::Owned(values) => values.iter().map(Value::width).sum(),
            Repr::View(view) => view.batch.row_width(view.row, &view.projection),
        }
    }
}

impl Default for Record {
    fn default() -> Self {
        Record::new(Vec::new())
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("values", &self.values())
            .finish()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_within_types() {
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Float(2.5).compare(&Value::Float(2.5)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Str("b".into()).compare(&Value::Str("a".into())),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Date(10).compare(&Value::Date(20)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn compare_mixes_numerics_only() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).compare(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Int(1).compare(&Value::Str("1".into())), None);
        assert_eq!(Value::Float(f64::NAN).compare(&Value::Float(1.0)), None);
    }

    #[test]
    fn record_access_and_projection() {
        let r = Record::new(vec![
            Value::Int(7),
            Value::Str("x".into()),
            Value::Float(1.5),
        ]);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(1), &Value::Str("x".into()));
        let p = r.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Float(1.5), Value::Int(7)]);
    }

    #[test]
    fn width_model() {
        let r = Record::new(vec![
            Value::Int(7),
            Value::Str("abcd".into()),
            Value::Date(3),
        ]);
        assert_eq!(r.width(), 8 + 4 + 4);
    }

    #[test]
    fn a_record_is_three_words_and_shareable_across_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Record>();
        assert_eq!(std::mem::size_of::<Record>(), 24);
    }

    #[test]
    fn debug_keeps_the_derived_form() {
        let r = Record::new(vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(format!("{r:?}"), r#"Record { values: [Int(1), Str("a")] }"#);
    }

    #[test]
    fn display_is_compact() {
        let r = Record::new(vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(r.to_string(), "(1, 'a')");
    }
}
