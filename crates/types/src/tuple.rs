//! Timestamped records flowing through an ESP pipeline.

use std::fmt;
use std::sync::Arc;

use crate::{EspError, Result, Schema, Ts, Value};

/// A batch of tuples delivered to an operator at one epoch.
pub type Batch = Vec<Tuple>;

/// One timestamped record in a receptor stream.
///
/// A tuple owns its values (boxed slice — one allocation, no spare
/// capacity) and shares its [`Schema`] via `Arc`. The timestamp is the
/// *logical* time the reading was produced at the receptor, which windowed
/// operators use for eviction; it is carried outside the value vector so
/// schema design stays application-level.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    schema: Arc<Schema>,
    values: Arc<[Value]>,
    ts: Ts,
}

impl Tuple {
    /// Construct a tuple, validating arity and field types against `schema`.
    pub fn new(schema: Arc<Schema>, ts: Ts, values: Vec<Value>) -> Result<Tuple> {
        if values.len() != schema.len() {
            return Err(EspError::SchemaMismatch(format!(
                "tuple has {} values but schema {} has {} fields",
                values.len(),
                schema,
                schema.len()
            )));
        }
        for (f, v) in schema.fields().iter().zip(&values) {
            if !f.data_type.admits(v) {
                return Err(EspError::SchemaMismatch(format!(
                    "value {v} ({}) does not inhabit field '{}: {}'",
                    v.type_name(),
                    f.name,
                    f.data_type
                )));
            }
        }
        Ok(Tuple {
            schema,
            values: values.into(),
            ts,
        })
    }

    /// Construct without validation. For operator internals that produce
    /// values already known to match (projections, aggregates).
    pub fn new_unchecked(schema: Arc<Schema>, ts: Ts, values: Vec<Value>) -> Tuple {
        debug_assert_eq!(values.len(), schema.len());
        Tuple {
            schema,
            values: values.into(),
            ts,
        }
    }

    /// [`Tuple::new_unchecked`] over values already in their shared
    /// form, so a caller that collects a row straight into an `Arc`
    /// allocates it once.
    pub(crate) fn from_shared(schema: Arc<Schema>, ts: Ts, values: Arc<[Value]>) -> Tuple {
        debug_assert_eq!(values.len(), schema.len());
        Tuple { schema, values, ts }
    }

    /// The tuple's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The logical timestamp of the reading.
    pub fn ts(&self) -> Ts {
        self.ts
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at field index `i`.
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Value of the field called `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.schema.index_of(name).map(|i| &self.values[i])
    }

    /// Value of the field called `name`, or an error.
    pub fn require(&self, name: &str) -> Result<&Value> {
        self.get(name)
            .ok_or_else(|| EspError::UnknownField(name.to_string()))
    }

    /// A copy of this tuple restamped at `ts` (used when an aggregate emits
    /// its result at the epoch boundary rather than at input time).
    pub fn restamped(&self, ts: Ts) -> Tuple {
        Tuple {
            schema: Arc::clone(&self.schema),
            values: Arc::clone(&self.values),
            ts,
        }
    }

    /// A new tuple with `field_name = value` appended. The schema is
    /// extended (or `extended_schema` reused when supplied, avoiding
    /// per-tuple schema allocation on hot paths).
    pub fn with_appended(&self, extended_schema: &Arc<Schema>, value: Value) -> Result<Tuple> {
        if extended_schema.len() != self.schema.len() + 1 {
            return Err(EspError::SchemaMismatch(format!(
                "extended schema {extended_schema} does not extend {} by one field",
                self.schema
            )));
        }
        let mut values = Vec::with_capacity(self.values.len() + 1);
        values.extend_from_slice(&self.values);
        values.push(value);
        Ok(Tuple {
            schema: Arc::clone(extended_schema),
            values: values.into(),
            ts: self.ts,
        })
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {{", self.ts)?;
        for (i, (fld, v)) in self
            .schema
            .fields()
            .iter()
            .zip(self.values.iter())
            .enumerate()
        {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", fld.name, v)?;
        }
        write!(f, "}}")
    }
}

/// Ergonomic construction of a [`Tuple`] by field name.
///
/// ```
/// use esp_types::{DataType, Schema, Ts, TupleBuilder, Value};
/// let schema = Schema::builder()
///     .field("tag_id", DataType::Str)
///     .field("shelf", DataType::Int)
///     .build()
///     .unwrap();
/// let t = TupleBuilder::new(&schema, Ts::from_secs(1))
///     .set("tag_id", "tag-7").unwrap()
///     .set("shelf", 0i64).unwrap()
///     .build()
///     .unwrap();
/// assert_eq!(t.get("shelf"), Some(&Value::Int(0)));
/// ```
pub struct TupleBuilder {
    schema: Arc<Schema>,
    values: Vec<Value>,
    ts: Ts,
}

impl TupleBuilder {
    /// Start a tuple against `schema` at logical time `ts`. All fields
    /// default to NULL.
    pub fn new(schema: &Arc<Schema>, ts: Ts) -> TupleBuilder {
        TupleBuilder {
            schema: Arc::clone(schema),
            values: vec![Value::Null; schema.len()],
            ts,
        }
    }

    /// Set field `name`.
    pub fn set(mut self, name: &str, value: impl Into<Value>) -> Result<TupleBuilder> {
        let i = self.schema.require(name)?;
        self.values[i] = value.into();
        Ok(self)
    }

    /// Finish, validating types.
    pub fn build(self) -> Result<Tuple> {
        Tuple::new(self.schema, self.ts, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Field};

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .field("tag_id", DataType::Str)
            .field("count", DataType::Int)
            .build()
            .unwrap()
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = Tuple::new(schema(), Ts::ZERO, vec![Value::str("t")]).unwrap_err();
        assert!(matches!(err, EspError::SchemaMismatch(_)));
    }

    #[test]
    fn type_mismatch_rejected_with_field_name() {
        let err = Tuple::new(schema(), Ts::ZERO, vec![Value::Int(1), Value::Int(1)]).unwrap_err();
        assert!(err.to_string().contains("tag_id"));
    }

    #[test]
    fn nulls_admitted_everywhere() {
        let t = Tuple::new(schema(), Ts::ZERO, vec![Value::Null, Value::Null]).unwrap();
        assert!(t.value(0).is_null());
    }

    #[test]
    fn get_and_require() {
        let t = Tuple::new(
            schema(),
            Ts::from_secs(2),
            vec![Value::str("a"), Value::Int(3)],
        )
        .unwrap();
        assert_eq!(t.get("count"), Some(&Value::Int(3)));
        assert!(t.get("missing").is_none());
        assert!(t.require("missing").is_err());
        assert_eq!(t.ts(), Ts::from_secs(2));
    }

    #[test]
    fn restamp_shares_values() {
        let t = Tuple::new(schema(), Ts::ZERO, vec![Value::str("a"), Value::Int(3)]).unwrap();
        let r = t.restamped(Ts::from_secs(9));
        assert_eq!(r.ts(), Ts::from_secs(9));
        assert_eq!(r.values(), t.values());
        assert!(Arc::ptr_eq(&t.values, &r.values));
    }

    #[test]
    fn with_appended_extends() {
        let t = Tuple::new(schema(), Ts::ZERO, vec![Value::str("a"), Value::Int(3)]).unwrap();
        let ext = schema()
            .with_field(Field::new("spatial_granule", DataType::Str))
            .unwrap();
        let t2 = t.with_appended(&ext, Value::str("shelf0")).unwrap();
        assert_eq!(t2.get("spatial_granule"), Some(&Value::str("shelf0")));
        assert_eq!(t2.ts(), t.ts());
        // Wrong target schema is rejected.
        assert!(t.with_appended(&schema(), Value::Null).is_err());
    }

    #[test]
    fn builder_defaults_to_null() {
        let t = TupleBuilder::new(&schema(), Ts::ZERO).build().unwrap();
        assert!(t.value(0).is_null() && t.value(1).is_null());
    }

    #[test]
    fn builder_unknown_field_errors() {
        assert!(TupleBuilder::new(&schema(), Ts::ZERO)
            .set("bogus", 1i64)
            .is_err());
    }

    #[test]
    fn display_shows_fields() {
        let t = Tuple::new(
            schema(),
            Ts::from_secs(1),
            vec![Value::str("a"), Value::Int(3)],
        )
        .unwrap();
        let s = t.to_string();
        assert!(s.contains("tag_id: 'a'") && s.contains("count: 3"));
    }
}
