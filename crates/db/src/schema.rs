//! Relation schemas: typed, named columns.

use crate::value::Value;
use crate::{DbError, Result};

/// Column data types. `Geometry` is WKT text with a distinct tag so tools
/// (CSV export, GIS bridges) can recognize spatial columns, mirroring how
/// the paper's PostGIS schema types its `geom` columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    Float,
    Text,
    Bool,
    /// WKT geometry stored as text.
    Geometry,
}

impl ColumnType {
    /// True if `v` is storable in a column of this type. `Null` is allowed
    /// in any nullable column (checked separately).
    fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Float, Value::Int(_)) // ints widen into float columns
                | (ColumnType::Text, Value::Text(_))
                | (ColumnType::Geometry, Value::Text(_))
                | (ColumnType::Bool, Value::Bool(_))
        )
    }

    /// Short tag used in persisted schema headers.
    pub fn tag(&self) -> &'static str {
        match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Text => "text",
            ColumnType::Bool => "bool",
            ColumnType::Geometry => "geom",
        }
    }

    /// Parses a persisted tag back into a type.
    pub fn from_tag(tag: &str) -> Result<Self> {
        match tag {
            "int" => Ok(ColumnType::Int),
            "float" => Ok(ColumnType::Float),
            "text" => Ok(ColumnType::Text),
            "bool" => Ok(ColumnType::Bool),
            "geom" => Ok(ColumnType::Geometry),
            other => Err(DbError::Format(format!(
                "unknown column type tag '{other}'"
            ))),
        }
    }
}

/// One column of a relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    pub fn nullable(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// An ordered set of columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Builds a schema; duplicate column names are a programming error and
    /// panic immediately (schemas are static, defined in code).
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            assert!(seen.insert(c.name.clone()), "duplicate column '{}'", c.name);
        }
        Self { columns }
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
    }

    /// Validates a row against the schema: arity, types, nullability.
    pub fn validate_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::SchemaViolation(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if v.is_null() {
                if !c.nullable {
                    return Err(DbError::SchemaViolation(format!(
                        "null in non-nullable column '{}'",
                        c.name
                    )));
                }
            } else if !c.ty.accepts(v) {
                return Err(DbError::SchemaViolation(format!(
                    "value {v:?} does not fit column '{}' of type {:?}",
                    c.name, c.ty
                )));
            }
        }
        Ok(())
    }
}

/// Builder sugar for the common pattern of many same-shaped columns.
#[macro_export]
macro_rules! relation_schema {
    ( $( $name:literal : $ty:ident $( ? $null:tt )? ),* $(,)? ) => {
        $crate::Schema::new(vec![
            $( relation_schema!(@col $name, $ty $(, $null)?) ),*
        ])
    };
    (@col $name:literal, $ty:ident) => {
        $crate::ColumnDef::new($name, $crate::ColumnType::$ty)
    };
    (@col $name:literal, $ty:ident, $null:tt) => {
        $crate::ColumnDef::nullable($name, $crate::ColumnType::$ty)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Schema {
        Schema::new(vec![
            ColumnDef::new("asn", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::nullable("lat", ColumnType::Float),
            ColumnDef::new("active", ColumnType::Bool),
        ])
    }

    #[test]
    fn index_of_known_and_unknown() {
        let sch = s();
        assert_eq!(sch.index_of("name").unwrap(), 1);
        assert!(matches!(
            sch.index_of("nope"),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn validate_accepts_good_row() {
        let sch = s();
        sch.validate_row(&[
            Value::Int(174),
            Value::text("COGENT-174"),
            Value::Float(40.0),
            Value::Bool(true),
        ])
        .unwrap();
    }

    #[test]
    fn validate_accepts_null_in_nullable() {
        let sch = s();
        sch.validate_row(&[
            Value::Int(1),
            Value::text("x"),
            Value::Null,
            Value::Bool(false),
        ])
        .unwrap();
    }

    #[test]
    fn validate_rejects_null_in_required() {
        let sch = s();
        let err = sch
            .validate_row(&[
                Value::Null,
                Value::text("x"),
                Value::Null,
                Value::Bool(true),
            ])
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaViolation(_)));
    }

    #[test]
    fn validate_rejects_wrong_type_and_arity() {
        let sch = s();
        assert!(sch
            .validate_row(&[
                Value::text("oops"),
                Value::text("x"),
                Value::Null,
                Value::Bool(true)
            ])
            .is_err());
        assert!(sch.validate_row(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn int_widens_into_float_column() {
        let sch = s();
        sch.validate_row(&[
            Value::Int(1),
            Value::text("x"),
            Value::Int(40), // lat column is Float
            Value::Bool(true),
        ])
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_panics() {
        Schema::new(vec![
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("a", ColumnType::Text),
        ]);
    }

    #[test]
    fn type_tags_round_trip() {
        for ty in [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Text,
            ColumnType::Bool,
            ColumnType::Geometry,
        ] {
            assert_eq!(ColumnType::from_tag(ty.tag()).unwrap(), ty);
        }
        assert!(ColumnType::from_tag("blob").is_err());
    }

    #[test]
    fn schema_macro_builds_equivalent_schema() {
        let m = relation_schema! {
            "asn": Int,
            "name": Text,
            "lat": Float?n,
            "active": Bool,
        };
        assert_eq!(m, s());
    }
}
