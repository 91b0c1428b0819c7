//! Field spaces and typed field values.

use crate::ids::FieldId;
use crate::instance::FieldStore;
use std::fmt;

/// The element type of a field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FieldKind {
    /// 64-bit float.
    F64,
    /// 32-bit float.
    F32,
    /// 64-bit signed integer (also used for pointer fields — indices into
    /// another region, as the circuit app's wire endpoints).
    I64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit unsigned integer.
    U64,
    /// 32-bit unsigned integer.
    U32,
}

impl FieldKind {
    /// Size of one element in bytes (drives data-movement costs).
    pub fn size(self) -> u64 {
        match self {
            FieldKind::F64 | FieldKind::I64 | FieldKind::U64 => 8,
            FieldKind::F32 | FieldKind::I32 | FieldKind::U32 => 4,
        }
    }
}

/// Description of a field space: an ordered set of named, typed fields.
#[derive(Clone, Debug, Default)]
pub struct FieldSpaceDesc {
    fields: Vec<(FieldId, FieldKind, String)>,
}

impl FieldSpaceDesc {
    /// An empty field space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a field, returning its id (ids are dense from 0).
    pub fn add(&mut self, name: &str, kind: FieldKind) -> FieldId {
        assert!(
            !self.fields.iter().any(|(_, _, n)| n == name),
            "duplicate field name {name:?}"
        );
        let id = FieldId(self.fields.len() as u32);
        self.fields.push((id, kind, name.to_string()));
        id
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True iff there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The kind of a field.
    pub fn kind(&self, field: FieldId) -> FieldKind {
        self.fields[field.0 as usize].1
    }

    /// The name of a field.
    pub fn name(&self, field: FieldId) -> &str {
        &self.fields[field.0 as usize].2
    }

    /// Iterate `(id, kind)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, FieldKind)> + '_ {
        self.fields.iter().map(|(id, kind, _)| (*id, *kind))
    }
}

impl fmt::Display for FieldSpaceDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (id, kind, name)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}:{kind:?}({id})")?;
        }
        write!(f, "}}")
    }
}

/// A scalar type storable in a field.
///
/// Implemented for the primitive types matching [`FieldKind`]; provides the
/// typed view into a [`FieldStore`].
pub trait FieldValue: Copy + Default + PartialEq + Send + Sync + 'static {
    /// The matching field kind.
    const KIND: FieldKind;

    /// Allocate a store of `len` default values.
    fn new_store(len: usize) -> FieldStore;
    /// Typed view of a store.
    ///
    /// # Panics
    /// Panics on kind mismatch.
    fn slice(store: &FieldStore) -> &[Self];
    /// Typed mutable view of a store.
    ///
    /// # Panics
    /// Panics on kind mismatch.
    fn slice_mut(store: &mut FieldStore) -> &mut [Self];
}

macro_rules! field_value {
    ($ty:ty, $kind:ident, $variant:ident) => {
        impl FieldValue for $ty {
            const KIND: FieldKind = FieldKind::$kind;

            fn new_store(len: usize) -> FieldStore {
                FieldStore::$variant(vec![<$ty>::default(); len])
            }

            fn slice(store: &FieldStore) -> &[Self] {
                match store {
                    FieldStore::$variant(v) => v,
                    other => panic!(
                        concat!("field kind mismatch: wanted ", stringify!($kind), ", store is {:?}"),
                        other.kind()
                    ),
                }
            }

            fn slice_mut(store: &mut FieldStore) -> &mut [Self] {
                match store {
                    FieldStore::$variant(v) => v,
                    other => panic!(
                        concat!("field kind mismatch: wanted ", stringify!($kind), ", store is {:?}"),
                        other.kind()
                    ),
                }
            }
        }
    };
}

field_value!(f64, F64, F64);
field_value!(f32, F32, F32);
field_value!(i64, I64, I64);
field_value!(i32, I32, I32);
field_value!(u64, U64, U64);
field_value!(u32, U32, U32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_space_basics() {
        let mut fs = FieldSpaceDesc::new();
        let a = fs.add("voltage", FieldKind::F64);
        let b = fs.add("charge", FieldKind::F32);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs.kind(a), FieldKind::F64);
        assert_eq!(fs.name(b), "charge");
        assert_eq!(fs.name(a), "voltage");
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_names_rejected() {
        let mut fs = FieldSpaceDesc::new();
        fs.add("x", FieldKind::F64);
        fs.add("x", FieldKind::F32);
    }

    #[test]
    fn typed_store_roundtrip() {
        let mut store = f64::new_store(4);
        f64::slice_mut(&mut store)[2] = 7.5;
        assert_eq!(f64::slice(&store), &[0.0, 0.0, 7.5, 0.0]);
        assert_eq!(store.kind(), FieldKind::F64);
        assert_eq!(store.len(), 4);
    }

    #[test]
    #[should_panic(expected = "field kind mismatch")]
    fn kind_mismatch_panics() {
        let store = f64::new_store(1);
        let _ = i64::slice(&store);
    }

    #[test]
    fn kind_sizes() {
        assert_eq!(FieldKind::F64.size(), 8);
        assert_eq!(FieldKind::U32.size(), 4);
    }
}
