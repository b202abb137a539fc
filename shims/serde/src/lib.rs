//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! this crate provides the small slice of serde's surface the workspace
//! actually uses: `#[derive(Serialize, Deserialize)]` plus the trait pair.
//!
//! The codec **streams**. [`Serialize`] writes JSON text straight into a
//! [`Writer`], and [`Deserialize`] reads straight out of a [`Reader`] over
//! the borrowed input; no intermediate value tree is built on either side.
//! The companion `serde_json` shim is a thin entry point over the two.
//!
//! The data model intentionally mirrors serde's JSON mapping so swapping the
//! real crates back in later is a manifest-only change:
//!
//! * named structs → objects keyed by field name; unknown keys are skipped,
//!   a missing field is an error, and so is a field given twice;
//! * newtype structs → the inner value, transparently;
//! * tuple structs and tuples → arrays of exactly their arity;
//! * unit enum variants → the variant name as a string (the externally
//!   tagged form `{"Variant": …}` is accepted too, its payload ignored);
//! * data-carrying enum variants → externally tagged objects
//!   `{"Variant": payload}`;
//! * `Option` → the value or `null`; non-finite floats → `null`, which
//!   reads back as NaN;
//! * integers are read from integer literals and from integral floats;
//!   digit strings past `i128` read as floats.
//!
//! Reading is bounded: nesting deeper than [`MAX_DEPTH`] arrays and objects
//! is an error, never a stack overflow.

pub use serde_derive::{Deserialize, Serialize};

mod read;
mod write;

use read::Number;
pub use read::{Reader, MAX_DEPTH};
pub use write::Writer;

use std::collections::BTreeMap;
use std::fmt;

/// Serialization / deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` into `w`.
    fn serialize(&self, w: &mut Writer);
}

/// Types that can read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads one value of this type from `r`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// The value of a required object field, or the missing-field error.
pub fn required<T>(slot: Option<T>, name: &str) -> Result<T, Error> {
    slot.ok_or_else(|| Error(format!("missing field `{name}`")))
}

// ---------------------------------------------------------------- integers

macro_rules! impl_int {
    ($write:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, w: &mut Writer) {
                w.$write(*self as $wide);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                match r.number()? {
                    Number::Int(i) => <$t>::try_from(i)
                        .map_err(|_| Error(format!("integer {i} out of range for {}", stringify!($t)))),
                    Number::Float(f) if f.fract() == 0.0 => Ok(f as $t),
                    Number::Float(f) => Err(Error(format!(
                        "expected integer for {}, found {f}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

impl_int!(u64 as u64: u8, u16, u32, u64, usize);
impl_int!(i64 as i64: i8, i16, i32, i64, isize);

impl Serialize for i128 {
    fn serialize(&self, w: &mut Writer) {
        w.i128(*self);
    }
}
impl Deserialize for i128 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.number()? {
            Number::Int(i) => Ok(i),
            Number::Float(f) => Err(Error(format!("expected integer, found {f}"))),
        }
    }
}

// ------------------------------------------------------------------ floats

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, w: &mut Writer) {
                w.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                if r.null()? {
                    return Ok(<$t>::NAN); // non-finite round trip
                }
                Ok(match r.number()? {
                    Number::Float(f) => f as $t,
                    Number::Int(i) => i as $t,
                })
            }
        }
    )*};
}

impl_float!(f32, f64);

// ---------------------------------------------------------------- scalars

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}
impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}
impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.str().map(|s| s.into_owned())
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.str(self.encode_utf8(&mut [0; 4]));
    }
}
impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = r.str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error(format!("expected single-char string, found {s:?}"))),
        }
    }
}

impl Serialize for () {
    fn serialize(&self, w: &mut Writer) {
        w.null();
    }
}
impl Deserialize for () {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null()? {
            Ok(())
        } else {
            Err(Error("expected null".into()))
        }
    }
}

// --------------------------------------------------------------- adapters

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(t) => t.serialize(w),
            None => w.null(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            w.element();
            item.serialize(w);
        }
        w.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        self.as_slice().serialize(w);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_array()?;
        let mut items = Vec::new();
        let mut first = true;
        while r.next_element(&mut first)? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }
}

impl<T: Deserialize> Deserialize for Box<[T]> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Vec::<T>::deserialize(r).map(Vec::into_boxed_slice)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    /// JSON keys are strings: string keys are written as they are, number
    /// keys as their decimal text (floats in `Display` form, so `3.0` is
    /// `"3"`), and any other key as its compact JSON text.
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        for (k, v) in self {
            let mut key = Writer::compact();
            k.serialize(&mut key);
            let mut key = key.finish();
            if !key.starts_with('"') {
                let text = match key.parse::<f64>() {
                    Ok(f) if key.contains(['.', 'e', 'E']) => f.to_string(),
                    _ => key,
                };
                let mut quoted = Writer::compact();
                quoted.str(&text);
                key = quoted.finish();
            }
            key.push(':');
            w.key(&key);
            v.serialize(w);
        }
        w.end_object();
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin_array();
                $(
                    w.element();
                    self.$i.serialize(w);
                )+
                w.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let arity = [$($i),+].len();
                r.begin_array()?;
                let mut first = true;
                let tuple = ($(r.element::<$t>(&mut first, arity)?,)+);
                r.end_tuple(&mut first, arity)?;
                Ok(tuple)
            }
        }
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<T: Serialize> Serialize for std::ops::Range<T> {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        w.key("\"start\":");
        self.start.serialize(w);
        w.key("\"end\":");
        self.end.serialize(w);
        w.end_object();
    }
}
impl<T: Deserialize> Deserialize for std::ops::Range<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut start, mut end) = (None, None);
        r.begin_object()?;
        let mut first = true;
        while let Some(key) = r.next_key(&mut first)? {
            match &*key {
                "start" => r.field(&mut start, "start")?,
                "end" => r.field(&mut end, "end")?,
                _ => r.skip_value()?,
            }
        }
        Ok(required(start, "start")?..required(end, "end")?)
    }
}
