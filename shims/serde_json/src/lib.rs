//! Offline stand-in for `serde_json`: the entry points over the serde
//! shim's streaming codec. [`to_string`] and [`to_string_pretty`] run a
//! value's `Serialize` impl into a [`serde::Writer`]; [`from_str`] runs a
//! type's `Deserialize` impl over a [`serde::Reader`] and then rejects
//! trailing input. No value tree sits in between.
//!
//! Reading inherits the shim's rules: nesting deeper than
//! [`serde::MAX_DEPTH`] is an error, and an object that names one field
//! twice is rejected instead of letting either occurrence win.

use serde::{Deserialize, Error, Reader, Serialize, Writer};

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::compact();
    value.serialize(&mut w);
    Ok(w.finish())
}

/// Serializes a value to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::pretty();
    value.serialize(&mut w);
    Ok(w.finish())
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multibyte_strings_roundtrip_through_the_bytewise_decoder() {
        // 2-, 3-, and 4-byte code points survive the per-character decoder
        // (which validates only its own bytes, keeping parsing linear)
        let s = "π → 🦀 — ñ\u{1F600}中";
        let json = to_string(s).expect("serialize");
        let back: String = from_str(&json).expect("parse");
        assert_eq!(back, s);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // regression guard for the quadratic re-validation bug: a ~1 MiB
        // string must parse in well under a second even in debug builds
        let s: String = "αβγδε ascii ".repeat(60_000);
        let json = to_string(&s).expect("serialize");
        let t = std::time::Instant::now();
        let back: String = from_str(&json).expect("parse");
        assert_eq!(back.len(), s.len());
        assert!(
            t.elapsed() < std::time::Duration::from_secs(5),
            "string parsing regressed to quadratic: {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn huge_finite_floats_roundtrip_exactly() {
        // Display for f64 prints ≥1e15 magnitudes as bare digit strings
        // (no exponent); parsing must fall back to f64 past i128 range.
        for f in [2.8479602678411194e164_f64, 1e300, -9.9e200, 1.8e19, -4.2e38] {
            let out = to_string(&f).expect("serialize");
            let v = from_str::<f64>(&out).expect("own float output parses");
            assert_eq!(v.to_bits(), f.to_bits(), "{out}");
            assert_eq!(to_string(&v).expect("serialize"), out);
        }
    }
}
