//! The codec's contract, one edge case per row: what each value is written
//! as, what each input reads back as, and which inputs are rejected.

use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, to_string_pretty};
use std::collections::BTreeMap;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair {
    a: u32,
    b: Option<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Triple(u8, i64, f64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Point,
    Circle(f64),
    Rect { w: u32, h: u32 },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Tree {
    Leaf,
    Node(Vec<Tree>),
}

fn err<T: Deserialize + std::fmt::Debug>(json: &str) -> String {
    match from_str::<T>(json) {
        Ok(v) => panic!("{json:?} must be rejected, read {v:?}"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn floats_write_and_read_back_exactly() {
    let rows: &[(f64, &str)] = &[
        (1.0, "1.0"),
        (-0.0, "-0.0"),
        (0.1, "0.1"),
        (-2.5e-8, "-0.000000025"),
        (999_999_999_999_999.0, "999999999999999.0"),
        (1e15, "1000000000000000"),
    ];
    for &(f, json) in rows {
        assert_eq!(to_string(&f).unwrap(), json);
        assert_eq!(
            from_str::<f64>(json).unwrap().to_bits(),
            f.to_bits(),
            "{json}"
        );
    }
    // past 1e15, Display's digits without an exponent
    let wide = format!("28479602678411194{}", "0".repeat(148));
    assert_eq!(to_string(&2.8479602678411194e164).unwrap(), wide);
    assert_eq!(from_str::<f64>(&wide).unwrap(), 2.8479602678411194e164);
    let big = to_string(&1e300).unwrap();
    assert_eq!(big.len(), 301);
    assert_eq!(from_str::<f64>(&big).unwrap(), 1e300);
    // exponents are read even though they are never written
    assert_eq!(from_str::<f64>("2.5E+3").unwrap(), 2500.0);
    assert_eq!(from_str::<f64>("7").unwrap(), 7.0);
}

#[test]
fn non_finite_floats_are_null_and_read_back_as_nan() {
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(to_string(&f).unwrap(), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }
    assert_eq!(to_string(&vec![f32::NAN, 0.5]).unwrap(), "[null,0.5]");
    // an Option reads null as None, never as NaN
    assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
}

#[test]
fn integers_stay_exact_and_accept_integral_floats() {
    assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert_eq!(to_string(&i128::MIN).unwrap(), i128::MIN.to_string());
    assert_eq!(from_str::<i128>(&i128::MAX.to_string()).unwrap(), i128::MAX);
    assert_eq!(from_str::<u32>("3.0").unwrap(), 3);
    assert_eq!(from_str::<u8>("007").unwrap(), 7);
    assert!(err::<u64>("18446744073709551616").contains("out of range"));
    assert!(err::<u32>("-1").contains("out of range"));
    assert!(err::<u32>("3.5").contains("expected integer"));
    assert!(err::<u32>("\"3\"").contains("expected number"));
    assert!(err::<u32>("-").contains("invalid integer"));
    // past i128 a digit string is a float
    let digits = "9".repeat(40);
    assert_eq!(from_str::<f64>(&digits).unwrap(), 1e40);
}

#[test]
fn strings_escape_exactly_and_decode_every_escape() {
    let s = "q\"b\\n\nr\rt\tc\u{1}\u{1f}/é→🦀\u{7f}";
    let json = to_string(s).unwrap();
    assert_eq!(json, "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001f/é→🦀\u{7f}\"");
    assert_eq!(from_str::<String>(&json).unwrap(), s);
    assert_eq!(
        from_str::<String>(r#""\/\b\fé→x\ud83e""#).unwrap(),
        "/\u{8}\u{c}é→x\u{fffd}"
    );
    assert_eq!(from_str::<char>("\"🦀\"").unwrap(), '🦀');
    assert!(err::<char>("\"ab\"").contains("single-char"));
    assert!(err::<String>(r#""\q""#).contains("bad escape"));
    assert!(err::<String>(r#""\u12""#).contains("escape"));
    assert!(err::<String>("\"open").contains("unterminated"));
}

#[test]
fn structs_skip_unknown_keys_and_name_missing_ones() {
    let json = r#" { "zz" : [1, {"q": null, "r": "\"}"}], "b": null, "a": 5 } "#;
    assert_eq!(from_str::<Pair>(json).unwrap(), Pair { a: 5, b: None });
    assert!(err::<Pair>(r#"{"b":"x"}"#).contains("missing field `a`"));
    assert!(err::<Pair>("[5]").contains("expected `{`"));
    // skipped values are still checked
    assert!(from_str::<Pair>(r#"{"a":1,"zz":[1,]}"#).is_err());
    assert!(from_str::<Pair>(r#"{"a":1,"zz":tru}"#).is_err());
}

/// A key given twice used to resolve to its first occurrence; it is now an
/// error, so a field cannot read differently to two decoders.
#[test]
fn a_duplicate_field_is_rejected() {
    assert!(err::<Pair>(r#"{"a":1,"b":null,"a":2}"#).contains("duplicate field `a`"));
    assert!(err::<std::ops::Range<u32>>(r#"{"start":1,"end":2,"end":3}"#).contains("duplicate"));
}

#[test]
fn enums_are_externally_tagged_and_unit_variants_read_both_forms() {
    assert_eq!(to_string(&Shape::Point).unwrap(), "\"Point\"");
    assert_eq!(to_string(&Shape::Circle(2.0)).unwrap(), "{\"Circle\":2.0}");
    assert_eq!(
        to_string(&Shape::Rect { w: 1, h: 2 }).unwrap(),
        "{\"Rect\":{\"w\":1,\"h\":2}}"
    );
    assert_eq!(from_str::<Shape>("\"Point\"").unwrap(), Shape::Point);
    assert_eq!(from_str::<Shape>("{\"Point\":null}").unwrap(), Shape::Point);
    assert_eq!(
        from_str::<Shape>("{\"Point\":[1,{}]}").unwrap(),
        Shape::Point
    );
    assert_eq!(
        from_str::<Shape>("{\"Circle\":0.5}").unwrap(),
        Shape::Circle(0.5)
    );
    for bad in [
        "\"Circle\"",
        "\"Nope\"",
        "{\"Nope\":1}",
        "{}",
        "{\"Point\":null,\"Circle\":1.0}",
        "7",
    ] {
        assert!(
            err::<Shape>(bad).contains("no variant of Shape matched"),
            "{bad}"
        );
    }
}

#[test]
fn tuples_must_have_their_exact_arity() {
    assert_eq!(to_string(&(1u8, "x")).unwrap(), "[1,\"x\"]");
    assert_eq!(
        from_str::<(u8, String)>("[1,\"x\"]").unwrap(),
        (1, "x".into())
    );
    assert!(err::<(u8, u8)>("[1]").contains("expected 2 elements"));
    assert!(err::<(u8, u8)>("[1,2,3]").contains("expected 2 elements"));
    assert_eq!(to_string(&Triple(1, -2, 0.5)).unwrap(), "[1,-2,0.5]");
    assert!(err::<Triple>("[1,-2]").contains("expected 3 elements"));
    assert!(err::<Triple>("[1,-2,0.5,4]").contains("expected 3 elements"));
}

#[test]
fn trailing_input_is_rejected_and_whitespace_is_not() {
    assert_eq!(from_str::<u32>(" \n\t5\r ").unwrap(), 5);
    assert!(err::<u32>("5 6").contains("trailing input at byte 2"));
    assert!(err::<Vec<u8>>("[1]]").contains("trailing input"));
    assert!(err::<Vec<u8>>("").contains("found end of input"));
}

#[test]
fn map_keys_render_as_strings() {
    let ints: BTreeMap<i32, bool> = [(-1, true), (10, false)].into_iter().collect();
    assert_eq!(to_string(&ints).unwrap(), "{\"-1\":true,\"10\":false}");
    let strs: BTreeMap<String, ()> = [("a\"b".to_string(), ())].into_iter().collect();
    assert_eq!(to_string(&strs).unwrap(), "{\"a\\\"b\":null}");
    let empty: BTreeMap<u8, u8> = BTreeMap::new();
    assert_eq!(to_string(&empty).unwrap(), "{}");
}

#[test]
fn pretty_output_indents_two_spaces_and_keeps_empty_containers_inline() {
    let value = (
        Pair {
            a: 1,
            b: Some("x".into()),
        },
        Vec::<u8>::new(),
        vec![Shape::Point, Shape::Rect { w: 3, h: 4 }],
    );
    assert_eq!(
        to_string_pretty(&value).unwrap(),
        "[\n  {\n    \"a\": 1,\n    \"b\": \"x\"\n  },\n  [],\n  [\n    \"Point\",\n    {\n      \"Rect\": {\n        \"w\": 3,\n        \"h\": 4\n      }\n    }\n  ]\n]"
    );
    assert_eq!(
        to_string(&value).unwrap(),
        "[{\"a\":1,\"b\":\"x\"},[],[\"Point\",{\"Rect\":{\"w\":3,\"h\":4}}]]"
    );
}

/// A hostile document nests far past anything real; reading it must fail
/// with an error, not recurse off the end of the stack. The typed path (a
/// recursive enum) and the skipping path (an unknown key) both stop.
#[test]
fn nesting_past_the_depth_limit_is_an_error() {
    let deep = 200_000;
    let tree = format!(
        "{}\"Leaf\"{}",
        "{\"Node\":[".repeat(deep),
        "]}".repeat(deep)
    );
    assert!(err::<Tree>(&tree).contains("nesting deeper than 128 levels"));
    let skipped = format!("{{\"a\":1,\"zz\":{}", "[".repeat(deep));
    assert!(err::<Pair>(&skipped).contains("nesting deeper than 128 levels"));
    // 64 tree levels are 128 containers: exactly at the limit, and fine
    let ok = format!("{}\"Leaf\"{}", "{\"Node\":[".repeat(64), "]}".repeat(64));
    let mut t = from_str::<Tree>(&ok).unwrap();
    let mut levels = 0;
    while let Tree::Node(mut kids) = t {
        t = kids.pop().unwrap();
        levels += 1;
    }
    assert_eq!(levels, 64);
    let over = format!("{}\"Leaf\"{}", "{\"Node\":[".repeat(65), "]}".repeat(65));
    assert!(from_str::<Tree>(&over).is_err());
}
