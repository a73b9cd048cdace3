//! The derive's field attributes: `rename` both ways, serialize-side
//! `flatten`. The build-time rejections (unknown attributes, `flatten` on
//! a `Deserialize`) are `compile_fail` examples in the crate docs.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Codes {
    #[serde(rename = "404")]
    not_found: u64,
    plain: bool,
}

#[derive(Serialize)]
struct Inner {
    a: u64,
    b: u64,
}

#[derive(Serialize)]
struct Outer {
    first: u64,
    #[serde(flatten)]
    inner: Option<Inner>,
    last: u64,
}

fn map(entries: &[(&str, Value)]) -> Value {
    Value::Map(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

#[test]
fn rename_sets_the_key_on_serialize() {
    let v = Codes {
        not_found: 3,
        plain: true,
    }
    .serialize();
    assert_eq!(
        v,
        map(&[("404", Value::UInt(3)), ("plain", Value::Bool(true))])
    );
}

#[test]
fn rename_reads_the_key_on_deserialize() {
    let v = map(&[("plain", Value::Bool(false)), ("404", Value::UInt(7))]);
    let codes = Codes::deserialize(&v).unwrap();
    assert_eq!(
        codes,
        Codes {
            not_found: 7,
            plain: false
        }
    );
    let by_field_name = map(&[("not_found", Value::UInt(7)), ("plain", Value::Bool(false))]);
    let err = Codes::deserialize(&by_field_name).unwrap_err();
    assert!(err.to_string().contains("missing field `404`"), "{err}");
}

#[test]
fn flatten_of_some_splices_the_keys_in_place() {
    let v = Outer {
        first: 1,
        inner: Some(Inner { a: 2, b: 3 }),
        last: 4,
    }
    .serialize();
    assert_eq!(
        v,
        map(&[
            ("first", Value::UInt(1)),
            ("a", Value::UInt(2)),
            ("b", Value::UInt(3)),
            ("last", Value::UInt(4)),
        ])
    );
}

#[test]
fn flatten_of_none_adds_no_keys() {
    let v = Outer {
        first: 1,
        inner: None,
        last: 4,
    }
    .serialize();
    assert_eq!(
        v,
        map(&[("first", Value::UInt(1)), ("last", Value::UInt(4))])
    );
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
enum Event {
    Hit {
        #[serde(rename = "200")]
        ok: u64,
    },
}

#[test]
fn struct_variants_honor_rename_both_ways() {
    let v = Event::Hit { ok: 5 }.serialize();
    assert_eq!(v, map(&[("Hit", map(&[("200", Value::UInt(5))]))]));
    assert_eq!(Event::deserialize(&v).unwrap(), Event::Hit { ok: 5 });
}
