//! Serializer/parser round-trip and NaN/Inf rejection tests.

use cbtree_obs::json::{parse_jsonl, write_jsonl, Json, JsonError};

#[test]
fn scalars_round_trip_exactly() {
    let cases = [
        (Json::Null, "null"),
        (Json::Bool(true), "true"),
        (Json::Bool(false), "false"),
        (Json::U64(0), "0"),
        (Json::U64(u64::MAX), "18446744073709551615"),
        (Json::I64(-1), "-1"),
        (Json::I64(i64::MIN), "-9223372036854775808"),
        (Json::Str("hi".into()), "\"hi\""),
    ];
    for (v, text) in cases {
        assert_eq!(v.to_string().unwrap(), text);
        assert_eq!(Json::parse(text).unwrap(), v);
    }
}

#[test]
fn floats_round_trip_bit_exactly() {
    for x in [0.5, 1.0, -2.75, 1e-300, 1e300, 0.1, std::f64::consts::PI] {
        let text = Json::F64(x).to_string().unwrap();
        match Json::parse(&text).unwrap() {
            Json::F64(y) => assert_eq!(x.to_bits(), y.to_bits(), "{text}"),
            // Integral floats print as "1.0" etc. so never collapse to ints.
            other => panic!("{text} parsed as {other:?}"),
        }
    }
}

#[test]
fn nan_and_inf_are_rejected_not_smuggled() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = Json::F64(bad).to_string().unwrap_err();
        assert!(err.0.contains("non-finite"), "{err}");
        // ... even nested deep inside a report-shaped record.
        let rec = Json::obj([(
            "levels",
            Json::arr([Json::obj([("rho_w", Json::F64(bad))])]),
        )]);
        assert!(rec.to_string().is_err());
        // ... and write_jsonl refuses to produce a corrupt artifact.
        let path = std::env::temp_dir().join("cbtree_obs_nan_test.jsonl");
        let err = write_jsonl(&path, &[rec]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
    // The explicit escape hatch maps non-finite to null.
    assert_eq!(Json::f64_or_null(f64::NAN), Json::Null);
    assert_eq!(Json::f64_or_null(2.5), Json::F64(2.5));
}

#[test]
fn nested_structures_round_trip() {
    let v = Json::obj([
        ("type", Json::from("live_report")),
        ("protocol", Json::from("b-link")),
        ("threads", Json::from(16u64)),
        ("rho", Json::from(0.125)),
        (
            "note",
            Json::from("quotes \" and \\ and\nnewlines\tok \u{1} low"),
        ),
        (
            "levels",
            Json::arr([
                Json::obj([("level", Json::from(1u64)), ("rho_w", Json::from(0.5))]),
                Json::Null,
            ]),
        ),
        ("empty_arr", Json::arr([])),
        ("empty_obj", Json::obj([])),
    ]);
    let text = v.to_string().unwrap();
    assert_eq!(Json::parse(&text).unwrap(), v);
}

#[test]
fn parser_accepts_foreign_whitespace_and_escapes() {
    let v = Json::parse(" { \"a\" : [ 1 , -2.5e1 ] , \"s\" : \"\\u0041\\u00e9\" } ").unwrap();
    assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
    assert_eq!(
        v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
        Some(-25.0)
    );
    assert_eq!(v.get("s").unwrap().as_str(), Some("Aé"));
}

#[test]
fn parser_rejects_malformed_input() {
    for bad in [
        "",
        "{",
        "[1,",
        "{\"a\":}",
        "tru",
        "\"unterminated",
        "1 2",
        "nan",
        "Infinity",
        "--1",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
    }
}

#[test]
fn jsonl_skips_blank_lines_and_reports_line_numbers() {
    let recs = parse_jsonl("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
    assert_eq!(recs.len(), 2);
    let JsonError(msg) = parse_jsonl("{\"a\":1}\n{oops}\n").unwrap_err();
    assert!(msg.starts_with("line 2:"), "{msg}");
}

#[test]
fn jsonl_file_round_trip() {
    let path = std::env::temp_dir().join("cbtree_obs_jsonl_test.jsonl");
    let recs = vec![
        Json::obj([("schema", Json::from(1u64))]),
        Json::obj([("x", Json::from(0.25)), ("y", Json::Null)]),
    ];
    write_jsonl(&path, &recs).unwrap();
    assert_eq!(cbtree_obs::read_jsonl(&path).unwrap(), recs);
    let _ = std::fs::remove_file(path);
}

#[test]
fn whole_units_saturate_and_with_appends() {
    let d = std::time::Duration::from_millis(1500);
    assert_eq!(Json::whole(d.as_millis()), Json::U64(1500));
    assert_eq!(Json::whole(d.as_micros()), Json::U64(1_500_000));
    assert_eq!(Json::whole(u128::MAX), Json::U64(u64::MAX));
    let j = Json::obj([("a", Json::from(1u64))]).with("b", Json::Null);
    assert_eq!(j.to_string().unwrap(), r#"{"a":1,"b":null}"#);
}
