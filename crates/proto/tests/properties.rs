//! Property-based tests for the wire formats.

use odx_proto::cookie::{percent_decode, percent_encode};
use odx_proto::http::{Method, Request, Response};
use odx_proto::Json;
use proptest::prelude::*;

/// Strategy for arbitrary JSON values of bounded depth.
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1e12f64..1e12).prop_map(Json::Num),
        "[a-zA-Z0-9 _\\-\u{00e9}\u{65cb}\"\\\\\n\t]{0,24}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            prop::collection::btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Json::Obj),
        ]
    })
}

proptest! {
    /// Serialize → parse is the identity for every JSON value.
    #[test]
    fn json_round_trips(v in arb_json()) {
        let text = v.to_string_compact();
        let parsed = Json::parse(&text).expect("own output parses");
        prop_assert_eq!(parsed, v);
    }

    /// The parser never panics on arbitrary input (it may error).
    #[test]
    fn json_parser_is_total(input in "\\PC{0,256}") {
        let _ = Json::parse(&input);
    }

    /// Percent-encoding round-trips arbitrary UTF-8.
    #[test]
    fn percent_round_trips(s in "\\PC{0,128}") {
        let enc = percent_encode(&s);
        let dec = percent_decode(&enc);
        prop_assert_eq!(dec.as_deref(), Some(s.as_str()));
        // The encoded form is cookie-safe.
        prop_assert!(enc.bytes().all(|b| b.is_ascii_alphanumeric()
            || matches!(b, b'-' | b'_' | b'.' | b'~' | b'%')));
    }

    /// HTTP requests round-trip through the wire format for arbitrary
    /// bodies and header values.
    #[test]
    fn http_request_round_trips(
        body in prop::collection::vec(any::<u8>(), 0..512),
        host in "[a-z0-9.\\-]{1,32}",
        post in any::<bool>(),
    ) {
        let req = Request {
            method: if post { Method::Post } else { Method::Get },
            target: "/decide".into(),
            headers: vec![("host".into(), host.clone())],
            body: body.clone(),
        };
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();
        let parsed = Request::read_from(&wire[..]).unwrap().expect("request present");
        prop_assert_eq!(parsed.method, req.method);
        prop_assert_eq!(parsed.header("host"), Some(host.as_str()));
        prop_assert_eq!(&parsed.body[..], &body[..]);
    }

    /// The HTTP parser never panics on arbitrary bytes.
    #[test]
    fn http_parser_is_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::read_from(&bytes[..]);
    }

    /// The response parser never panics on arbitrary bytes.
    #[test]
    fn http_response_parser_is_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Response::read_from(&bytes[..]);
    }

    /// HTTP responses round-trip status, content type, extra headers and
    /// body through the wire format.
    #[test]
    fn http_response_round_trips(
        body in prop::collection::vec(any::<u8>(), 0..512),
        status in 100u16..600,
        cookie in "[a-zA-Z0-9=%;]{1,32}",
    ) {
        let resp = Response { status, body: body.clone(), ..Response::text("") }
            .with_header("set-cookie", cookie.clone());
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let parsed = Response::read_from(&wire[..]).expect("own output parses");
        prop_assert_eq!(parsed.status, status);
        prop_assert_eq!(&parsed.content_type[..], "text/plain");
        let set_cookie: Vec<&str> = parsed
            .extra_headers
            .iter()
            .filter(|(n, _)| n == "set-cookie")
            .map(|(_, v)| v.as_str())
            .collect();
        prop_assert_eq!(set_cookie, vec![cookie.as_str()]);
        prop_assert_eq!(&parsed.body[..], &body[..]);
    }
}
