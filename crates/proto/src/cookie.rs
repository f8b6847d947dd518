//! Cookie handling for the ODR web service.
//!
//! §6.1: "ODR maintains a web cookie at the user side (if her web browser
//! permits), so that the user does not need to repeatedly input the
//! auxiliary information every time." The cookie stores the user's ISP,
//! access bandwidth and AP configuration; subsequent `/decide` calls may
//! omit those fields.

use crate::http::Request;

/// Cookie name carrying the user's auxiliary context.
pub const CONTEXT_COOKIE: &str = "odr_ctx";

/// Parse a `Cookie:` header value into `(name, value)` pairs.
pub fn parse_cookie_header(header: &str) -> Vec<(String, String)> {
    header
        .split(';')
        .filter_map(|pair| {
            let (name, value) = pair.split_once('=')?;
            let name = name.trim();
            if name.is_empty() {
                return None;
            }
            Some((name.to_owned(), value.trim().to_owned()))
        })
        .collect()
}

/// Look up a cookie by name on a request.
pub fn get_cookie(req: &Request, name: &str) -> Option<String> {
    let header = req.header("cookie")?;
    parse_cookie_header(header).into_iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

/// A `Set-Cookie:` header value for the context cookie. The value is
/// percent-encoded so JSON survives the cookie grammar.
pub fn set_context_cookie(json_value: &str) -> String {
    format!("{CONTEXT_COOKIE}={}; Path=/; Max-Age=31536000", percent_encode(json_value))
}

/// Decode a stored context-cookie value back into its JSON text.
pub fn decode_context(value: &str) -> Option<String> {
    percent_decode(value)
}

/// Minimal percent-encoding: everything outside cookie-safe bytes.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Inverse of [`percent_encode`]. `None` on malformed escapes or invalid
/// UTF-8.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 3 > bytes.len() {
                return None;
            }
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;

    fn req_with_cookie(value: &str) -> Request {
        Request {
            method: Method::Get,
            target: "/".into(),
            headers: vec![("cookie".into(), value.into())],
            body: Vec::new(),
        }
    }

    #[test]
    fn parse_multiple_cookies() {
        let pairs = parse_cookie_header("a=1; odr_ctx=xyz;b = 2");
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[1], ("odr_ctx".to_owned(), "xyz".to_owned()));
    }

    #[test]
    fn get_cookie_finds_named_value() {
        let req = req_with_cookie("session=q; odr_ctx=abc%7B");
        assert_eq!(get_cookie(&req, "odr_ctx").as_deref(), Some("abc%7B"));
        assert_eq!(get_cookie(&req, "missing"), None);
    }

    #[test]
    fn percent_round_trip() {
        let json = r#"{"isp":"unicom","access_kbps":400,"旋":"风"}"#;
        let encoded = percent_encode(json);
        assert!(!encoded.contains('{') && !encoded.contains('"'));
        assert_eq!(percent_decode(&encoded).as_deref(), Some(json));
    }

    #[test]
    fn set_cookie_round_trips_through_decode() {
        let header = set_context_cookie(r#"{"a":1}"#);
        let value =
            header.strip_prefix("odr_ctx=").and_then(|rest| rest.split(';').next()).unwrap();
        assert_eq!(decode_context(value).as_deref(), Some(r#"{"a":1}"#));
    }

    #[test]
    fn malformed_escapes_are_rejected() {
        assert_eq!(percent_decode("%zz"), None);
        assert_eq!(percent_decode("%4"), None);
        assert_eq!(percent_decode("ok%20fine").as_deref(), Some("ok fine"));
    }
}
