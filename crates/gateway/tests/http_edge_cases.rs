//! HTTP parser edge cases: requests split at arbitrary syscall
//! boundaries, oversized heads, garbage `Content-Length`, pipelined
//! keep-alive — the wire-level half of the gateway contract.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use h2p_gateway::{HttpError, HttpLimits, Request, RequestParser};
use proptest::prelude::*;

fn parse_all(parser: &mut RequestParser) -> Vec<Request> {
    let mut out = Vec::new();
    while let Ok(Some(req)) = parser.next_request() {
        out.push(req);
    }
    out
}

fn wire(requests: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..requests {
        let body = format!("{{\"n\":{i}}}");
        bytes.extend_from_slice(
            format!(
                "POST /run HTTP/1.1\r\nHost: h2p\r\nX-Seq: {i}\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .as_bytes(),
        );
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The parser's core promise: however the byte stream is chopped
    // into reads, the same requests come out in the same order.
    #[test]
    fn split_reads_reassemble_identically(
        requests in 1usize..=4,
        chunk in 1usize..=64,
        phase in 0usize..=7,
    ) {
        let stream = wire(requests);
        let mut whole = RequestParser::new(HttpLimits::default());
        whole.push(&stream);
        let expected = parse_all(&mut whole);
        prop_assert_eq!(expected.len(), requests);

        let mut split = RequestParser::new(HttpLimits::default());
        let mut got = Vec::new();
        let mut at = 0;
        // First chunk of `phase` bytes, then fixed-size chunks: the
        // phase slides every split point across request boundaries.
        let first = phase.min(stream.len());
        split.push(&stream[..first]);
        got.extend(parse_all(&mut split));
        at += first;
        while at < stream.len() {
            let end = (at + chunk).min(stream.len());
            split.push(&stream[at..end]);
            got.extend(parse_all(&mut split));
            at = end;
        }
        prop_assert_eq!(got, expected);
    }
}

#[test]
fn byte_by_byte_feed_parses_a_request_with_body() {
    let stream = wire(2);
    let mut parser = RequestParser::new(HttpLimits::default());
    let mut got = Vec::new();
    for byte in &stream {
        parser.push(std::slice::from_ref(byte));
        got.extend(parse_all(&mut parser));
    }
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].header("x-seq"), Some("0"));
    assert_eq!(got[1].header("x-seq"), Some("1"));
    assert_eq!(got[1].body, b"{\"n\":1}");
    assert_eq!(parser.buffered(), 0);
}

#[test]
fn pipelined_keep_alive_requests_pop_one_at_a_time() {
    let mut parser = RequestParser::new(HttpLimits::default());
    parser.push(&wire(3));
    let first = parser.next_request().unwrap().expect("first");
    assert_eq!(first.header("x-seq"), Some("0"));
    assert!(first.keep_alive());
    let second = parser.next_request().unwrap().expect("second");
    assert_eq!(second.header("x-seq"), Some("1"));
    let third = parser.next_request().unwrap().expect("third");
    assert_eq!(third.header("x-seq"), Some("2"));
    assert_eq!(parser.next_request().unwrap(), None);
}

#[test]
fn oversized_head_is_rejected_even_before_completion() {
    let limits = HttpLimits {
        max_head_bytes: 256,
        ..HttpLimits::default()
    };
    // Complete-but-huge head.
    let mut parser = RequestParser::new(limits);
    let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(512));
    parser.push(huge.as_bytes());
    assert!(matches!(
        parser.next_request(),
        Err(HttpError::HeadTooLarge { limit: 256 })
    ));

    // Unterminated head that already exceeds the limit: the parser
    // must bail *without* waiting for the blank line (memory bound).
    let mut parser = RequestParser::new(limits);
    parser.push(format!("GET / HTTP/1.1\r\nX-Pad: {}", "a".repeat(512)).as_bytes());
    let err = parser.next_request().expect_err("over limit");
    assert_eq!(err.status(), 431);
}

#[test]
fn oversized_declared_body_is_rejected_up_front() {
    let limits = HttpLimits {
        max_body_bytes: 100,
        ..HttpLimits::default()
    };
    let mut parser = RequestParser::new(limits);
    parser.push(b"POST /run HTTP/1.1\r\nContent-Length: 101\r\n\r\n");
    match parser.next_request() {
        Err(HttpError::BodyTooLarge { declared, limit }) => {
            assert_eq!((declared, limit), (101, 100));
        }
        other => panic!("expected BodyTooLarge, got {other:?}"),
    }
}

#[test]
fn garbage_content_length_is_a_400() {
    for bad in ["abc", "-1", "+3", "1.5", "9999999999999999999999999", ""] {
        let mut parser = RequestParser::new(HttpLimits::default());
        parser.push(format!("POST /run HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n").as_bytes());
        let err = parser.next_request().expect_err(bad);
        assert!(
            matches!(err, HttpError::BadContentLength(_)),
            "{bad:?}: {err:?}"
        );
        assert_eq!(err.status(), 400);
    }
    // Conflicting duplicates are smuggling vectors; reject.
    let mut parser = RequestParser::new(HttpLimits::default());
    parser.push(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n");
    assert!(matches!(
        parser.next_request(),
        Err(HttpError::BadContentLength(_))
    ));
}

#[test]
fn missing_content_length_means_empty_body() {
    let mut parser = RequestParser::new(HttpLimits::default());
    parser.push(b"POST /run HTTP/1.1\r\nHost: x\r\n\r\n");
    let req = parser.next_request().unwrap().expect("complete");
    assert!(req.body.is_empty());
}

#[test]
fn malformed_syntax_maps_to_400() {
    let cases: &[&[u8]] = &[
        b"GARBAGE\r\n\r\n",                           // no method/target/version
        b"GET /\r\n\r\n",                             // missing version
        b"GET / HTTP/1.1 extra\r\n\r\n",              // trailing junk
        b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",     // header without colon
        b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n", // obsolete folding
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", // no TE support
        b"\xff\xfe / HTTP/1.1\r\n\r\n",               // non-UTF-8 head
    ];
    for bytes in cases {
        let mut parser = RequestParser::new(HttpLimits::default());
        parser.push(bytes);
        let err = parser
            .next_request()
            .expect_err(&String::from_utf8_lossy(bytes));
        assert_eq!(
            err.status(),
            400,
            "{:?}: {err:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}

#[test]
fn unsupported_version_maps_to_505() {
    let mut parser = RequestParser::new(HttpLimits::default());
    parser.push(b"GET / HTTP/2.0\r\n\r\n");
    let err = parser.next_request().expect_err("http/2 preface");
    assert!(matches!(err, HttpError::UnsupportedVersion(_)));
    assert_eq!(err.status(), 505);
}

#[test]
fn http10_close_default_and_11_keep_alive_interact_with_pipelining() {
    let mut parser = RequestParser::new(HttpLimits::default());
    parser.push(b"GET /healthz HTTP/1.0\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    let first = parser.next_request().unwrap().expect("first");
    assert!(!first.keep_alive(), "1.0 defaults to close");
    let second = parser.next_request().unwrap().expect("second");
    assert!(!second.keep_alive(), "explicit close wins over 1.1 default");
}
