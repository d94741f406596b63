//! The bundle and status readers never panic: a committed incident
//! bundle or `/status` body with a random span replaced reads back as a
//! document or as an error, whatever the replacement is.

use khuzdul::{read_status, validate_bundle};
use proptest::prelude::*;

const PART_FAILED: &str = include_str!("../../../ci/fixtures/part_failed.bundle.json");
const STALL: &str = include_str!("../../../ci/fixtures/stall.bundle.json");
const STATUS: &str = include_str!("../../../ci/fixtures/status.json");

/// Pieces of JSON: structure one character at a time, and the scalars
/// and keys a typed check reads.
fn arb_token() -> impl Strategy<Value = String> {
    const CHARS: &[u8] = b"[]{}\":,019-.e+az\\ ";
    const WORDS: &[&str] = &[
        "true",
        "false",
        "null",
        "1e999",
        "-1",
        "0.5",
        "18446744073709551616",
        "\"\\ud800\"",
        "\"kind\"",
        "\"stall\"",
        "\"part\"",
        "\"ledger\"",
        "\"per_part\"",
        "\"replicas\"",
        "[[[[[[[[",
    ];
    prop_oneof![
        (0..CHARS.len()).prop_map(|i| char::from(CHARS[i]).to_string()),
        (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
    ]
}

/// `doc` with the bytes between two character boundaries replaced by a
/// random string of tokens.
fn arb_splice(doc: &'static str) -> impl Strategy<Value = String> {
    let insert = prop::collection::vec(arb_token(), 0..16).prop_map(|t| t.concat());
    (0..doc.len(), 0usize..48, insert).prop_map(move |(at, len, insert)| {
        let boundary = |mut i: usize| {
            while !doc.is_char_boundary(i) {
                i -= 1;
            }
            i
        };
        let (start, end) = (boundary(at), boundary((at + len).min(doc.len())));
        format!("{}{insert}{}", &doc[..start], &doc[end..])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn spliced_part_failed_bundles_read_or_fail_without_panicking(doc in arb_splice(PART_FAILED)) {
        let _ = validate_bundle(&doc);
    }

    #[test]
    fn spliced_stall_bundles_read_or_fail_without_panicking(doc in arb_splice(STALL)) {
        let _ = validate_bundle(&doc);
    }

    #[test]
    fn spliced_status_bodies_read_or_fail_without_panicking(doc in arb_splice(STATUS)) {
        let _ = read_status(&doc);
    }
}

#[test]
fn the_committed_documents_read() {
    validate_bundle(PART_FAILED).expect("part_failed bundle");
    validate_bundle(STALL).expect("stall bundle");
    read_status(STATUS).expect("status body");
}
