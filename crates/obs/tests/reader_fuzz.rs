//! The document reader never panics: whatever string it is handed,
//! `parse_json` and `validate_report` return, with a value or an error.

use gpm_obs::{parse_json, validate_report};
use proptest::prelude::*;

/// A committed report: splicing tokens into it reaches the typed checks
/// that a string of tokens alone never gets past the parser to.
const REPORT: &str = include_str!("../../../ci/service-baseline.report.json");

/// Pieces of JSON: the alphabet one character at a time, a few words and
/// escapes whole, and runs of nesting past the reader's depth cap.
fn arb_token() -> impl Strategy<Value = String> {
    const CHARS: &[u8] = b"[]{}\":,019-.e+aztn\\ \n\t";
    const WORDS: &[&str] = &[
        "\u{e9}",
        "\\u",
        "\\u00e9",
        "\\ud800",
        "\\\"",
        "true",
        "false",
        "null",
        "1e999",
        "-0.5",
        "18446744073709551616",
        "\"schema_version\"",
        "\"count\"",
        "\"queries\"",
    ];
    prop_oneof![
        (0..CHARS.len()).prop_map(|i| char::from(CHARS[i]).to_string()),
        (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
        (100usize..300).prop_map(|n| "[".repeat(n)),
        (100usize..300).prop_map(|n| "{\"a\":".repeat(n)),
        (100usize..300).prop_map(|n| "[1,".repeat(n)),
    ]
}

fn arb_document() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_token(), 0..40).prop_map(|tokens| tokens.concat())
}

/// The committed report with the bytes between two character boundaries
/// replaced by a random document.
fn arb_spliced_report() -> impl Strategy<Value = String> {
    (0..REPORT.len(), 0usize..64, arb_document()).prop_map(|(at, len, insert)| {
        let boundary = |mut i: usize| {
            while !REPORT.is_char_boundary(i) {
                i -= 1;
            }
            i
        };
        let start = boundary(at);
        let end = boundary((at + len).min(REPORT.len()));
        format!("{}{insert}{}", &REPORT[..start], &REPORT[end..])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_strings_parse_or_fail_without_panicking(doc in arb_document()) {
        let _ = parse_json(&doc);
        let _ = validate_report(&doc);
    }

    #[test]
    fn spliced_reports_validate_or_fail_without_panicking(doc in arb_spliced_report()) {
        let _ = parse_json(&doc);
        let _ = validate_report(&doc);
    }
}

#[test]
fn the_committed_report_validates() {
    validate_report(REPORT).expect("the committed report validates");
}
