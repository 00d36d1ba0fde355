//! The bench binaries answer malformed input with a message and a
//! non-zero exit code — never an abort. A 200k-deep `[[[…]]]` document
//! once overflowed the JSON reader's stack (exit 134, no message), and
//! an out-of-range fault-plan target was silently retargeted; both now
//! surface as errors. The deep document is generated here rather than
//! checked in.

use proptest::prelude::*;
use red_bench::minijson::parse;
use std::path::PathBuf;
use std::process::{Command, Output};

/// `len` seeded bytes, half of them drawn from JSON's structural
/// alphabet so the parser gets past the first byte — including into
/// deep `[`/`{` runs — and half from the full byte range.
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"[]{}[[{{\",:0123456789-+.eEtrufalsn \\u\n";
    let mut state = seed;
    (0..len)
        .map(|_| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if z & 1 == 0 {
                ALPHABET[(z >> 8) as usize % ALPHABET.len()]
            } else {
                (z >> 8) as u8
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The JSON reader never panics or aborts: any byte string, read
    /// lossily as UTF-8, parses or comes back as an error.
    #[test]
    fn minijson_never_panics_on_arbitrary_bytes(seed in any::<u64>(), len in 0usize..4096) {
        let bytes = seeded_bytes(seed, len);
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse(&text);
        // The same bytes behind an unclosed deep prefix.
        let deep = format!("{}{text}", "[".repeat(len * 64));
        prop_assert!(parse(&deep).is_err());
    }
}

/// A scratch file under the integration-test temp dir.
fn scratch(name: &str, contents: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).expect("the temp dir is writable");
    path
}

/// Asserts the run failed cleanly: a non-zero exit code that is not a
/// signal-style abort, and `needle` in its standard error.
fn assert_clean_failure(what: &str, out: &Output, needle: &str) {
    let code = out.status.code();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        matches!(code, Some(c) if c != 0 && c != 134 && c != 101),
        "{what}: expected a clean non-zero exit, got {code:?}; stderr: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{what}: stderr must contain {needle:?}, got: {stderr}"
    );
}

#[test]
fn json_readers_reject_malformed_documents_with_a_message() {
    let depth = 200_000;
    let deep = scratch(
        "deep.json",
        &format!("{}{}", "[".repeat(depth), "]".repeat(depth)),
    );
    let truncated = scratch("truncated.json", "{\"traceEvents\": [{\"ph\": \"X\"");
    let garbage = scratch("garbage.json", "\u{1}not json at all");
    for (doc, needle) in [
        (&deep, "nesting deeper than"),
        (&truncated, "expected"),
        (&garbage, "malformed number"),
    ] {
        let name = doc.file_name().unwrap().to_string_lossy().into_owned();
        let out = Command::new(env!("CARGO_BIN_EXE_tracecheck"))
            .arg(doc)
            .output()
            .unwrap();
        assert_clean_failure(&format!("tracecheck {name}"), &out, needle);
        let out = Command::new(env!("CARGO_BIN_EXE_benchdiff"))
            .arg(doc)
            .arg(doc)
            .output()
            .unwrap();
        assert_clean_failure(&format!("benchdiff {name}"), &out, needle);
        let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
            .arg(doc)
            .arg(doc)
            .output()
            .unwrap();
        assert_clean_failure(&format!("analyze {name}"), &out, needle);
    }
}

#[test]
fn loadgen_rejects_an_out_of_range_fault_target() {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--model-only",
            "--stream",
            "--requests",
            "2000",
            "--replicas",
            "2",
            "--fault-plan",
            "crash:10:99:7",
        ])
        .output()
        .unwrap();
    assert_clean_failure(
        "loadgen --fault-plan crash:10:99:7",
        &out,
        "fault-plan event 0 (crash) targets partition 99",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--model-only",
            "--stream",
            "--requests",
            "2000",
            "--replicas",
            "2",
            "--fault-plan",
            "stall:10:0:2:5",
        ])
        .output()
        .unwrap();
    assert_clean_failure(
        "loadgen --fault-plan stall:10:0:2:5",
        &out,
        "targets replica 2 of partition 0, which provisions 2 replica(s)",
    );
}
