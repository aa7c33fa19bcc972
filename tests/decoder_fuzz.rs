//! Seeded mutation fuzzing of the request decoders.
//!
//! Valid request lines and binary frames are truncated, bit-flipped,
//! spliced together, and have bytes inserted or dropped; each mutant
//! goes through the decode path the server runs: `from_str::<Value>` (or
//! `decode_frame`), then `envelope_id` and `Request::from_value`. Every
//! step must end in `Ok` or a typed error; a panic fails the test with
//! the input that caused it.

use proptest::prelude::*;
use serde::{Deserialize, Value};
use vcsched::service::frame::{decode_frame, encode_frame};
use vcsched::service::protocol::{envelope_id, request_line, request_value, Request};
use vcsched::workload::{benchmarks, generate_block, InputSet};

/// SplitMix64, seeded by proptest.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Well-formed requests of every type, a generated block in the
/// `schedule` ones.
fn seeds(g: &mut Gen) -> Vec<(Request, Option<u64>)> {
    let specs = benchmarks();
    let spec = &specs[g.below(specs.len())];
    let block = generate_block(spec, g.next() % 50, g.next() % 20, InputSet::Ref);
    vec![
        (
            Request::Schedule {
                block,
                machine: "4c2".to_owned(),
                policies: Some(vec!["vc".to_owned(), "cars".to_owned()]),
                mode: None,
                steps: Some(5_000),
                budget_bytes: None,
                early_cancel: Some(true),
                adaptive: None,
                placement_seed: Some(g.next()),
                return_schedule: true,
                deadline_ms: Some(40),
                priority: Some(2),
            },
            Some(g.next() % 1000),
        ),
        (
            Request::Batch {
                bench: "099.go".to_owned(),
                count: 8,
                seed: 3,
                machine: "2c".to_owned(),
                policies: None,
                portfolio: Some(true),
                steps: None,
                budget_bytes: Some(1 << 20),
                early_cancel: None,
                adaptive: Some(true),
                stream: true,
                deadline_ms: None,
                priority: None,
            },
            None,
        ),
        (Request::Stats, Some(7)),
        (Request::Metrics, None),
        (
            Request::Ping {
                delay_ms: 3,
                priority: Some(1),
            },
            Some(u64::MAX),
        ),
        (Request::Shutdown, None),
    ]
}

/// One mutant of `bytes`, with `other` as the splice donor.
fn mutate(g: &mut Gen, bytes: &[u8], other: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match g.below(5) {
        0 => out.truncate(g.below(bytes.len() + 1)),
        1 => {
            for _ in 0..=g.below(4) {
                if !out.is_empty() {
                    let at = g.below(out.len());
                    out[at] ^= 1 << g.below(8);
                }
            }
        }
        2 => {
            out.truncate(g.below(bytes.len() + 1));
            out.extend_from_slice(&other[g.below(other.len() + 1)..]);
        }
        3 => {
            let at = g.below(out.len() + 1);
            const INSERTS: &[u8] = b"{}[]\",:\\0-9eE.nul\x00\xff\x07\x08\x09";
            out.insert(at, INSERTS[g.below(INSERTS.len())]);
        }
        _ => {
            if !out.is_empty() {
                out.remove(g.below(out.len()));
            }
        }
    }
    out
}

/// The server's post-parse steps on a decoded value.
fn interpret(v: &Value) {
    let _ = envelope_id(v);
    let _ = Request::from_value(v);
}

fn decode_json(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(v) = serde_json::from_str::<Value>(&text) {
        interpret(&v);
    }
}

fn decode_binary(bytes: &[u8]) {
    if let Ok(Some((v, _))) = decode_frame(bytes, 1 << 20) {
        interpret(&v);
    }
}

/// Runs `decode` on `input`, turning a panic into an error naming the
/// input.
fn survives(wire: &str, decode: fn(&[u8]), input: &[u8]) -> Result<(), String> {
    std::panic::catch_unwind(|| decode(input)).map_err(|_| {
        format!(
            "{wire} decoder panicked on {:?}",
            String::from_utf8_lossy(input)
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_requests_decode_to_ok_or_a_typed_error(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let requests = seeds(&mut g);
        let lines: Vec<Vec<u8>> = requests
            .iter()
            .map(|(r, id)| request_line(r, *id).expect("requests serialize").into_bytes())
            .collect();
        let frames: Vec<Vec<u8>> = requests
            .iter()
            .map(|(r, id)| encode_frame(&request_value(r, *id)))
            .collect();
        // The unmutated inputs decode back to their requests.
        for ((request, _), (line, frame)) in requests.iter().zip(lines.iter().zip(&frames)) {
            let v: Value = serde_json::from_str(std::str::from_utf8(line).unwrap()).unwrap();
            prop_assert_eq!(&Request::from_value(&v).unwrap(), request);
            let (v, used) = decode_frame(frame, 1 << 20).unwrap().unwrap();
            prop_assert_eq!(used, frame.len());
            prop_assert_eq!(&Request::from_value(&v).unwrap(), request);
        }
        for _ in 0..24 {
            let (a, b) = (g.below(lines.len()), g.below(lines.len()));
            let mutant = mutate(&mut g, &lines[a], &lines[b]);
            survives("JSON", decode_json, &mutant)?;
            let mutant = mutate(&mut g, &frames[a], &frames[b]);
            survives("binary", decode_binary, &mutant)?;
        }
    }
}
