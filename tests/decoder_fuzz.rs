//! Seeded mutation fuzzing of the request decoders, and the typed
//! decoder checked against the tree decoder it stands in for.
//!
//! Valid request lines and binary frames of every request type, and
//! rewrites of them (keys reordered, a key repeated, a key escaped,
//! whitespace added), are truncated, bit-flipped, spliced together, and
//! have bytes inserted or dropped. Each input goes through the server's
//! decode (typed, falling back to the tree) and through the tree alone:
//! both must end in `Ok` or a typed error, and they must agree — the
//! same request and id, or the same error reply bytes. A panic or a
//! disagreement fails the test with the input that caused it.

use proptest::prelude::*;
use serde::Value;
use vcsched::service::frame::{encode_frame, read_frame_as, Version};
use vcsched::service::protocol::{
    decode_request_frame, decode_request_line, read_request, request_line, request_value,
    response_line, tree_request_frame, tree_request_line, Decoded, Invalid, Request, Response,
};
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

/// The reply bytes of a decode: the request's own serialization (a
/// request re-encodes to one line), or the error line the server sends.
fn reply_bytes(decoded: &Decoded) -> String {
    match decoded {
        Ok((request, id)) => request_line(request, *id).expect("requests serialize"),
        Err(Invalid { error, id }) => response_line(
            &Response::Error {
                error: error.clone(),
                retry_after_ms: None,
            },
            *id,
        ),
    }
}

/// The server's decode of a JSON line agrees with the tree's.
fn json_agrees(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    let (server, tree) = (decode_request_line(&text), tree_request_line(&text));
    if server != tree || reply_bytes(&server) != reply_bytes(&tree) {
        return Err(format!(
            "JSON decoders disagree on {text:?}: {server:?} vs {tree:?}"
        ));
    }
    Ok(())
}

/// The server's decode of a binary frame agrees with the tree's.
fn binary_agrees(bytes: &[u8]) -> Result<(), String> {
    let server = decode_request_frame(bytes, Version::V2, 1 << 20);
    let tree = tree_request_frame(bytes, Version::V2, 1 << 20);
    let same_bytes = match (&server, &tree) {
        (Ok(Some((s, _))), Ok(Some((t, _)))) => reply_bytes(s) == reply_bytes(t),
        _ => true,
    };
    if server != tree || !same_bytes {
        return Err(format!(
            "frame decoders disagree on {:?}: {server:?} vs {tree:?}",
            String::from_utf8_lossy(bytes)
        ));
    }
    Ok(())
}

/// Runs `check` on `input`, turning a panic into an error naming the
/// input.
fn survives(
    wire: &str,
    check: fn(&[u8]) -> Result<(), String>,
    input: &[u8],
) -> Result<(), String> {
    std::panic::catch_unwind(|| check(input)).map_err(|_| {
        format!(
            "{wire} decoder panicked on {:?}",
            String::from_utf8_lossy(input)
        )
    })?
}

/// The typed decoder alone on a JSON line: `None` where it refuses.
fn typed_line(text: &str) -> Option<(Request, Option<u64>)> {
    let mut r = serde_json::JsonReader::new(text);
    let decoded = read_request(&mut r).ok()?;
    r.end().ok()?;
    Some(decoded)
}

/// The typed decoder alone on a binary frame: `None` where it refuses.
fn typed_frame(bytes: &[u8]) -> Option<(Request, Option<u64>)> {
    read_frame_as(bytes, Version::V2, 1 << 20, |r| read_request(r))
        .ok()
        .flatten()
        .map(|(decoded, _)| decoded)
}

/// Rewrites of a request's tree: its keys in reverse order, which
/// decodes to the same request on both paths; only its `type`, `id` and
/// `block`, which both paths complete with the defaults; and its first
/// key repeated, which the tree resolves to the first occurrence and the
/// typed decoder refuses.
fn rewrites(value: &Value) -> [Value; 3] {
    let Value::Object(fields) = value else {
        panic!("requests are objects");
    };
    let reversed = fields.iter().rev().cloned().collect();
    let sparse = fields
        .iter()
        .filter(|(k, _)| ["type", "id", "block"].contains(&k.as_str()))
        .cloned()
        .collect();
    let mut repeated = fields.clone();
    repeated.push((fields[0].0.clone(), Value::Bool(true)));
    [reversed, sparse, repeated].map(Value::Object)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_requests_decode_to_ok_or_a_typed_error(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let requests = seeds(&mut g);
        let mut lines: Vec<Vec<u8>> = Vec::new();
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for (request, id) in &requests {
            let value = request_value(request, *id);
            let line = request_line(request, *id).expect("requests serialize");
            // Unmutated, both decoders give back the request.
            let decoded = Ok((request.clone(), *id));
            prop_assert_eq!(&decode_request_line(&line), &decoded);
            let frame = encode_frame(&value);
            let Ok(Some((from_frame, used))) = decode_request_frame(&frame, Version::V2, 1 << 20)
            else {
                panic!("a whole frame decodes");
            };
            prop_assert_eq!(used, frame.len());
            prop_assert_eq!(&from_frame, &decoded);
            // The typed decoder itself reads the compact line, an escaped
            // key, indented text and reordered keys, on both wires; it
            // refuses a repeated key, which the tree answers.
            let escaped = line.replacen("\"type\"", "\"typ\\u0065\"", 1);
            let pretty = serde_json::to_string_pretty(&value).expect("prints");
            let [reversed, sparse, repeated] = rewrites(&value);
            let print = |v: &Value| serde_json::to_string(v).expect("prints");
            let typed = Some((request.clone(), *id));
            for text in [&line, &escaped, &pretty, &print(&reversed)] {
                prop_assert_eq!(&typed_line(text), &typed);
            }
            prop_assert_eq!(typed_frame(&frame), typed.clone());
            prop_assert_eq!(typed_frame(&encode_frame(&reversed)), typed);
            prop_assert!(typed_line(&print(&sparse)).is_some());
            prop_assert_eq!(typed_line(&print(&repeated)), None);
            prop_assert_eq!(typed_frame(&encode_frame(&repeated)), None);
            lines.extend([line, escaped, pretty].map(String::into_bytes));
            for rewrite in [&reversed, &sparse, &repeated] {
                lines.push(print(rewrite).into_bytes());
                frames.push(encode_frame(rewrite));
            }
            frames.push(frame);
        }
        for line in &lines {
            survives("JSON", json_agrees, line)?;
        }
        for frame in &frames {
            survives("binary", binary_agrees, frame)?;
        }
        for _ in 0..24 {
            let (a, b) = (g.below(lines.len()), g.below(lines.len()));
            let mutant = mutate(&mut g, &lines[a], &lines[b]);
            survives("JSON", json_agrees, &mutant)?;
            let (a, b) = (g.below(frames.len()), g.below(frames.len()));
            let mutant = mutate(&mut g, &frames[a], &frames[b]);
            survives("binary", binary_agrees, &mutant)?;
        }
    }
}
