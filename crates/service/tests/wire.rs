//! Wire-format integration tests: binary `vcsched-frame/v1` framing
//! against the newline-JSON wire.
//!
//! Covers — per the protocol's compatibility contract — a byte-level
//! pin of the legacy JSON wire (so the binary fast path can never
//! perturb existing clients), a proptest-style seeded round-trip of
//! every request and response frame type through both framings, result
//! equivalence for real scheduling work across the two wires, a
//! mixed-framing soak (JSON and binary clients interleaved on one
//! server with exact accounting), and a fair-queuing soak (high
//! priority pings keep flowing while one connection saturates the pool
//! with a streamed batch).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::Deserialize;
use serde_json::Value;
use vcsched_ir::{Superblock, SuperblockBuilder};
use vcsched_obs::{MetricValue, Snapshot};
use vcsched_service::{
    frame,
    protocol::{request_line, request_value, response_line, response_value},
    serve, BlockReply, CacheReply, Client, Request, Response, ScheduleMode, ScheduleReply,
    ServerHandle, ServiceConfig, StatsReply,
};

/// Held by every test that opens binary connections.
/// `service_binary_connections_total` is process-global, so the test that
/// counts its own binary negotiations must not overlap the others.
static BINARY_CLIENTS: Mutex<()> = Mutex::new(());

fn binary_clients() -> MutexGuard<'static, ()> {
    BINARY_CLIENTS.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_server(jobs: usize, queue: usize) -> ServerHandle {
    serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        jobs,
        queue_capacity: queue,
        cache_shards: 4,
        ..ServiceConfig::default()
    })
    .expect("server starts")
}

fn test_block() -> Superblock {
    let mut b = SuperblockBuilder::new("wire");
    let i0 = b.inst(vcsched_arch::OpClass::Int, 1);
    let i1 = b.inst(vcsched_arch::OpClass::Mem, 2);
    let x = b.exit(2, 1.0);
    b.data_dep(i0, i1).data_dep(i1, x);
    b.build().expect("valid block")
}

/// A tiny deterministic generator (xorshift64*) for the seeded
/// round-trip cases — proptest-style coverage without randomness that
/// could differ between runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn opt_u64(&mut self, cap: u64) -> Option<u64> {
        (self.next().is_multiple_of(2)).then(|| self.next() % cap)
    }

    fn opt_bool(&mut self) -> Option<bool> {
        match self.next() % 3 {
            0 => None,
            1 => Some(false),
            _ => Some(true),
        }
    }
}

/// One value, encoded as a binary frame and decoded back, must come out
/// identical — and identical to what the JSON wire would have carried.
fn assert_frame_equivalent(value: &Value) {
    let bytes = frame::encode_frame(value);
    let (decoded, used) = frame::decode_frame(&bytes, 1 << 24)
        .expect("frame decodes")
        .expect("frame is complete");
    assert_eq!(used, bytes.len(), "decode must consume the whole frame");
    assert_eq!(&decoded, value, "binary round-trip must be lossless");
    // The JSON wire's view of the same value: print + parse. Equality
    // here means a binary client and a JSON client see the same tree.
    let json = serde_json::to_string(value).expect("serializes");
    let reparsed: Value = serde_json::from_str(&json).expect("parses");
    assert_eq!(reparsed, decoded, "binary and JSON wires must agree");
}

/// Every request frame type round-trips through the binary framing and
/// agrees with its JSON-wire form, across seeded-random field draws.
#[test]
fn every_request_type_roundtrips_identically_on_both_wires() {
    let mut rng = Rng(0xC60_2007);
    let mut cases: Vec<Request> = vec![Request::Stats, Request::Metrics, Request::Shutdown];
    for _ in 0..48 {
        cases.push(Request::Ping {
            delay_ms: rng.next() % 10_000,
            priority: rng.opt_u64(4).map(|p| p as u8),
        });
        cases.push(Request::Schedule {
            block: test_block(),
            machine: ["2c", "4c1", "4c2", "hetero"][(rng.next() % 4) as usize].to_owned(),
            policies: (rng.next().is_multiple_of(2))
                .then(|| vec!["vc".to_owned(), "cars".to_owned()]),
            mode: match rng.next() % 3 {
                0 => None,
                1 => Some(ScheduleMode::Single),
                _ => Some(ScheduleMode::Portfolio),
            },
            steps: rng.opt_u64(1 << 20),
            budget_bytes: rng.opt_u64(1 << 30),
            early_cancel: rng.opt_bool(),
            adaptive: rng.opt_bool(),
            placement_seed: rng.opt_u64(u64::MAX),
            return_schedule: rng.next().is_multiple_of(2),
            deadline_ms: rng.opt_u64(5_000),
            priority: rng.opt_u64(4).map(|p| p as u8),
        });
        cases.push(Request::Batch {
            bench: "130.li".to_owned(),
            count: (rng.next() % 64) as usize,
            seed: rng.next(),
            machine: "2c".to_owned(),
            policies: None,
            portfolio: rng.opt_bool(),
            steps: rng.opt_u64(1 << 20),
            budget_bytes: None,
            early_cancel: rng.opt_bool(),
            adaptive: rng.opt_bool(),
            stream: rng.next().is_multiple_of(2),
            deadline_ms: rng.opt_u64(5_000),
            priority: rng.opt_u64(4).map(|p| p as u8),
        });
    }
    for (i, request) in cases.iter().enumerate() {
        let id = (i % 3 != 0).then_some(i as u64);
        let value = request_value(request, id);
        assert_frame_equivalent(&value);
        // The JSON line the legacy wire would carry parses back to the
        // same tree the frame encodes.
        let line = request_line(request, id).expect("serializes");
        let from_line: Value = serde_json::from_str(&line).expect("line parses");
        assert_eq!(from_line, value);
    }
}

/// Every response frame type round-trips through the binary framing and
/// agrees with its JSON-wire form.
#[test]
fn every_response_type_roundtrips_identically_on_both_wires() {
    let mut rng = Rng(0x7411);
    let stats = StatsReply {
        jobs: 4,
        queue_capacity: 64,
        queue_depth: 3,
        accepted: 100,
        rejected: 2,
        completed: 97,
        connections_open: 1,
        connections_total: 9,
        policies: Vec::new(),
        cache: CacheReply {
            hits: 10,
            misses: 5,
            hit_rate: 10.0 / 15.0,
            len: 15,
            shards: Vec::new(),
        },
        adaptive: None,
        uptime_ms: 1234,
        latency: Vec::new(),
    };
    let mut cases: Vec<Response> = vec![
        Response::Bye,
        Response::Stats(stats),
        Response::Metrics {
            metrics: serde_json::to_value(&vcsched_obs::global().snapshot()),
        },
        Response::Batch {
            summary: Value::Object(vec![
                ("blocks".to_owned(), Value::UInt(6)),
                ("awct".to_owned(), Value::Float(12.5)),
            ]),
        },
    ];
    for _ in 0..48 {
        cases.push(Response::Pong {
            delay_ms: rng.next() % 10_000,
        });
        cases.push(Response::Error {
            error: format!("error #{}", rng.next() % 100),
            retry_after_ms: rng.opt_u64(1_000),
        });
        cases.push(Response::Block(BlockReply {
            index: (rng.next() % 1_000) as usize,
            winner: ["vc", "cars", "uas", "two-phase-balance"][(rng.next() % 4) as usize]
                .to_owned(),
            awct: (rng.next() % 1_000) as f64 / 8.0,
            cached: rng.next().is_multiple_of(2),
            copies: (rng.next() % 16) as usize,
        }));
        cases.push(Response::Schedule(ScheduleReply {
            winner: "vc".to_owned(),
            awct: (rng.next() % 1_000) as f64 / 4.0,
            vc_steps: rng.next() % 100_000,
            vc_timed_out: rng.next().is_multiple_of(2),
            cached: rng.next().is_multiple_of(2),
            copies: (rng.next() % 8) as usize,
            policies: Vec::new(),
            schedule: None,
            deadline_fired: rng.next().is_multiple_of(2),
        }));
    }
    for (i, response) in cases.iter().enumerate() {
        let id = (i % 2 == 0).then_some(i as u64);
        let value = response_value(response, id);
        assert_frame_equivalent(&value);
        let line = response_line(response, id);
        let from_line: Value = serde_json::from_str(&line).expect("line parses");
        assert_eq!(from_line, value);
    }
}

/// The legacy JSON wire is pinned at the byte level over a real socket:
/// negotiating binary framing for new clients must leave old clients'
/// request and reply bytes exactly as they were.
#[test]
fn legacy_json_wire_stays_byte_identical() {
    let server = small_server(1, 4);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"{\"type\":\"ping\",\"delay_ms\":0}\n")
        .expect("send id-less ping");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply line");
    assert_eq!(reply, "{\"ok\":true,\"type\":\"pong\",\"delay_ms\":0}\n");
    stream
        .write_all(b"{\"type\":\"ping\",\"id\":42,\"delay_ms\":3}\n")
        .expect("send id'd ping");
    reply.clear();
    reader.read_line(&mut reply).expect("reply line");
    assert_eq!(
        reply,
        "{\"ok\":true,\"type\":\"pong\",\"id\":42,\"delay_ms\":3}\n"
    );
    drop(stream);
    server.shutdown();
    server.join();
}

/// The same scheduling work answered over both wires produces the same
/// result — fresh server per wire so cache state cannot differ.
#[test]
fn schedule_results_agree_across_wires() {
    let _serial = binary_clients();
    let request = Request::Schedule {
        block: test_block(),
        machine: "2c".to_owned(),
        policies: None,
        mode: Some(ScheduleMode::Portfolio),
        steps: Some(50_000),
        budget_bytes: None,
        early_cancel: None,
        adaptive: None,
        placement_seed: Some(11),
        return_schedule: true,
        deadline_ms: None,
        priority: None,
    };
    let run = |binary: bool| -> ScheduleReply {
        let server = small_server(2, 8);
        let mut client = if binary {
            Client::connect_binary(server.addr()).expect("connect binary")
        } else {
            Client::connect(server.addr()).expect("connect")
        };
        assert_eq!(client.is_binary(), binary);
        let reply = client.request(&request).expect("schedule");
        client.request(&Request::Shutdown).expect("shutdown");
        server.join();
        match reply {
            Response::Schedule(r) => r,
            other => panic!("expected schedule reply, got {other:?}"),
        }
    };
    let json = run(false);
    let binary = run(true);
    assert_eq!(json.winner, binary.winner);
    assert_eq!(json.awct, binary.awct);
    assert_eq!(json.vc_steps, binary.vc_steps);
    assert_eq!(json.vc_timed_out, binary.vc_timed_out);
    assert_eq!(json.copies, binary.copies);
    assert_eq!(json.schedule, binary.schedule);
}

/// Reads one process-global counter through a client's `metrics` verb.
fn counter(client: &mut Client, name: &str) -> u64 {
    let Response::Metrics { metrics } = client.request(&Request::Metrics).expect("metrics") else {
        panic!("expected metrics reply");
    };
    let snapshot = Snapshot::from_value(&metrics).expect("snapshot parses");
    snapshot
        .metrics
        .iter()
        .find(|m| m.name == name && m.labels.is_empty())
        .map(|m| match &m.value {
            MetricValue::Counter(n) => *n,
            other => panic!("unexpected metric kind: {other:?}"),
        })
        .unwrap_or(0)
}

/// JSON and binary clients interleave on one server: every client gets
/// exactly its own replies (ids echo, payloads match), and the
/// accounting — connections, binary negotiations, per-client reply
/// counts — is exact.
#[test]
fn mixed_framing_clients_interleave_with_exact_accounting() {
    let _serial = binary_clients();
    const CLIENTS: usize = 6; // alternating JSON / binary
    const PINGS: u64 = 25;
    let server = small_server(2, 32);
    let addr = server.addr();
    let mut probe = Client::connect(addr).expect("connect probe");
    let binary_before = counter(&mut probe, "service_binary_connections_total");
    let replies = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let replies = Arc::clone(&replies);
            std::thread::spawn(move || {
                let binary = c % 2 == 1;
                let mut client = if binary {
                    Client::connect_binary(addr).expect("connect binary")
                } else {
                    Client::connect(addr).expect("connect")
                };
                // Pipeline all pings, then collect: replies may come
                // back out of order across the pool, but each must echo
                // its id and its distinctive delay. Priority 3 parks on
                // saturation instead of shedding, so 150 simultaneous
                // pings against a 32-slot queue all eventually serve.
                for i in 0..PINGS {
                    client
                        .send(
                            &Request::Ping {
                                delay_ms: i % 3,
                                priority: Some(3),
                            },
                            Some(c as u64 * 1_000 + i),
                        )
                        .expect("send ping");
                }
                let mut seen = vec![false; PINGS as usize];
                for _ in 0..PINGS {
                    let (id, response) = client.recv().expect("reply");
                    let id = id.expect("id echoes");
                    let i = id - c as u64 * 1_000;
                    assert!(!seen[i as usize], "duplicate reply for id {id}");
                    seen[i as usize] = true;
                    match response {
                        Response::Pong { delay_ms } => assert_eq!(delay_ms, i % 3),
                        other => panic!("expected pong, got {other:?}"),
                    }
                    replies.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    assert_eq!(replies.load(Ordering::Relaxed), CLIENTS as u64 * PINGS);
    let binary_after = counter(&mut probe, "service_binary_connections_total");
    assert_eq!(
        binary_after - binary_before,
        CLIENTS as u64 / 2,
        "every binary client (and nothing else) negotiates the preamble"
    );
    let Response::Stats(stats) = probe.request(&Request::Stats).expect("stats") else {
        panic!("expected stats reply");
    };
    assert_eq!(
        stats.connections_total,
        CLIENTS as u64 + 1,
        "exactly the six soak clients plus this probe connected"
    );
    probe.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// Fair queuing under a saturating batch: one connection streams a
/// batch that keeps the single worker busy end-to-end, while ping
/// clients at priority 2 keep getting served — no ping is shed, every
/// ping completes while the batch is still running, and the batch
/// still finishes.
#[test]
fn pings_keep_flowing_while_a_batch_saturates_the_pool() {
    let _serial = binary_clients();
    const PINGERS: usize = 3;
    const PINGS: u64 = 10;
    let server = small_server(1, 2);
    let addr = server.addr();

    let mut batch_client = Client::connect_binary(addr).expect("connect batch client");
    batch_client
        .send(
            &Request::Batch {
                bench: "099.go".into(),
                count: 32,
                seed: 3,
                machine: "2c".into(),
                policies: None,
                portfolio: Some(false),
                steps: Some(20_000),
                budget_bytes: None,
                early_cancel: None,
                adaptive: None,
                stream: true,
                deadline_ms: None,
                priority: None,
            },
            Some(1),
        )
        .expect("send batch");

    let pingers: Vec<_> = (0..PINGERS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect pinger");
                let mut worst = Duration::ZERO;
                for _ in 0..PINGS {
                    let t0 = Instant::now();
                    match client
                        .request(&Request::Ping {
                            delay_ms: 0,
                            priority: Some(2),
                        })
                        .expect("ping")
                    {
                        Response::Pong { .. } => {}
                        other => panic!("priority-2 ping must never be shed, got {other:?}"),
                    }
                    worst = worst.max(t0.elapsed());
                }
                (PINGS, worst)
            })
        })
        .collect();

    let mut served = 0u64;
    let mut worst = Duration::ZERO;
    for p in pingers {
        let (count, w) = p.join().expect("pinger thread");
        served += count;
        worst = worst.max(w);
    }
    assert_eq!(
        served,
        PINGERS as u64 * PINGS,
        "every ping from every connection must be served"
    );
    // Generous bound — the point is "bounded", not "fast": a starved
    // ping would wait for the entire remaining batch (tens of blocks).
    assert!(
        worst < Duration::from_secs(10),
        "ping latency unbounded under batch load: {worst:?}"
    );

    // The batch still completes: blocks stream in order, summary last.
    let mut blocks = 0usize;
    loop {
        let (id, response) = batch_client.recv().expect("batch frame");
        assert_eq!(id, Some(1));
        match response {
            Response::Block(b) => {
                assert_eq!(b.index, blocks, "blocks stream in corpus order");
                blocks += 1;
            }
            Response::Batch { .. } => break,
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert_eq!(blocks, 32);
    batch_client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// `test_block()` as a wire value with one dependence edited: `dep` is
/// the index into its `deps` (`i0 → i1`, `i1 → x`), set to
/// `from → to`.
fn hostile_block(dep: usize, from: u64, to: u64) -> Value {
    let mut block = serde::Serialize::to_value(&test_block());
    let Value::Object(fields) = &mut block else {
        unreachable!("a block serializes as an object")
    };
    let (_, Value::Array(deps)) = fields.iter_mut().find(|(k, _)| k == "deps").expect("deps")
    else {
        unreachable!("deps serialize as an array")
    };
    let Value::Object(edge) = &mut deps[dep] else {
        unreachable!("a dependence serializes as an object")
    };
    for (k, v) in edge.iter_mut() {
        match k.as_str() {
            "from" => *v = Value::UInt(from),
            "to" => *v = Value::UInt(to),
            _ => {}
        }
    }
    block
}

/// A decoded block runs the builder's checks: a dangling, a self and a
/// backward dependence each end in a typed error reply on either wire,
/// and the server's only worker survives to answer the next request.
#[test]
fn hostile_blocks_get_typed_errors_and_the_pool_survives() {
    let _serial = binary_clients();
    let server = small_server(1, 4);
    let cases = [
        (hostile_block(1, 1, 9), "dependence references missing i9"),
        (hostile_block(0, 0, 0), "self-dependence on i0"),
        (hostile_block(1, 2, 1), "backward dependence i2 -> i1"),
    ];
    for binary in [false, true] {
        let mut client = if binary {
            Client::connect_binary(server.addr()).expect("connect binary")
        } else {
            Client::connect(server.addr()).expect("connect")
        };
        for (block, expected) in &cases {
            let request = serde_json::to_string(&Value::Object(vec![
                ("type".to_owned(), Value::String("schedule".to_owned())),
                ("block".to_owned(), block.clone()),
            ]))
            .expect("serializes");
            let reply = client.request_raw(&request).expect("a reply");
            assert!(
                reply.contains("\"type\":\"error\"") && reply.contains(expected),
                "binary={binary}: expected `{expected}`, got {reply}"
            );
            let pong = client
                .request_raw("{\"type\":\"ping\",\"delay_ms\":0}")
                .expect("a reply");
            assert!(
                pong.contains("\"type\":\"pong\""),
                "binary={binary}: {pong}"
            );
        }
    }
    server.shutdown();
    server.join();
}
