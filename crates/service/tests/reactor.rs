//! Reactor-core integration tests over real loopback sockets: request
//! ids and out-of-order pipelining, streamed batch framing, byte-level
//! compatibility for id-less clients, reads of bursts and EOFs,
//! invalid-request accounting, and a 64-connection soak with exact
//! connection/request bookkeeping.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use serde::Deserialize;
use vcsched_obs::{MetricValue, Snapshot};
use vcsched_service::{serve, Client, Request, Response, ServerHandle, ServiceConfig};

fn small_server(jobs: usize, queue: usize) -> ServerHandle {
    serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        jobs,
        queue_capacity: queue,
        cache_shards: 4,
        max_request_bytes: 8 * 1024,
        ..ServiceConfig::default()
    })
    .expect("server starts")
}

fn batch_request(stream: bool) -> Request {
    Request::Batch {
        bench: "130.li".into(),
        count: 6,
        seed: 3,
        machine: "2c".into(),
        policies: None,
        portfolio: Some(false),
        steps: Some(5_000),
        budget_bytes: None,
        early_cancel: None,
        adaptive: None,
        stream,
        deadline_ms: None,
        priority: None,
    }
}

/// Reads the server's invalid-request counter through the `metrics`
/// verb.
fn invalid_requests(client: &mut Client) -> u64 {
    let Response::Metrics { metrics } = client.request(&Request::Metrics).expect("metrics") else {
        panic!("expected metrics reply");
    };
    let snapshot = Snapshot::from_value(&metrics).expect("snapshot parses");
    snapshot
        .metrics
        .iter()
        .find(|m| m.name == "service_invalid_requests_total")
        .map(|m| match &m.value {
            MetricValue::Counter(n) => *n,
            other => panic!("unexpected metric kind: {other:?}"),
        })
        .unwrap_or(0)
}

/// Id'd requests pipeline: replies carry the id back and may complete
/// out of order, so a fast request is not stuck behind a slow one.
#[test]
fn pipelined_ids_complete_out_of_order() {
    let server = small_server(2, 8);
    let mut client = Client::connect(server.addr()).expect("connect");

    // One slow ping, one fast ping, one inline stats — sent
    // back-to-back without reading. The slow ping must come back last.
    // The fast ping still takes 150 ms on the pool: at 0 ms it could
    // finish before the reactor had even read the stats line, and
    // overtake it on a loaded host.
    client
        .send(
            &Request::Ping {
                delay_ms: 600,
                priority: None,
            },
            Some(1),
        )
        .expect("send slow ping");
    client
        .send(
            &Request::Ping {
                delay_ms: 150,
                priority: None,
            },
            Some(2),
        )
        .expect("send fast ping");
    client.send(&Request::Stats, Some(3)).expect("send stats");

    let (id, first) = client.recv().expect("first reply");
    assert_eq!(id, Some(3), "inline stats overtakes both pings");
    assert!(matches!(first, Response::Stats(_)));
    let (id, second) = client.recv().expect("second reply");
    assert_eq!(id, Some(2), "the fast ping overtakes the slow one");
    assert!(matches!(second, Response::Pong { delay_ms: 150 }));
    let (id, third) = client.recv().expect("third reply");
    assert_eq!(id, Some(1));
    assert!(matches!(third, Response::Pong { delay_ms: 600 }));

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// Id-less pipelined requests keep the legacy contract: one reply line
/// per request, in request order, even when later requests finish
/// first on the pool.
#[test]
fn idless_pipelining_preserves_request_order() {
    let server = small_server(2, 8);
    let mut client = Client::connect(server.addr()).expect("connect");

    client
        .send(
            &Request::Ping {
                delay_ms: 500,
                priority: None,
            },
            None,
        )
        .expect("send slow ping");
    client.send(&Request::Stats, None).expect("send stats");

    // The stats reply is computed immediately but must be held until
    // the slow ping's slot emits.
    let (id, first) = client.recv().expect("first reply");
    assert_eq!(id, None);
    assert!(
        matches!(first, Response::Pong { delay_ms: 500 }),
        "id-less replies must arrive in request order, got {first:?}"
    );
    let (id, second) = client.recv().expect("second reply");
    assert_eq!(id, None);
    assert!(matches!(second, Response::Stats(_)));

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// A client that never sends ids sees byte-identical replies to the
/// pre-id protocol: no `id` key, same field order.
#[test]
fn legacy_idless_replies_are_byte_identical() {
    let server = small_server(1, 4);
    let mut client = Client::connect(server.addr()).expect("connect");

    let raw = client
        .request_raw(r#"{"type":"ping","delay_ms":0}"#)
        .expect("pong");
    assert_eq!(raw, r#"{"ok":true,"type":"pong","delay_ms":0}"#);

    let raw = client.request_raw(r#"{"type":"shutdown"}"#).expect("bye");
    assert_eq!(raw, r#"{"ok":true,"type":"bye"}"#);
    server.join();
}

/// The reactor reads a connection in 4 KiB chunks and stops at a short
/// read: a pipelined burst several chunks long still gets every reply,
/// in request order, pool work (parked at a high priority) and inline
/// work interleaved.
#[test]
fn pipelined_burst_larger_than_a_read_chunk_gets_every_reply_in_order() {
    const PAIRS: usize = 150;
    let server = small_server(1, 2);
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let burst =
        "{\"type\":\"ping\",\"delay_ms\":0,\"priority\":3}\n{\"type\":\"stats\"}\n".repeat(PAIRS);
    assert!(burst.len() > 2 * 4096, "{} bytes", burst.len());
    raw.write_all(burst.as_bytes()).expect("send burst");
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    for i in 0..2 * PAIRS {
        line.clear();
        reader.read_line(&mut line).expect("reply");
        let want = if i % 2 == 0 {
            r#""type":"pong""#
        } else {
            r#""type":"stats""#
        };
        assert!(line.contains(want), "reply {i}: {line}");
    }
    drop(reader);
    drop(raw);
    let mut client = Client::connect(server.addr()).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// A client that half-closes right after its last request still gets
/// every reply, and then the server closes the connection: the EOF
/// behind the requests is seen on a later readiness pass.
#[test]
fn eof_right_after_the_last_request_closes_cleanly() {
    let server = small_server(1, 4);
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(b"{\"type\":\"ping\",\"delay_ms\":20}\n{\"type\":\"stats\"}\n")
        .expect("send");
    raw.shutdown(Shutdown::Write).expect("half-close");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut replies = String::new();
    raw.read_to_string(&mut replies)
        .expect("replies, then EOF from the server");
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), 2, "{replies}");
    assert_eq!(lines[0], r#"{"ok":true,"type":"pong","delay_ms":20}"#);
    assert!(lines[1].contains(r#""type":"stats""#), "{}", lines[1]);
    // Closed on the server side too: only the new client is open.
    let mut client = Client::connect(server.addr()).expect("connect");
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected stats");
    };
    assert_eq!(stats.connections_open, 1, "{stats:?}");
    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// A streamed batch sends one `block` frame per solved block — all
/// tagged with the batch's id, indices in corpus order — before the
/// summary frame, and the summary's scheduling results are identical
/// to a plain (unstreamed) batch of the same corpus.
#[test]
fn streamed_batch_frames_precede_an_identical_summary() {
    let server = small_server(2, 16);
    let mut client = Client::connect(server.addr()).expect("connect");

    // Plain batch first: the reference summary (and a warm cache, so
    // the streamed run below reports cached blocks).
    let Response::Batch { summary: plain } =
        client.request(&batch_request(false)).expect("plain batch")
    else {
        panic!("expected batch summary");
    };

    client
        .send(&batch_request(true), Some(9))
        .expect("send streamed batch");
    let mut frames = Vec::new();
    let streamed = loop {
        let (id, response) = client.recv().expect("frame");
        assert_eq!(id, Some(9), "every frame carries the batch id");
        match response {
            Response::Block(frame) => frames.push(frame),
            Response::Batch { summary } => break summary,
            other => panic!("unexpected frame {other:?}"),
        }
    };

    let indices: Vec<usize> = frames.iter().map(|f| f.index).collect();
    assert_eq!(indices, vec![0, 1, 2, 3, 4, 5], "corpus order");
    assert!(
        frames.iter().all(|f| f.cached),
        "second run over the same corpus is served from cache"
    );
    assert!(frames.iter().all(|f| f.awct > 0.0));

    // The streamed summary matches the plain one on everything the
    // scheduler decided (wall-clock and cache counters legitimately
    // differ between the two runs).
    for key in [
        "corpus",
        "machine",
        "blocks",
        "wins",
        "vc_timeouts",
        "aggregate_awct",
        "total_weighted_cycles",
        "policies",
    ] {
        assert_eq!(
            streamed.get(key),
            plain.get(key),
            "summary field `{key}` must not change with streaming"
        );
    }
    let winners: Vec<&str> = frames.iter().map(|f| f.winner.as_str()).collect();
    assert!(!winners.is_empty());

    // stream:true without an id is a protocol error, not a hang.
    let raw = client
        .request_raw(
            r#"{"type":"batch","bench":"130.li","count":2,"seed":3,"machine":"2c","stream":true}"#,
        )
        .expect("error reply");
    assert!(raw.contains("streaming batches need a request id"), "{raw}");

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// All three rejection paths — non-UTF-8 lines, oversized lines, and
/// parse failures — count toward `service_invalid_requests_total`,
/// exactly once each.
#[test]
fn every_rejection_path_counts_an_invalid_request() {
    let server = small_server(1, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(invalid_requests(&mut client), 0);

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();

    // 1. Not UTF-8: error reply, connection survives.
    raw.write_all(b"\xff\xfe junk \xff\n").expect("send");
    reader.read_line(&mut line).expect("reply");
    assert!(line.contains("UTF-8"), "{line}");

    // 2. Parse failure: error reply, connection survives.
    line.clear();
    raw.write_all(b"{not json\n").expect("send");
    reader.read_line(&mut line).expect("reply");
    assert!(line.contains("invalid request"), "{line}");

    // 3. Oversized line (no newline until past the cap): error reply,
    // connection closed.
    let junk = vec![b'x'; 16 * 1024];
    raw.write_all(&junk).expect("send");
    raw.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).expect("reply");
    assert!(line.contains("exceeds"), "{line}");

    assert_eq!(
        invalid_requests(&mut client),
        3,
        "each rejection path must count once"
    );

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// 64 concurrent connections ping through one reactor thread; `stats`
/// accounts for every connection and every admitted probe exactly.
#[test]
fn soak_64_connections_with_exact_accounting() {
    const CONNS: usize = 64;
    const PINGS: u64 = 3;
    let server = serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 4,
        queue_capacity: 256,
        cache_shards: 4,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // Every worker pings, then holds its connection open across the
    // first barrier (so stats sees all 65) until the second releases.
    let pinged = Arc::new(Barrier::new(CONNS + 1));
    let release = Arc::new(Barrier::new(CONNS + 1));
    let workers: Vec<_> = (0..CONNS)
        .map(|_| {
            let pinged = Arc::clone(&pinged);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for _ in 0..PINGS {
                    let pong = c
                        .request(&Request::Ping {
                            delay_ms: 0,
                            priority: None,
                        })
                        .expect("pong");
                    assert!(matches!(pong, Response::Pong { delay_ms: 0 }));
                }
                pinged.wait();
                release.wait();
            })
        })
        .collect();

    let mut client = Client::connect(addr).expect("connect");
    pinged.wait();
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected stats");
    };
    assert_eq!(stats.connections_open, CONNS as u64 + 1, "{stats:?}");
    assert_eq!(stats.connections_total, CONNS as u64 + 1, "{stats:?}");
    assert_eq!(stats.accepted, CONNS as u64 * PINGS, "every probe admitted");
    assert_eq!(stats.rejected, 0, "queue 256 never saturates");
    // The worker's completed-counter increment can trail the last
    // reply by a beat; every probe's reply has been received already.
    assert!(stats.completed + 4 >= CONNS as u64 * PINGS, "{stats:?}");
    release.wait();
    for w in workers {
        w.join().expect("worker");
    }

    // After the soak clients hang up, the reactor retires their
    // connections; only this stats client remains.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
            panic!("expected stats");
        };
        if stats.connections_open == 1 {
            assert_eq!(stats.connections_total, CONNS as u64 + 1);
            assert_eq!(stats.completed, CONNS as u64 * PINGS);
            break;
        }
        assert!(Instant::now() < deadline, "connections never retired");
        std::thread::sleep(Duration::from_millis(10));
    }

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}
