//! Service protocol tests over real loopback sockets: malformed input,
//! oversized requests, queue-full backpressure, cache hits answered on
//! the reactor, the ignored `adaptive` field, and the draining
//! `shutdown` contract.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::{Deserialize, Value};
use vcsched_obs::{MetricValue, Snapshot};
use vcsched_service::protocol::request_value;
use vcsched_service::{
    serve, Client, Request, Response, ScheduleMode, ScheduleReply, ServerHandle, ServiceConfig,
    StatsReply,
};
use vcsched_workload::{benchmark, generate_block, InputSet};

fn small_server(jobs: usize, queue: usize) -> ServerHandle {
    serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        jobs,
        queue_capacity: queue,
        cache_shards: 4,
        max_request_bytes: 64 * 1024,
        ..ServiceConfig::default()
    })
    .expect("server starts")
}

fn block_request(index: u64) -> Request {
    let spec = benchmark("130.li").expect("known benchmark");
    Request::Schedule {
        block: generate_block(&spec, 99, index, InputSet::Ref),
        machine: "2c".into(),
        policies: None,
        mode: Some(ScheduleMode::Single),
        steps: Some(5_000),
        budget_bytes: None,
        early_cancel: None,
        adaptive: None,
        placement_seed: Some(index),
        return_schedule: false,
        deadline_ms: None,
        priority: None,
    }
}

#[test]
fn malformed_json_gets_an_error_and_keeps_the_connection() {
    let server = small_server(2, 8);
    let mut client = Client::connect(server.addr()).expect("connect");

    let raw = client
        .request_raw("{this is not json")
        .expect("error reply");
    let parsed: Response = serde_json::from_str(&raw).expect("error parses");
    match parsed {
        Response::Error {
            error,
            retry_after_ms,
        } => {
            assert!(error.contains("invalid request"), "{error}");
            assert_eq!(retry_after_ms, None, "parse errors carry no backoff");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Valid JSON of the wrong shape is also a clean protocol error.
    let raw = client
        .request_raw(r#"{"type":"frobnicate"}"#)
        .expect("reply");
    assert!(raw.contains("unknown request type"), "{raw}");

    // The connection survives malformed lines: a well-formed request on
    // the same socket still works.
    let response = client.request(&Request::Stats).expect("stats");
    assert!(matches!(response, Response::Stats(_)));

    // A line that is not even UTF-8 gets an error response too (never a
    // silent drop), and the connection stays usable.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(b"\xff\xfe not text \xff\n").expect("send");
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    assert!(line.contains("\"ok\":false"), "{line}");
    assert!(line.contains("UTF-8"), "{line}");
    raw.write_all(b"{\"type\":\"stats\"}\n")
        .expect("send stats");
    line.clear();
    reader.read_line(&mut line).expect("stats response");
    assert!(line.contains("\"ok\":true"), "{line}");

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

#[test]
fn oversized_request_is_rejected_and_connection_closed() {
    let server = small_server(2, 8);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    // Stream far more than max_request_bytes without a newline.
    let junk = vec![b'x'; 80 * 1024];
    stream.write_all(&junk).expect("send oversized");
    stream.flush().unwrap();

    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    assert!(line.contains("\"ok\":false"), "{line}");
    assert!(line.contains("exceeds"), "{line}");

    // After the error the server hangs up. Closing with our unread junk
    // still in its receive buffer surfaces as either EOF or a reset,
    // depending on timing — both mean "terminated".
    let mut rest = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match reader.read_to_end(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "connection must close after an oversized request"),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected EOF or reset, got {e}"),
    }

    // The server itself is still healthy.
    let mut client = Client::connect(server.addr()).expect("reconnect");
    assert!(client.request(&Request::Stats).expect("stats").is_ok());
    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

#[test]
fn saturated_queue_answers_backpressure_with_retry_after() {
    // One worker, one queue slot: deterministic saturation.
    let server = small_server(1, 1);

    // Occupy the worker with a slow ping on its own connection (the
    // response arrives only when the worker wakes up).
    let addr = server.addr();
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.request(&Request::Ping {
            delay_ms: 1_500,
            priority: None,
        })
        .expect("pong")
    });
    std::thread::sleep(Duration::from_millis(300));

    // Fill the single queue slot with a second slow ping.
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.request(&Request::Ping {
            delay_ms: 0,
            priority: None,
        })
        .expect("pong")
    });
    std::thread::sleep(Duration::from_millis(300));

    // Worker busy + queue full: the next request must be shed with a
    // retry hint, not queued.
    let mut client = Client::connect(server.addr()).expect("connect");
    match client
        .request(&Request::Ping {
            delay_ms: 0,
            priority: None,
        })
        .expect("reply")
    {
        Response::Error {
            error,
            retry_after_ms,
        } => {
            assert!(error.contains("queue full"), "{error}");
            let retry = retry_after_ms.expect("backpressure carries retry_after_ms");
            assert!(retry >= 25, "retry_after_ms {retry} too small");
        }
        other => panic!("expected backpressure error, got {other:?}"),
    }

    // Scheduling requests are shed the same way.
    match client.request(&block_request(0)).expect("reply") {
        Response::Error { retry_after_ms, .. } => {
            assert!(retry_after_ms.is_some());
        }
        other => panic!("expected backpressure error, got {other:?}"),
    }

    // The rejections are visible in stats, and the admitted work still
    // completes.
    assert!(matches!(busy.join().expect("busy"), Response::Pong { .. }));
    assert!(matches!(
        queued.join().expect("queued"),
        Response::Pong { .. }
    ));
    match client.request(&Request::Stats).expect("stats") {
        Response::Stats(stats) => {
            assert!(stats.rejected >= 2, "rejections must be counted");
            assert!(stats.completed >= 2, "admitted pings must complete");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let server = small_server(1, 4);
    let addr = server.addr();

    // A slow job is in flight on its own connection.
    let in_flight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.request(&Request::Ping {
            delay_ms: 1_000,
            priority: None,
        })
        .expect("pong")
    });
    std::thread::sleep(Duration::from_millis(200));

    // Shutdown from a second connection acknowledges immediately...
    let mut shutter = Client::connect(addr).expect("connect");
    assert_eq!(
        shutter.request(&Request::Shutdown).expect("bye"),
        Response::Bye
    );

    // ...but the in-flight ping is drained, not dropped.
    assert!(matches!(
        in_flight.join().expect("in-flight"),
        Response::Pong { delay_ms: 1_000 }
    ));

    // join() returns only after listener, connections and pool wound
    // down; afterwards the port no longer accepts work.
    server.join();
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(stream) => {
            // Some platforms accept briefly in the TIME_WAIT window; a
            // closed server must at least not answer.
            let mut s = stream;
            let _ = s.write_all(b"{\"type\":\"stats\"}\n");
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            let mut buf = [0u8; 1];
            !matches!(s.read(&mut buf), Ok(n) if n > 0)
        }
    };
    assert!(refused, "a shut-down server must not serve requests");
}

#[test]
fn schedule_roundtrip_and_cache_hit_through_the_wire() {
    let server = small_server(2, 16);
    let mut client = Client::connect(server.addr()).expect("connect");

    let cold = match client.request(&block_request(7)).expect("reply") {
        Response::Schedule(reply) => reply,
        other => panic!("expected schedule reply, got {other:?}"),
    };
    assert!(!cold.cached);
    assert!(cold.awct > 0.0);

    let warm = match client.request(&block_request(7)).expect("reply") {
        Response::Schedule(reply) => reply,
        other => panic!("expected schedule reply, got {other:?}"),
    };
    assert!(warm.cached, "repeated problem must be served from cache");
    assert_eq!(warm.winner, cold.winner);
    assert_eq!(warm.awct, cold.awct);

    match client.request(&Request::Stats).expect("stats") {
        Response::Stats(stats) => {
            assert_eq!(stats.cache.hits, 1);
            assert_eq!(stats.cache.shards.len(), 4);
            let shard_hits: u64 = stats.cache.shards.iter().map(|s| s.hits).sum();
            assert_eq!(shard_hits, 1, "the hit must be booked on one shard");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

#[test]
fn per_request_policy_sets_and_stats_telemetry() {
    let server = small_server(2, 8);
    let mut client = Client::connect(server.addr()).expect("connect");

    // A baseline-only set: the winner must come from the requested set,
    // and the reply's telemetry must cover exactly its members.
    let spec = benchmark("130.li").expect("known benchmark");
    let subset = Request::Schedule {
        block: generate_block(&spec, 5, 0, InputSet::Ref),
        machine: "2c".into(),
        policies: Some(vec!["uas".into(), "two-phase".into()]),
        mode: None,
        steps: Some(5_000),
        budget_bytes: None,
        early_cancel: None,
        adaptive: None,
        placement_seed: Some(1),
        return_schedule: false,
        deadline_ms: None,
        priority: None,
    };
    let reply = match client.request(&subset).expect("reply") {
        Response::Schedule(reply) => reply,
        other => panic!("expected schedule reply, got {other:?}"),
    };
    assert!(
        reply.winner == "uas" || reply.winner == "two-phase",
        "winner {} not in the requested set",
        reply.winner
    );
    assert_eq!(reply.vc_steps, 0, "vc did not race");
    let raced: Vec<&str> = reply.policies.iter().map(|s| s.policy.as_str()).collect();
    assert_eq!(raced, vec!["uas", "two-phase"]);

    // An unknown policy is a clean protocol error, not a hangup.
    let bogus = Request::Schedule {
        block: generate_block(&spec, 5, 0, InputSet::Ref),
        machine: "2c".into(),
        policies: Some(vec!["warp".into()]),
        mode: None,
        steps: Some(5_000),
        budget_bytes: None,
        early_cancel: None,
        adaptive: None,
        placement_seed: Some(1),
        return_schedule: false,
        deadline_ms: None,
        priority: None,
    };
    match client.request(&bogus).expect("reply") {
        Response::Error { error, .. } => {
            assert!(error.contains("unknown policy `warp`"), "{error}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // The same set spelled as a comma string works through the raw path.
    let raw = client
        .request_raw(
            &serde_json::to_string(&subset)
                .unwrap()
                .replace(r#"["uas","two-phase"]"#, r#""two-phase , uas""#),
        )
        .expect("raw reply");
    assert!(raw.contains(r#""ok":true"#), "{raw}");

    // Lifetime per-policy totals surface in stats.
    match client.request(&Request::Stats).expect("stats") {
        Response::Stats(stats) => {
            let total_wins: u64 = stats.policies.iter().map(|t| t.wins).sum();
            assert_eq!(total_wins, 2, "two solved requests, two wins");
            assert!(stats
                .policies
                .iter()
                .all(|t| t.policy == "uas" || t.policy == "two-phase"));
        }
        other => panic!("expected stats, got {other:?}"),
    }

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// Per-machine default portfolios, end to end: a preset-mapped machine
/// races its own default set, an unmapped one the server-wide default.
#[test]
fn per_machine_default_policy_sets() {
    let server = serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 2,
        queue_capacity: 8,
        cache_shards: 4,
        preset_policies: vec![(
            "4c2".to_owned(),
            vcsched_engine::PolicySet::parse("two-phase,cars").expect("valid set"),
        )],
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    let spec = benchmark("099.go").expect("known benchmark");
    let request = |machine: &str| Request::Schedule {
        block: generate_block(&spec, 17, 4, InputSet::Ref),
        machine: machine.into(),
        policies: None,
        mode: None,
        steps: Some(5_000),
        budget_bytes: None,
        early_cancel: None,
        adaptive: None,
        placement_seed: Some(4),
        return_schedule: false,
        deadline_ms: None,
        priority: None,
    };

    let on_4c2 = schedule(&mut client, &request("4c2"));
    let raced: Vec<&str> = on_4c2.policies.iter().map(|s| s.policy.as_str()).collect();
    assert_eq!(raced, vec!["cars", "two-phase"], "4c2 default portfolio");
    let on_2c = schedule(&mut client, &request("2c"));
    let raced: Vec<&str> = on_2c.policies.iter().map(|s| s.policy.as_str()).collect();
    assert_eq!(raced, vec!["vc", "cars"], "server-wide §6.1 default");

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// `request`'s JSON line with its `adaptive` field dropped (`None`) or
/// set to `Some(b)`.
fn with_adaptive(request: &Request, adaptive: Option<bool>) -> String {
    let Value::Object(mut fields) = request_value(request, None) else {
        panic!("a request is an object");
    };
    fields.retain(|(k, _)| k != "adaptive");
    if let Some(b) = adaptive {
        fields.push(("adaptive".to_owned(), Value::Bool(b)));
    }
    serde_json::to_string(&Value::Object(fields)).expect("request prints")
}

/// A reply line as a value, without the run's `wall_ms`.
fn reply_without_wall_ms(raw: &str) -> Value {
    fn strip(v: &mut Value) {
        if let Value::Object(fields) = v {
            fields.retain(|(k, _)| k != "wall_ms");
            for (_, v) in fields {
                strip(v);
            }
        }
    }
    let mut v: Value = serde_json::from_str(raw).expect("reply parses");
    strip(&mut v);
    v
}

/// `"adaptive"` is accepted on both wires and ignored: on `schedule` and
/// on `batch`, `true` and `false` get the reply the same request gets
/// without the field. A cold `"adaptive": true` schedule is remembered
/// under the problem's own key, so the plain repeat is a hit.
#[test]
fn the_adaptive_field_is_accepted_and_ignored() {
    let server = small_server(2, 16);
    let mut json = Client::connect(server.addr()).expect("connect");
    let mut binary = Client::connect_binary(server.addr()).expect("connect binary");
    let mut portfolio = block_request(31);
    if let Request::Schedule { mode, .. } = &mut portfolio {
        *mode = Some(ScheduleMode::Portfolio);
    }
    let batch = Request::Batch {
        bench: "130.li".into(),
        count: 4,
        seed: 9,
        machine: "2c".into(),
        policies: None,
        portfolio: Some(true),
        steps: Some(5_000),
        budget_bytes: None,
        early_cancel: None,
        adaptive: None,
        stream: false,
        deadline_ms: None,
        priority: None,
    };

    let cold = json
        .request_raw(&with_adaptive(&portfolio, Some(true)))
        .expect("cold reply");
    let plain = json
        .request_raw(&with_adaptive(&portfolio, None))
        .expect("plain reply");
    assert!(cold.contains(r#""cached":false"#), "{cold}");
    assert_eq!(cold.replace(r#""cached":false"#, r#""cached":true"#), plain);
    // Warm the batch's blocks, so every batch below is all hits.
    json.request_raw(&with_adaptive(&batch, None))
        .expect("batch reply");
    let plain_batch = json
        .request_raw(&with_adaptive(&batch, None))
        .expect("batch reply");
    assert!(plain_batch.contains(r#""hit_rate":1.0"#), "{plain_batch}");

    for client in [&mut json, &mut binary] {
        for adaptive in [None, Some(true), Some(false)] {
            let reply = client
                .request_raw(&with_adaptive(&portfolio, adaptive))
                .expect("schedule reply");
            assert_eq!(reply, plain, "schedule, adaptive {adaptive:?}");
            let reply = client
                .request_raw(&with_adaptive(&batch, adaptive))
                .expect("batch reply");
            assert_eq!(
                reply_without_wall_ms(&reply),
                reply_without_wall_ms(&plain_batch),
                "batch, adaptive {adaptive:?}"
            );
        }
    }
    json.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// An older server's `stats` reply carries an `"adaptive"` section; this
/// client skips it and reads everything else.
#[test]
fn a_stats_reply_with_an_adaptive_section_still_parses() {
    let server = small_server(1, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    let line = client.request_raw(r#"{"type":"stats"}"#).expect("stats");
    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
    let current: Response = serde_json::from_str(&line).expect("stats parses");
    let older = line.replacen(
        r#","uptime_ms""#,
        r#","adaptive":{"classes":3,"blocks_observed":9,"narrowed":4,"full_unseen":4,"full_explore":1},"uptime_ms""#,
        1,
    );
    assert_ne!(older, line, "the section went in");
    let parsed: Response = serde_json::from_str(&older).expect("an older stats line parses");
    assert_eq!(parsed, current);
}

fn stats(client: &mut Client) -> StatsReply {
    match client.request(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

fn schedule(client: &mut Client, request: &Request) -> ScheduleReply {
    match client.request(request).expect("reply") {
        Response::Schedule(reply) => reply,
        other => panic!("expected schedule reply, got {other:?}"),
    }
}

/// A cold `schedule`, then a repeat on each wire: the repeats are cache
/// hits answered on the reactor, and every count stays what it was when
/// a worker answered them — one miss, two hits, three admitted and
/// completed jobs, one VC attempt. Looking the key up on the reactor
/// counts no second miss.
#[test]
fn counts_stay_exact_when_the_reactor_answers_hits() {
    let server = small_server(1, 4);
    let mut json = Client::connect(server.addr()).expect("connect");
    let mut binary = Client::connect_binary(server.addr()).expect("connect binary");
    let request = block_request(11);
    let cold = schedule(&mut json, &request);
    assert!(!cold.cached);
    for client in [&mut json, &mut binary] {
        let warm = schedule(client, &request);
        assert!(warm.cached, "a repeat is answered from the cache");
        assert_eq!(
            (warm.winner.as_str(), warm.awct),
            (cold.winner.as_str(), cold.awct)
        );
    }
    let stats = stats(&mut json);
    assert_eq!((stats.cache.misses, stats.cache.hits), (1, 2), "{stats:?}");
    assert_eq!((stats.accepted, stats.completed), (3, 3), "{stats:?}");
    let Response::Metrics { metrics } = json.request(&Request::Metrics).expect("metrics") else {
        panic!("expected metrics");
    };
    let snapshot = Snapshot::from_value(&metrics).expect("snapshot parses");
    let vc_attempts: u64 = snapshot
        .metrics
        .iter()
        .filter(|m| m.name == "vc_attempts_total")
        .map(|m| match m.value {
            MetricValue::Counter(n) => n,
            _ => panic!("vc_attempts_total is a counter: {m:?}"),
        })
        .sum();
    assert_eq!(vc_attempts, 1);
    json.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// With the one worker busy and the one queue slot taken, a cache-hot
/// `schedule` is still answered (from the cache, on the reactor), while
/// a cold one is shed with a backoff hint.
#[test]
fn a_busy_pool_still_answers_cache_hits() {
    let server = small_server(1, 1);
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let hot = block_request(21);
    assert!(!schedule(&mut client, &hot).cached);

    // Occupy the worker, then the queue slot, each confirmed in stats.
    let admitted = stats(&mut client).accepted;
    let mut holders = Vec::new();
    for (delay_ms, queued) in [(1_000, 0), (0, 1)] {
        holders.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.request(&Request::Ping {
                delay_ms,
                priority: None,
            })
            .expect("pong")
        }));
        let want = admitted + holders.len() as u64;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let s = stats(&mut client);
            if s.accepted == want && s.queue_depth == queued {
                break;
            }
            assert!(Instant::now() < deadline, "holder {want} never admitted");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let warm = schedule(&mut client, &hot);
    assert!(warm.cached, "a hit needs no worker");
    match client.request(&block_request(22)).expect("reply") {
        Response::Error {
            error,
            retry_after_ms,
        } => {
            assert!(error.contains("queue full"), "{error}");
            assert!(retry_after_ms.is_some(), "a shed carries a backoff hint");
        }
        other => panic!("expected the cold request to be shed, got {other:?}"),
    }
    for h in holders {
        assert!(matches!(h.join().expect("holder"), Response::Pong { .. }));
    }
    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}
