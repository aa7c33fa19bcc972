//! Observability through the wire: the `metrics` verb, the Prometheus
//! exposition derived from it, the stats reply's latency section, and
//! rejection accounting.
//!
//! Every `engine_*` and `service_*` series belongs to the server that
//! produced it, so each test asserts exact counts against its own
//! server — also with a second server live in the same process.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::Deserialize;
use vcsched_obs::{MetricValue, Snapshot};
use vcsched_service::{
    serve, Client, Request, Response, ScheduleMode, ServerHandle, ServiceConfig, StatsReply,
};
use vcsched_workload::{benchmark, generate_block, InputSet};

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

fn block_request(index: u64) -> Request {
    let spec = benchmark("130.li").expect("known benchmark");
    Request::Schedule {
        block: generate_block(&spec, 42, index, InputSet::Ref),
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

/// A portfolio `schedule` at the given priority.
fn portfolio_request(index: u64, priority: Option<u8>) -> Request {
    let mut request = block_request(index);
    if let Request::Schedule {
        mode, priority: p, ..
    } = &mut request
    {
        *mode = Some(ScheduleMode::Portfolio);
        *p = priority;
    }
    request
}

fn ping(delay_ms: u64, priority: Option<u8>) -> Request {
    Request::Ping { delay_ms, priority }
}

/// This server's snapshot, read through its own `metrics` verb.
fn snapshot(client: &mut Client) -> Snapshot {
    match client.request(&Request::Metrics).expect("reply") {
        Response::Metrics { metrics } => Snapshot::from_value(&metrics).expect("snapshot parses"),
        other => panic!("expected metrics reply, got {other:?}"),
    }
}

fn stats(client: &mut Client) -> StatsReply {
    match client.request(&Request::Stats).expect("reply") {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// A counter's or gauge's value; 0 when the series is absent.
fn value(snapshot: &Snapshot, name: &str, labels: &[(&str, &str)]) -> i64 {
    match snapshot.find(name, labels).map(|m| &m.value) {
        Some(MetricValue::Counter(n)) => *n as i64,
        Some(MetricValue::Gauge(n)) => *n,
        Some(other) => panic!("{name} is a histogram: {other:?}"),
        None => 0,
    }
}

/// A histogram's sample count; 0 when the series is absent.
fn histogram_count(snapshot: &Snapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match snapshot.find(name, labels).map(|m| &m.value) {
        Some(MetricValue::Histogram(h)) => h.count,
        Some(other) => panic!("{name} is not a histogram: {other:?}"),
        None => 0,
    }
}

/// `vc_attempts_total` summed over its `outcome` labels.
fn vc_attempts(snapshot: &Snapshot) -> u64 {
    snapshot
        .metrics
        .iter()
        .filter(|m| m.name == "vc_attempts_total")
        .map(|m| match m.value {
            MetricValue::Counter(n) => n,
            _ => panic!("vc_attempts_total is a counter: {m:?}"),
        })
        .sum()
}

fn latency_count(stats: &StatsReply, ty: &str) -> u64 {
    stats
        .latency
        .iter()
        .find(|l| l.request == ty)
        .unwrap_or_else(|| panic!("latency row for {ty}"))
        .count
}

/// Occupies a 1-worker/1-slot server: a ping holding the worker for
/// `hold_ms`, then a second ping in the queue slot. Returns once `stats`
/// (read through `client`) shows both in place, with both client
/// threads.
fn saturate(
    server: &ServerHandle,
    client: &mut Client,
    hold_ms: u64,
) -> Vec<std::thread::JoinHandle<Response>> {
    let addr = server.addr();
    let admitted = stats(client).accepted;
    let mut holders = Vec::new();
    for (delay_ms, queued) in [(hold_ms, 0), (0, 1)] {
        holders.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.request(&ping(delay_ms, None)).expect("pong")
        }));
        let want = admitted + holders.len() as u64;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let s = stats(client);
            if s.accepted == want && s.queue_depth == queued {
                break;
            }
            assert!(Instant::now() < deadline, "holder {want} never admitted");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    holders
}

fn join_pongs(holders: Vec<std::thread::JoinHandle<Response>>) {
    for h in holders {
        assert!(matches!(h.join().expect("holder"), Response::Pong { .. }));
    }
}

/// Polls this server's metrics until `name` reads `want`.
fn wait_for_value(client: &mut Client, name: &str, want: i64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while value(&snapshot(client), name, &[]) != want {
        assert!(Instant::now() < deadline, "{name} never reached {want}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn metrics_verb_roundtrips_and_renders_prometheus_text() {
    let server = small_server(2, 8);
    let mut client = Client::connect(server.addr()).expect("connect");

    // Generate some traffic so the snapshot is non-trivial.
    assert!(client.request(&block_request(1)).expect("reply").is_ok());
    assert!(client.request(&Request::Stats).expect("reply").is_ok());

    let snapshot = snapshot(&mut client);
    assert!(!snapshot.metrics.is_empty(), "snapshot must not be empty");
    // The service's own dispatch counter carries exactly the requests
    // this test made of this server (the `metrics` request itself is
    // counted at dispatch, before the snapshot is taken).
    for (ty, want) in [("schedule", 1), ("stats", 1), ("metrics", 1), ("ping", 0)] {
        assert_eq!(
            value(&snapshot, "service_requests_total", &[("type", ty)]),
            want,
            "service_requests_total{{type={ty}}}"
        );
    }

    // The exposition derived from the snapshot parses line by line:
    // comments are TYPE headers, samples are `name[{labels}] value`.
    let text = snapshot.to_prometheus_text();
    assert!(!text.trim().is_empty(), "exposition must not be empty");
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            assert!(
                comment.trim_start().starts_with("TYPE "),
                "unexpected comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        if let Some(rest) = series.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "bad label block in: {line}"
                );
            }
        }
        assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
        samples += 1;
    }
    assert!(samples > 0, "exposition must carry samples");
    assert!(
        text.contains("service_requests_total"),
        "service metrics must be exposed"
    );

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

#[test]
fn stats_reply_reports_uptime_and_latency_quantiles() {
    let server = small_server(2, 8);
    let mut client = Client::connect(server.addr()).expect("connect");

    // A schedule/batch mix, then read the latency section.
    assert!(client.request(&block_request(2)).expect("reply").is_ok());
    let batch = Request::Batch {
        bench: "099.go".into(),
        count: 3,
        seed: 11,
        machine: "2c".into(),
        policies: None,
        portfolio: Some(false),
        steps: Some(5_000),
        budget_bytes: None,
        early_cancel: None,
        adaptive: None,
        stream: false,
        deadline_ms: None,
        priority: None,
    };
    assert!(client.request(&batch).expect("reply").is_ok());

    let stats = stats(&mut client);
    assert_eq!(latency_count(&stats, "schedule"), 1, "{:?}", stats.latency);
    assert_eq!(latency_count(&stats, "batch"), 1, "{:?}", stats.latency);
    assert_eq!(latency_count(&stats, "ping"), 0, "{:?}", stats.latency);
    let schedule = stats
        .latency
        .iter()
        .find(|l| l.request == "schedule")
        .expect("schedule row");
    assert!(
        schedule.p50_us <= schedule.p90_us
            && schedule.p90_us <= schedule.p99_us
            && schedule.p99_us <= schedule.p999_us,
        "quantiles must be monotone: {schedule:?}"
    );

    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

#[test]
fn queue_full_rejection_counts_in_the_server_registry() {
    // One worker, one queue slot: deterministic saturation.
    let server = small_server(1, 1);
    let mut client = Client::connect(server.addr()).expect("connect");
    let holders = saturate(&server, &mut client, 1_000);
    match client.request(&ping(0, None)).expect("reply") {
        Response::Error {
            error,
            retry_after_ms,
        } => {
            assert!(error.contains("queue full"), "{error}");
            assert!(
                retry_after_ms.is_some(),
                "the backoff hint must survive the obs wiring"
            );
        }
        other => panic!("expected backpressure error, got {other:?}"),
    }
    let snap = snapshot(&mut client);
    assert_eq!(value(&snap, "service_rejections_total", &[]), 1);
    assert_eq!(value(&snap, "engine_pool_rejected_total", &[]), 1);
    assert_eq!(stats(&mut client).rejected, 1);

    join_pongs(holders);
    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// Every `engine_*` and `service_*` identity (name, labels, kind) the
/// `metrics` verb exposes after [`drive_every_path`], sorted. perfbench,
/// CI and `vcsched top` read these series by name, so none may be
/// added, dropped or retyped without updating this list.
const PINNED_IDENTITIES: &[&str] = &[
    "engine_cache_evictions_total counter",
    "engine_cache_hits_total counter",
    "engine_cache_insertions_total counter",
    "engine_cache_misses_total counter",
    "engine_deadline_misses_total counter",
    "engine_pool_accepted_total counter",
    "engine_pool_busy gauge",
    "engine_pool_completed_total counter",
    "engine_pool_rejected_total counter",
    "engine_preemptions_total counter",
    "engine_queue_depth gauge",
    "engine_queue_wait_us histogram",
    "engine_shed_total counter",
    "engine_slack_ms histogram",
    "engine_solve_us histogram",
    "service_binary_connections_total counter",
    "service_connections gauge",
    "service_fair_queue_parked gauge",
    "service_invalid_requests_total counter",
    "service_reactor_fds gauge",
    "service_reactor_wakeups_total counter",
    "service_reactor_write_buffer_bytes gauge",
    "service_rejections_total counter",
    "service_request_us{type=batch,priority=0} histogram",
    "service_request_us{type=batch,priority=1} histogram",
    "service_request_us{type=batch,priority=2} histogram",
    "service_request_us{type=batch,priority=3} histogram",
    "service_request_us{type=batch} histogram",
    "service_request_us{type=metrics} histogram",
    "service_request_us{type=ping} histogram",
    "service_request_us{type=schedule,priority=0} histogram",
    "service_request_us{type=schedule,priority=1} histogram",
    "service_request_us{type=schedule,priority=2} histogram",
    "service_request_us{type=schedule,priority=3} histogram",
    "service_request_us{type=schedule} histogram",
    "service_request_us{type=shutdown} histogram",
    "service_request_us{type=stats} histogram",
    "service_requests_total{type=batch} counter",
    "service_requests_total{type=metrics} counter",
    "service_requests_total{type=ping} counter",
    "service_requests_total{type=schedule} counter",
    "service_requests_total{type=shutdown} counter",
    "service_requests_total{type=stats} counter",
    "service_slow_reader_closed_total counter",
];

/// Drives every request path that produces an `engine_*` or
/// `service_*` series through a 1-worker/1-slot server whose write
/// buffer cap is 64 KiB.
fn drive_every_path(server: &ServerHandle, client: &mut Client) {
    // A single and two portfolio schedules.
    assert!(client.request(&block_request(1)).expect("reply").is_ok());
    for index in [2, 3] {
        let portfolio = portfolio_request(index, None);
        assert!(client.request(&portfolio).expect("reply").is_ok());
    }
    // A streamed batch.
    client
        .send(
            &Request::Batch {
                bench: "130.li".into(),
                count: 3,
                seed: 5,
                machine: "2c".into(),
                policies: None,
                portfolio: Some(false),
                steps: Some(5_000),
                budget_bytes: None,
                early_cancel: None,
                adaptive: None,
                stream: true,
                deadline_ms: None,
                priority: None,
            },
            Some(7),
        )
        .expect("send batch");
    loop {
        match client.recv().expect("batch frame") {
            (Some(7), Response::Block(_)) => {}
            (Some(7), Response::Batch { .. }) => break,
            other => panic!("unexpected batch frame {other:?}"),
        }
    }
    // A ping with a priority, and a schedule with a deadline.
    assert!(client.request(&ping(0, Some(2))).expect("reply").is_ok());
    let mut deadline = block_request(4);
    if let Request::Schedule {
        deadline_ms,
        priority,
        ..
    } = &mut deadline
    {
        *deadline_ms = Some(60_000);
        *priority = Some(1);
    }
    assert!(client.request(&deadline).expect("reply").is_ok());
    // A queue-full rejection.
    let holders = saturate(server, client, 1_000);
    assert!(matches!(
        client.request(&ping(0, None)).expect("reply"),
        Response::Error { .. }
    ));
    join_pongs(holders);
    // One binary-wire connection.
    let mut binary = Client::connect_binary(server.addr()).expect("connect binary");
    assert!(binary.request(&ping(0, None)).expect("reply").is_ok());
    drop(binary);
    // One invalid line.
    let raw = client.request_raw("{not json").expect("error reply");
    assert!(raw.contains("invalid request"), "{raw}");
    // One slow reader: pipelined `stats` requests whose replies are
    // never read overflow the write-buffer cap in one reactor pass.
    let mut slow = TcpStream::connect(server.addr()).expect("connect slow reader");
    slow.write_all(&b"{\"type\":\"stats\"}\n".repeat(2_000))
        .expect("send stats burst");
    wait_for_value(client, "service_slow_reader_closed_total", 1);
    drop(slow);
}

/// Sorted `name{labels} kind` identities of every `engine_*` and
/// `service_*` series in a snapshot.
fn identities(snapshot: &Snapshot) -> Vec<String> {
    let mut ids: Vec<String> = snapshot
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("engine_") || m.name.starts_with("service_"))
        .map(|m| {
            let labels: Vec<String> = m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            if labels.is_empty() {
                format!("{} {kind}", m.name)
            } else {
                format!("{}{{{}}} {kind}", m.name, labels.join(","))
            }
        })
        .collect();
    ids.sort();
    ids
}

#[test]
fn metrics_exposition_identities_match_the_pinned_list() {
    let server = serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        queue_capacity: 1,
        cache_shards: 4,
        max_write_buffer: 64 << 10,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    drive_every_path(&server, &mut client);
    let got = identities(&snapshot(&mut client));
    assert_eq!(got, PINNED_IDENTITIES, "\n{}", got.join("\n"));
    client.request(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// Two servers live in one process: each one's latency counts, client
/// count, request counters and `vc_*` series describe only its own
/// traffic, and the `vc_*` series count fresh solves only.
#[test]
fn two_live_servers_report_only_their_own_traffic() {
    const COLD: u64 = 3;
    let quiet = small_server(1, 4);
    let busy = small_server(1, 4);
    let mut quiet_client = Client::connect(quiet.addr()).expect("connect quiet");
    let mut busy_client = Client::connect(busy.addr()).expect("connect busy");
    let mut second = Client::connect(busy.addr()).expect("connect busy again");
    for _ in 0..5 {
        assert!(busy_client.request(&ping(0, None)).expect("pong").is_ok());
    }
    assert!(second.request(&ping(0, None)).expect("pong").is_ok());
    // COLD fresh solves, then a repeat the cache answers.
    for index in (0..COLD).chain([0]) {
        let reply = second.request(&block_request(index)).expect("reply");
        assert!(matches!(reply, Response::Schedule(_)), "{reply:?}");
    }

    let quiet_stats = stats(&mut quiet_client);
    assert_eq!(latency_count(&quiet_stats, "ping"), 0);
    assert_eq!(quiet_stats.connections_open, 1);
    let busy_stats = stats(&mut busy_client);
    assert_eq!(latency_count(&busy_stats, "ping"), 6);
    assert_eq!(busy_stats.connections_open, 2);

    let quiet_snap = snapshot(&mut quiet_client);
    assert_eq!(value(&quiet_snap, "service_connections", &[]), 1);
    assert_eq!(
        histogram_count(&quiet_snap, "service_request_us", &[("type", "ping")]),
        0
    );
    assert_eq!(value(&quiet_snap, "engine_pool_completed_total", &[]), 0);
    let busy_snap = snapshot(&mut busy_client);
    assert_eq!(value(&busy_snap, "service_connections", &[]), 2);
    assert_eq!(
        histogram_count(&busy_snap, "service_request_us", &[("type", "ping")]),
        6
    );
    assert_eq!(
        value(&busy_snap, "service_requests_total", &[("type", "ping")]),
        6
    );
    assert_eq!(
        value(&busy_snap, "engine_pool_completed_total", &[]),
        6 + COLD as i64 + 1
    );
    // The repeat is a cache hit the reactor answers: it counts as a
    // completed job and a solve, but it never waited in the queue.
    assert_eq!(
        histogram_count(&busy_snap, "engine_queue_wait_us", &[]),
        6 + COLD
    );
    assert_eq!(
        histogram_count(&busy_snap, "engine_solve_us", &[]),
        COLD + 1
    );
    assert_eq!(vc_attempts(&busy_snap), COLD);
    assert_eq!(histogram_count(&busy_snap, "vc_dp_steps", &[]), COLD);
    let quiet_vc: Vec<_> = quiet_snap
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("vc_"))
        .collect();
    assert!(
        !quiet_vc.is_empty(),
        "the vc_* series are served from start"
    );
    for m in quiet_vc {
        match &m.value {
            MetricValue::Counter(n) => assert_eq!(*n, 0, "{m:?}"),
            MetricValue::Histogram(h) => assert_eq!(h.count, 0, "{m:?}"),
            MetricValue::Gauge(_) => panic!("no vc_* series is a gauge: {m:?}"),
        }
    }

    drop(second);
    quiet_client.request(&Request::Shutdown).expect("shutdown");
    busy_client.request(&Request::Shutdown).expect("shutdown");
    quiet.join();
    busy.join();
}

/// Best-effort schedules are shed at saturation; a priority-2 one parks
/// through it and is solved once the holders complete. Each lands in
/// this server's rejection and latency figures, and a second server
/// live throughout counts none of them.
#[test]
fn shed_and_parked_schedules_count_on_their_own_server() {
    let other = small_server(1, 4);
    let mut other_client = Client::connect(other.addr()).expect("connect other");
    let server = small_server(1, 1);
    let mut client = Client::connect(server.addr()).expect("connect");

    let holders = saturate(&server, &mut client, 1_000);
    for i in 0..6 {
        match client
            .request(&portfolio_request(10 + i, None))
            .expect("reply")
        {
            Response::Error { retry_after_ms, .. } => assert!(retry_after_ms.is_some()),
            other => panic!("expected a shed, got {other:?}"),
        }
    }
    assert_eq!(stats(&mut client).rejected, 6);

    // Parked at saturation, retried as the holders complete, then solved.
    let parked = client
        .request(&portfolio_request(20, Some(2)))
        .expect("reply");
    assert!(
        matches!(parked, Response::Schedule(_)),
        "expected a schedule reply, got {parked:?}"
    );
    join_pongs(holders);
    let snap = snapshot(&mut client);
    assert_eq!(value(&snap, "service_rejections_total", &[]), 6);
    assert_eq!(
        histogram_count(&snap, "service_request_us", &[("type", "schedule")]),
        7
    );
    assert_eq!(
        histogram_count(
            &snap,
            "service_request_us",
            &[("type", "schedule"), ("priority", "2")]
        ),
        1
    );
    let other_snap = snapshot(&mut other_client);
    assert_eq!(value(&other_snap, "service_rejections_total", &[]), 0);
    assert_eq!(
        histogram_count(&other_snap, "service_request_us", &[("type", "schedule")]),
        0
    );

    client.request(&Request::Shutdown).expect("shutdown");
    other_client.request(&Request::Shutdown).expect("shutdown");
    server.join();
    other.join();
}
