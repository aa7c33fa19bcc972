//! Byte pins for the wire codecs of the protocol, cache and metrics types.
//!
//! Each line of `tests/fixtures/codec_pins.txt` is `label<TAB>value`:
//!
//! * the JSON line (`request_line`) and the binary frame
//!   (`encode_frame(request_value(..))`, as hex) of every `Request`
//!   variant, with and without an envelope id;
//! * the compact JSON of every `PolicyFallback`, of a `CacheEntry`, and
//!   of a metrics `Snapshot` holding a counter, a gauge and a histogram;
//! * the decoded value of every field that decodes to its default when
//!   absent, when `null` and when present, on the tree path
//!   (`serde_json::from_str`) and on the typed path
//!   (`Deserialize::read` over a `JsonReader`).
//!
//! A codec rewrite must leave every line unchanged. If a change is meant
//! to move these bytes, regenerate with:
//!
//! ```console
//! $ cargo test --test codec_pins regenerate -- --ignored
//! ```
//!
//! and justify the diff in the change description.

use std::fmt::Debug;
use std::path::PathBuf;

use serde::Deserialize;
use vcsched::arch::{ClusterId, OpClass};
use vcsched::engine::{CacheEntry, PolicyFallback, PolicyStat};
use vcsched::ir::{CopyOp, InstId, Schedule, Superblock, SuperblockBuilder};
use vcsched::obs::{Registry, Snapshot};
use vcsched::service::frame::encode_frame;
use vcsched::service::protocol::{request_line, request_value};
use vcsched::service::{LatencyReply, Request, ScheduleMode, ScheduleReply, StatsReply};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/codec_pins.txt")
}

fn block() -> Superblock {
    let mut b = SuperblockBuilder::new("pin");
    let i = b.inst(OpClass::Int, 1);
    let m = b.inst(OpClass::Mem, 2);
    let x = b.exit(1, 0.25);
    let y = b.exit(1, 0.75);
    b.data_dep(i, m)
        .data_dep(i, x)
        .data_dep(m, y)
        .ctrl_dep(x, y);
    b.build().expect("pin block is valid")
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "schedule-none",
            Request::Schedule {
                block: block(),
                machine: "2c".into(),
                policies: None,
                mode: None,
                steps: None,
                budget_bytes: None,
                early_cancel: None,
                adaptive: None,
                placement_seed: None,
                return_schedule: false,
                deadline_ms: None,
                priority: None,
            },
        ),
        (
            "schedule-some",
            Request::Schedule {
                block: block(),
                machine: "4c2".into(),
                policies: Some(vec!["vc".into(), "uas".into()]),
                mode: Some(ScheduleMode::Portfolio),
                steps: Some(5000),
                budget_bytes: Some(1 << 20),
                early_cancel: Some(true),
                adaptive: Some(false),
                placement_seed: Some(99),
                return_schedule: true,
                deadline_ms: Some(250),
                priority: Some(3),
            },
        ),
        (
            "schedule-single",
            Request::Schedule {
                block: block(),
                machine: "4c1".into(),
                policies: None,
                mode: Some(ScheduleMode::Single),
                steps: None,
                budget_bytes: None,
                early_cancel: None,
                adaptive: None,
                placement_seed: None,
                return_schedule: false,
                deadline_ms: None,
                priority: None,
            },
        ),
        (
            "batch-none",
            Request::Batch {
                bench: "099.go".into(),
                count: 100,
                seed: 7,
                machine: "2c".into(),
                policies: None,
                portfolio: None,
                steps: None,
                budget_bytes: None,
                early_cancel: None,
                adaptive: None,
                stream: false,
                deadline_ms: None,
                priority: None,
            },
        ),
        (
            "batch-some",
            Request::Batch {
                bench: "130.li".into(),
                count: 9,
                seed: 3,
                machine: "hetero".into(),
                policies: Some(vec!["cars".into()]),
                portfolio: Some(true),
                steps: Some(300_000),
                budget_bytes: Some(4096),
                early_cancel: Some(false),
                adaptive: Some(true),
                stream: true,
                deadline_ms: Some(40),
                priority: Some(1),
            },
        ),
        ("stats", Request::Stats),
        ("metrics", Request::Metrics),
        (
            "ping",
            Request::Ping {
                delay_ms: 5,
                priority: None,
            },
        ),
        (
            "ping-priority",
            Request::Ping {
                delay_ms: 0,
                priority: Some(2),
            },
        ),
        ("shutdown", Request::Shutdown),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn schedule() -> Schedule {
    Schedule {
        cycles: vec![0, 1, 2, 3],
        clusters: vec![ClusterId(0), ClusterId(1), ClusterId(0), ClusterId(1)],
        copies: vec![CopyOp {
            value: InstId(0),
            from: ClusterId(0),
            to: ClusterId(1),
            cycle: 1,
        }],
    }
}

fn stats() -> Vec<PolicyStat> {
    vec![
        PolicyStat {
            policy: "vc".into(),
            steps: 1234,
            awct: Some(3.5),
            fallback: PolicyFallback::None,
            wall_ms: 2,
        },
        PolicyStat {
            policy: "two-phase".into(),
            steps: 0,
            awct: None,
            fallback: PolicyFallback::GaveUp,
            wall_ms: 0,
        },
    ]
}

fn snapshot() -> Snapshot {
    let r = Registry::new();
    r.counter("requests_total").add(7);
    r.counter_with("wins_total", &[("policy", "vc")]).add(2);
    r.gauge("queue_depth").set(-3);
    let h = r.histogram_with("latency_us", &[("type", "ping")]);
    for v in [1, 5, 40, 900, 900, 70_000] {
        h.record(v);
    }
    r.snapshot()
}

/// The decoded default fields of `line` on both paths, as one pin each.
fn decoded<T: Deserialize, F: Debug>(
    label: &str,
    line: &str,
    fields: impl Fn(&T) -> F,
    out: &mut Vec<(String, String)>,
) {
    let tree: T = serde_json::from_str(line).expect("tree decode");
    out.push((format!("{label} tree"), format!("{:?}", fields(&tree))));
    let mut r = serde_json::JsonReader::new(line);
    let typed = T::read(&mut r).expect("typed decode");
    r.end().expect("one value");
    out.push((format!("{label} typed"), format!("{:?}", fields(&typed))));
}

fn default_field_pins(out: &mut Vec<(String, String)>) {
    let sched = serde_json::to_string(&schedule()).expect("schedule prints");
    let policy_stats = serde_json::to_string(&stats()).expect("stats print");
    let reply_head = format!(
        r#""winner":"vc","awct":3.5,"vc_steps":12,"vc_timed_out":false,"cached":true,"copies":1,"policies":{policy_stats}"#
    );
    for (case, tail) in [
        ("absent", String::new()),
        (
            "null",
            r#","schedule":null,"deadline_fired":null"#.to_owned(),
        ),
        (
            "present",
            format!(r#","schedule":{sched},"deadline_fired":true"#),
        ),
    ] {
        decoded(
            &format!("ScheduleReply {case}"),
            &format!("{{{reply_head}{tail}}}"),
            |r: &ScheduleReply| (r.schedule.clone(), r.deadline_fired),
            out,
        );
    }

    let latency_head =
        r#""request":"schedule","count":3,"p50_us":10,"p90_us":20,"p99_us":30,"p999_us":40"#;
    let by_priority = r#"[{"priority":2,"count":1,"p50_us":5,"p90_us":6,"p99_us":7,"p999_us":8}]"#;
    for (case, tail) in [
        ("absent", String::new()),
        ("null", r#","by_priority":null"#.to_owned()),
        ("present", format!(r#","by_priority":{by_priority}"#)),
    ] {
        decoded(
            &format!("LatencyReply {case}"),
            &format!("{{{latency_head}{tail}}}"),
            |r: &LatencyReply| r.by_priority.clone(),
            out,
        );
    }

    let stats_head = concat!(
        r#""jobs":2,"queue_capacity":8,"queue_depth":0,"accepted":3,"rejected":0,"#,
        r#""completed":3,"policies":[{"policy":"vc","wins":3,"steps":90,"fallbacks":0}],"#,
        r#""cache":{"hits":1,"misses":2,"hit_rate":0.5,"len":2,"#,
        r#""shards":[{"hits":1,"misses":2,"insertions":2,"evictions":0,"len":2}]}"#
    );
    for (case, tail) in [
        ("absent", String::new()),
        (
            "null",
            r#","connections_open":null,"connections_total":null,"uptime_ms":null,"latency":null"#
                .to_owned(),
        ),
        (
            "present",
            format!(
                r#","connections_open":4,"connections_total":11,"uptime_ms":1234,"latency":[{{{latency_head}}}]"#
            ),
        ),
    ] {
        decoded(
            &format!("StatsReply {case}"),
            &format!("{{{stats_head}{tail}}}"),
            |r: &StatsReply| {
                (
                    r.connections_open,
                    r.connections_total,
                    r.uptime_ms,
                    r.latency.clone(),
                )
            },
            out,
        );
    }

    let entry_head = format!(
        r#""key":"00000000000000aa","check":"00000000000000bb","winner":"vc","awct":3.5,"vc_steps":12,"vc_timed_out":false,"schedule":{sched}"#
    );
    for (case, tail) in [
        ("absent", String::new()),
        ("null", r#","stats":null"#.to_owned()),
        ("present", format!(r#","stats":{policy_stats}"#)),
    ] {
        decoded(
            &format!("CacheEntry {case}"),
            &format!("{{{entry_head}{tail}}}"),
            |e: &CacheEntry| e.stats.clone(),
            out,
        );
    }
}

fn pins() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, request) in requests() {
        for id in [None, Some(7)] {
            let tag = match id {
                None => name.to_owned(),
                Some(id) => format!("{name} id={id}"),
            };
            out.push((
                format!("line {tag}"),
                request_line(&request, id).expect("request prints"),
            ));
            out.push((
                format!("frame {tag}"),
                hex(&encode_frame(&request_value(&request, id))),
            ));
        }
    }
    for fallback in [
        PolicyFallback::None,
        PolicyFallback::Budget,
        PolicyFallback::Beaten,
        PolicyFallback::GaveUp,
        PolicyFallback::Deadline,
    ] {
        out.push((
            format!("PolicyFallback::{fallback:?}"),
            serde_json::to_string(&fallback).expect("fallback prints"),
        ));
    }
    let entry = CacheEntry {
        key: format!("{:016x}", 0xaa),
        check: format!("{:016x}", 0xbb),
        winner: "vc".into(),
        awct: 3.5,
        vc_steps: 12,
        vc_timed_out: false,
        schedule: schedule(),
        stats: stats(),
    };
    out.push((
        "CacheEntry".into(),
        serde_json::to_string(&entry).expect("entry prints"),
    ));
    out.push((
        "Snapshot".into(),
        serde_json::to_string(&snapshot()).expect("snapshot prints"),
    ));
    default_field_pins(&mut out);
    out
}

fn render(pins: &[(String, String)]) -> String {
    pins.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect()
}

#[test]
fn codec_bytes_match_the_pins() {
    let want = std::fs::read_to_string(fixture_path()).expect("pin fixture");
    let got = render(&pins());
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "pin line {} moved", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "pin count changed"
    );
}

#[test]
fn pinned_values_round_trip() {
    let entry: CacheEntry = serde_json::from_str(
        render(&pins())
            .lines()
            .find_map(|l| l.strip_prefix("CacheEntry\t"))
            .expect("entry pin"),
    )
    .expect("entry reads back");
    assert_eq!(entry.schedule, schedule());
    assert_eq!(entry.stats, stats());
    let text = serde_json::to_string(&snapshot()).expect("snapshot prints");
    let back: Snapshot = serde_json::from_str(&text).expect("snapshot reads back");
    assert_eq!(back, snapshot());
    for fallback in [PolicyFallback::Budget, PolicyFallback::GaveUp] {
        let text = serde_json::to_string(&fallback).expect("fallback prints");
        assert_eq!(
            serde_json::from_str::<PolicyFallback>(&text).expect("reads back"),
            fallback
        );
    }
}

#[test]
#[ignore = "rewrites the pin fixture"]
fn regenerate() {
    std::fs::write(fixture_path(), render(&pins())).expect("write pin fixture");
}
