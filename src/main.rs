//! `vcsched` — command-line driver for the workspace.
//!
//! ```text
//! vcsched machines                         list machine presets
//! vcsched policies                         list registered scheduling policies
//! vcsched gen [OPTS]                       dump a corpus superblock as JSON
//! vcsched schedule [OPTS]                  schedule a JSON superblock
//! vcsched batch [OPTS]                     batch-schedule a corpus in parallel
//! vcsched serve [OPTS]                     run the persistent scheduling service
//! vcsched request [OPTS] CMD               talk to a running service
//! vcsched top [OPTS]                       live metrics view of a running service
//! vcsched demo                             the paper's Fig. 1 block, all machines
//! ```
//!
//! Run `vcsched help` for the full option list. Superblocks travel as the
//! serde JSON form of `vcsched::ir::Superblock`, so any tool (or the `gen`
//! subcommand) can produce them.

use std::process::ExitCode;

use vcsched::arch::{MachineConfig, OpClass};
use vcsched::cars::CarsScheduler;
use vcsched::core::VcScheduler;
use vcsched::ir::{Schedule, Superblock, SuperblockBuilder};
use vcsched::service::machine_by_name;
use vcsched::sim::{execute, listing, pressure, validate, ExecOptions};
use vcsched::workload::{benchmark, benchmarks, generate_block, InputSet};

const HELP: &str = "\
vcsched — virtual cluster scheduling for clustered VLIW processors

USAGE:
    vcsched machines
    vcsched policies
    vcsched gen [--bench NAME] [--index N] [--seed N] [--out FILE]
    vcsched schedule --block FILE [--machine M] [--scheduler S]
                     [--steps N] [--listing] [--execute] [--pressure]
    vcsched batch [--corpus FILE | --bench NAME] [--count N] [--seed N]
                  [--machine M] [--jobs N] [--policies P,P,… | --portfolio]
                  [--early-cancel] [--cache DIR] [--cache-shards N]
                  [--steps N] [--budget-bytes N] [--details]
                  [--trace-out FILE [--obs-sample N]]
    vcsched serve [--addr HOST:PORT] [--jobs N] [--queue N] [--cache DIR]
                  [--cache-capacity N] [--cache-shards N] [--steps N]
                  [--budget-bytes N] [--policies P,P,… | --portfolio]
                  [--machine-policies M=P,P[;M=P,P…]] [--early-cancel]
                  [--max-request BYTES] [--max-conns N]
                  [--max-write-buffer BYTES]
                  [--trace-out FILE [--obs-sample N]]
    vcsched request [--addr HOST:PORT] [--id N] [--binary]
                  (stats | metrics [--metrics-text]
                  | shutdown | ping [--delay-ms N] [--priority 0..3]
                  | schedule --block FILE [--machine M] [--policies P,P,…]
                    [--mode single|portfolio] [--steps N] [--budget-bytes N]
                    [--early-cancel] [--placement-seed N]
                    [--deadline-ms N] [--priority 0..3] [--return-schedule]
                  | batch [--bench NAME] [--count N] [--seed N] [--machine M]
                    [--policies P,P,…] [--portfolio] [--steps N]
                    [--budget-bytes N] [--early-cancel] [--stream]
                    [--deadline-ms N] [--priority 0..3]
                  | --json LINE)
    vcsched replay [--profile poisson-burst|diurnal|adversarial-spike]
                  [--events N] [--seed N] [--horizon-ms N]
                  [--mean-slack-ms N] [--trace FILE] [--emit-trace FILE]
                  [--machine M] [--jobs N] [--policies P,P,…] [--steps N]
                  [--step-floor N] [--steps-per-ms N] [--budget-bytes N]
                  [--placement-seed N] [--early-cancel] [--queue N] [--details]
                  [--addr HOST:PORT [--time-scale N] [--binary]]
    vcsched top [--addr HOST:PORT] [--interval SECS] [--count N]
    vcsched demo
    vcsched help

BATCH:
    Streams superblocks from a JSONL corpus (--corpus; one block per
    line) or synthesizes them (--bench/--count/--seed), fans them out
    over a worker pool (--jobs, default: all cores), and races the
    selected policy set per block. The default set `vc,cars` is the
    paper's Section 6.1 policy: virtual-cluster scheduling within a
    work budget, CARS fallback on timeout. --budget-bytes caps the VC
    search by bytes of state touched by deduction mutations — the
    native currency of the trail engine; --steps is the legacy
    deduction-step cap, kept as a deprecated alias (both may be set;
    whichever trips first cancels the search). On serve, --steps and
    --budget-bytes set the defaults for requests that omit \"steps\" /
    \"budget_bytes\".
    --policies picks any subset of the registered policies (see
    `vcsched policies`); --portfolio is shorthand for all of them.
    --early-cancel lets a provably beaten search abandon its work (same
    winners, less work, different loser telemetry). --cache DIR
    persists a content-addressed schedule cache so repeated runs are
    near-instant (the key covers the policy set, so different
    portfolios never alias); --cache-shards partitions the cache N ways
    (one lock per shard, default 8). Prints a JSON summary (per-policy
    win counts and step totals, aggregate AWCT, wall-clock, cache hit
    rate); --details adds per-block JSONL on stderr.

SERVE / REQUEST:
    `serve` runs the engine as a daemon: a TCP listener (default
    127.0.0.1:7411) speaking newline-delimited JSON — one request
    object in, one response object out. Work is admitted to a bounded
    queue (--queue, default 64) in front of --jobs workers; when the
    queue is full the server rejects with
    {\"ok\":false,...,\"retry_after_ms\":N} instead of queueing
    unboundedly. `schedule`/`batch` requests pick their policy set per
    request (\"policies\"); --policies sets the server default and
    --machine-policies maps machine presets to their own defaults
    (e.g. --machine-policies \"4c2=two-phase,cars;2c=vc,cars\").
    Every request races the set it names; a request's \"adaptive\"
    field is accepted and ignored. All schedules flow through the
    sharded cache; `stats` reports queue depth, per-policy win/step
    totals and per-shard hit/eviction counters. The server runs one
    readiness-driven reactor thread (epoll) over all connections
    (--max-conns caps them, default 1024); requests may carry an
    \"id\" for pipelining — id'd replies echo the id and may complete
    out of order, id-less requests keep strict one-reply-per-line
    order. A batch with \"stream\":true (needs an id) sends one
    {\"type\":\"block\",...} frame per solved block before the summary.
    `request` is the matching thin client (--id tags the request,
    --stream prints batch frames as they arrive); `--json LINE` sends
    a raw protocol line. A `shutdown` request drains in-flight work,
    then exits.
    The wire defaults to newline JSON; a client opening with a
    vcsched-frame magic preamble, v2 or the older v1 (`request
    --binary`, `replay --addr --binary`, or Client::connect_binary) switches its
    connection to compact binary frames — same requests and replies,
    ~1.5-2x the request throughput. Admission into the worker queue is
    fair-queued per connection (weighted round-robin by priority
    class), so a connection streaming a large batch cannot starve
    others; a connection that stops reading its replies is closed once
    --max-write-buffer bytes (default 4 MiB) back up.

ONLINE / REPLAY:
    `replay` synthesizes a seeded arrival trace (--profile: bursty
    Poisson, diurnal, or adversarial spike; --events/--seed/--horizon-ms
    /--mean-slack-ms shape it) of timestamped superblocks with priority
    and deadline fields, then replays it. Offline (default) the engine's
    online executor runs the whole trace in *virtual* time: each event's
    deadline slack is priced into a deduction-step budget
    (slack × --steps-per-ms, clamped to [--step-floor, --steps]); a
    bounded virtual server (--queue) admits arrivals in order and sheds
    by priority under saturation; an event's block races only when the
    server serves it (a shed event is never raced), and a race whose
    priced budget fires returns its best-so-far validated schedule
    tagged deadline_fired. --jobs workers race ahead of the server, at
    most --queue arrivals past the one being admitted. Results are
    byte-identical at any --jobs.
    Prints a summary JSON (p50/p99/p999 latency, miss/shed rates,
    per-priority quantiles); --details adds per-block JSONL on stderr.
    With --addr the trace instead drives a *live* server: each event is
    sent as a `schedule` request carrying \"deadline_ms\" (remaining
    slack) and \"priority\", paced by arrival time compressed
    --time-scale× (default 50; 0 = no pacing). On the server a deadline
    arms a wall-clock timer that preempts the sealed race at expiry —
    best-so-far still validated, never partial. --trace FILE replays a
    saved JSONL trace; --emit-trace FILE writes the trace and exits.
    Server-side requests with \"deadline_ms\"/\"priority\" also work
    standalone (see `request schedule`): high priorities (>=2) ride out
    queue saturation, low priorities are shed; `stats` grows
    per-priority latency quantiles and `metrics` the
    engine_deadline_misses_total / engine_preemptions_total /
    engine_shed_total counters and engine_slack_ms histogram.

OBSERVABILITY:
    Series belong to their server: each `serve` keeps its engine_*,
    service_* and vc_* counters, gauges and log-scale latency histograms
    (deterministic p50/p90/p99/p999) itself and renders `stats` and
    `metrics` from them; vc_* count fresh solves only, and only
    obs_trace_dropped_total is process-wide. `vcsched request
    metrics` dumps the full snapshot as JSON; add --metrics-text for
    Prometheus exposition text. `vcsched top` renders the same snapshot as a terminal view —
    one-shot by default, repeating with --interval SECS (--count N
    frames). --trace-out FILE (on batch and serve) appends structured
    span events as JSONL, one object per span:
    {\"span\":NAME,\"seq\":N,\"start_us\":N,\"dur_us\":N,\"fields\":{…}};
    --obs-sample N records every Nth span. Tracing is off by
    default and never changes scheduling results — only records them.

MACHINES (for --machine):
    2c        paper config 1: 2 clusters, 8-issue, 1-cycle bus   [default]
    4c1       paper config 2: 4 clusters, 16-issue, 1-cycle bus
    4c2       paper config 3: 4 clusters, 16-issue, 2-cycle unpipelined bus
    hetero    heterogeneous 2-cluster preset

POLICIES (for --policies / --scheduler; see `vcsched policies`):
    vc          the paper's virtual-cluster scheduler            [default]
    cars        CARS baseline (single-pass list scheduling)
    uas         unified assign-and-schedule (CWP cluster order)
    two-phase   partition first, schedule second
    uas-mwp     UAS, magnitude-weighted-predecessors order
    uas-none    UAS, fixed PC0..PCn cluster order
    uas-balance UAS, least-loaded-cluster-first order
    two-phase-balance  two-phase, balance-weighted partition (w=2)
    (--portfolio spells the first four — the paper's Section 6.1 race)
";

/// Each verb's flags: a trailing `=` marks a flag that takes a value,
/// the rest are switches. [`Args::parse`] refuses any other flag; a unit
/// test checks these tables against [`HELP`].
const FLAGS: &[(&str, &str)] = &[
    ("machines", ""),
    ("policies", ""),
    ("gen", "--bench= --index= --seed= --out="),
    (
        "schedule",
        "--block= --machine= --scheduler= --steps= --listing --execute --pressure",
    ),
    (
        "batch",
        "--corpus= --bench= --count= --seed= --machine= --jobs= --policies= --portfolio \
         --early-cancel --cache= --cache-shards= --steps= --budget-bytes= --details \
         --trace-out= --obs-sample=",
    ),
    (
        "serve",
        "--addr= --jobs= --queue= --cache= --cache-capacity= --cache-shards= --steps= \
         --budget-bytes= --policies= --portfolio --machine-policies= --early-cancel \
         --max-request= --max-conns= --max-write-buffer= --trace-out= --obs-sample=",
    ),
    (
        "request",
        "--addr= --id= --binary --metrics-text --delay-ms= --priority= --block= --machine= \
         --policies= --mode= --steps= --budget-bytes= --early-cancel --placement-seed= \
         --deadline-ms= --return-schedule --bench= --count= --seed= --portfolio --stream \
         --json=",
    ),
    (
        "replay",
        "--profile= --events= --seed= --horizon-ms= --mean-slack-ms= --trace= --emit-trace= \
         --machine= --jobs= --policies= --steps= --step-floor= --steps-per-ms= \
         --budget-bytes= --placement-seed= --early-cancel --queue= --details --addr= \
         --time-scale= --binary",
    ),
    ("top", "--addr= --interval= --count="),
    ("demo", ""),
];

/// A verb's arguments, every flag checked against its [`FLAGS`] table.
struct Args<'a> {
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(&'a str, Option<&'a str>)>,
    /// `request`'s one word besides its flags: the request verb.
    verb: Option<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(command: &str, args: &'a [String]) -> Result<Args<'a>, String> {
        let (_, table) = FLAGS
            .iter()
            .find(|(name, _)| *name == command)
            .ok_or_else(|| format!("unknown command `{command}` (try `vcsched help`)"))?;
        let mut parsed = Args {
            flags: Vec::new(),
            verb: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let takes_value =
                table
                    .split_whitespace()
                    .find_map(|flag| match flag.strip_suffix('=') {
                        Some(name) => (name == arg).then_some(true),
                        None => (flag == arg).then_some(false),
                    });
            match takes_value {
                Some(true) => {
                    let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    parsed.flags.push((arg, Some(value)));
                }
                Some(false) => parsed.flags.push((arg, None)),
                None if arg.starts_with('-') => {
                    return Err(format!(
                        "unknown flag `{arg}` for `vcsched {command}` (try `vcsched help`)"
                    ))
                }
                None if command == "request" && parsed.verb.is_none() => parsed.verb = Some(arg),
                None => {
                    return Err(format!(
                        "unexpected argument `{arg}` for `vcsched {command}`"
                    ))
                }
            }
        }
        Ok(parsed)
    }

    /// The value of flag `name`, if it was given.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|(flag, _)| *flag == name)
            .and_then(|(_, value)| *value)
    }

    /// Flag `name`'s value parsed as a `T`, if it was given.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| format!("{name}: {e}")))
            .transpose()
    }

    /// Whether flag `name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let run = |args: &Args| match cmd {
        "machines" => cmd_machines(),
        "policies" => cmd_policies(),
        "gen" => cmd_gen(args),
        "schedule" => cmd_schedule(args),
        "batch" => cmd_batch(args),
        "serve" => cmd_serve(args),
        "request" => cmd_request(args),
        "replay" => cmd_replay(args),
        "top" => cmd_top(args),
        _ => cmd_demo(), // the one verb left in FLAGS
    };
    let r = match cmd {
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        _ => Args::parse(cmd, &args[1..]).and_then(|args| run(&args)),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_machines() -> Result<(), String> {
    for key in MachineConfig::PRESET_KEYS {
        let m = MachineConfig::preset(key).expect("preset key resolves");
        println!("{key:<8} {m}");
    }
    Ok(())
}

fn cmd_policies() -> Result<(), String> {
    // The registry is the single source of truth: whatever is registered
    // is selectable via --policies and the service protocol.
    for (name, origin) in vcsched::engine::PolicyRegistry::builtin().catalogue() {
        println!("{name:<10} {origin}");
    }
    Ok(())
}

/// Parses the `--policies`/`--portfolio` pair shared by `batch` and
/// `serve`. `None` means "use the default set".
fn policy_set_flags(args: &Args) -> Result<Option<vcsched::engine::PolicySet>, String> {
    match (args.value("--policies"), args.has("--portfolio")) {
        (Some(_), true) => Err("--policies and --portfolio are mutually exclusive".into()),
        (Some(spec), false) => vcsched::engine::PolicySet::parse(spec).map(Some),
        (None, true) => Ok(Some(vcsched::engine::PolicySet::full())),
        (None, false) => Ok(None),
    }
}

/// Parses the `--trace-out FILE` / `--obs-sample N` pair shared by
/// `batch` and `serve`. Sampling without an output file would silently
/// record nothing, so it is rejected.
fn trace_flags(args: &Args) -> Result<Option<(std::path::PathBuf, u64)>, String> {
    let sample = args.get("--obs-sample")?;
    match args.value("--trace-out") {
        Some(path) => Ok(Some((path.into(), sample.unwrap_or(1)))),
        None if sample.is_some() => Err("--obs-sample requires --trace-out".into()),
        None => Ok(None),
    }
}

/// Parses `--machine-policies "4c2=two-phase,cars;2c=vc,cars"` into
/// per-preset default policy sets (entries separated by `;`, each
/// `PRESET=SET` with the usual comma-separated set grammar).
fn machine_policies_flag(args: &Args) -> Result<Vec<(String, vcsched::engine::PolicySet)>, String> {
    let Some(spec) = args.value("--machine-policies") else {
        return Ok(Vec::new());
    };
    let mut pairs = Vec::new();
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let (preset, set) = entry
            .split_once('=')
            .ok_or_else(|| format!("--machine-policies: `{entry}` is not PRESET=P,P,…"))?;
        let preset = preset.trim();
        machine_by_name(preset)?;
        if pairs.iter().any(|(p, _)| p == preset) {
            return Err(format!("--machine-policies: duplicate preset `{preset}`"));
        }
        pairs.push((
            preset.to_owned(),
            vcsched::engine::PolicySet::parse(set)
                .map_err(|e| format!("--machine-policies: {preset}: {e}"))?,
        ));
    }
    Ok(pairs)
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let bench_name = args.value("--bench").unwrap_or("099.go");
    let index: u64 = args.get("--index")?.unwrap_or(0);
    let seed: u64 = args.get("--seed")?.unwrap_or(7);
    let spec = benchmark(bench_name).ok_or_else(|| {
        let names: Vec<&str> = benchmarks().iter().map(|b| b.name).collect();
        format!("unknown benchmark `{bench_name}`; one of {names:?}")
    })?;
    let sb = generate_block(&spec, seed, index, InputSet::Ref);
    let json = serde_json::to_string_pretty(&sb).map_err(|e| e.to_string())?;
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {path}: {} ({} ops, {} exits, weight {})",
                sb.name(),
                sb.op_count(),
                sb.exits().count(),
                sb.weight()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_schedule(args: &Args) -> Result<(), String> {
    let path = args.value("--block").ok_or("--block FILE is required")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let sb: Superblock = serde_json::from_str(&data).map_err(|e| format!("{path}: {e}"))?;
    let machine = machine_by_name(args.value("--machine").unwrap_or("2c"))?;
    let steps: u64 = args.get("--steps")?.unwrap_or(1_200_000);
    let scheduler = args.value("--scheduler").unwrap_or("vc");

    // Resolve through the registry: any registered policy (built-in or
    // plugin) is a valid --scheduler, and the error message lists the
    // live table. Live-ins go round-robin, matching the schedulers' own
    // `schedule()` convention.
    let policy = vcsched::engine::PolicyRegistry::builtin().create(scheduler)?;
    let k = machine.cluster_count();
    let homes: Vec<vcsched::arch::ClusterId> = sb
        .live_ins()
        .enumerate()
        .map(|(i, _)| vcsched::arch::ClusterId((i % k) as u8))
        .collect();
    let out = policy.schedule(
        &sb,
        &machine,
        &homes,
        &vcsched::engine::PolicyBudget::steps(steps),
    );
    let schedule: Schedule = match out.schedule {
        Some(schedule) => {
            eprintln!(
                "{scheduler}: AWCT {:.3}, {} copies, {} deduction steps, {} ms",
                out.awct,
                schedule.copy_count(),
                out.steps,
                out.wall.as_millis()
            );
            schedule
        }
        None => {
            eprintln!(
                "{scheduler}: gave up ({}, {} steps); falling back to CARS (the paper's policy)",
                out.fallback, out.steps
            );
            CarsScheduler::new(machine.clone()).schedule(&sb).schedule
        }
    };

    let report = validate(&sb, &machine, &schedule)
        .map_err(|v| format!("schedule failed validation: {v:?}"))?;
    eprintln!(
        "validated: AWCT {:.3}, makespan {}, {} copies",
        report.awct, report.makespan, report.copies
    );
    if args.has("--listing") {
        println!("{}", listing(&sb, &machine, &schedule));
    }
    if args.has("--pressure") {
        let p = pressure(&sb, &machine, &schedule);
        println!(
            "register pressure: max {} (peak at cycle {}); per cluster {:?}",
            p.max(),
            p.peak_cycle,
            p.max_per_cluster
        );
    }
    if args.has("--execute") {
        let r = execute(&sb, &machine, &schedule, &ExecOptions::default())
            .map_err(|e| e.to_string())?;
        println!(
            "executed {}x: mean {:.3} cycles (static AWCT {:.3}), FU utilization {:.1}%",
            r.iterations,
            r.mean_cycles,
            r.static_awct,
            r.fu_utilization * 100.0
        );
    }
    Ok(())
}

fn cmd_batch(args: &Args) -> Result<(), String> {
    let source = match (args.value("--corpus"), args.value("--bench")) {
        (Some(_), Some(_)) => return Err("--corpus and --bench are mutually exclusive".into()),
        (Some(path), None) => {
            // Synthesis-only flags would be silently ignored; reject them
            // so nobody believes they sampled or reseeded a corpus file.
            for flag in ["--count", "--seed"] {
                if args.has(flag) {
                    return Err(format!("{flag} only applies to --bench synthesis"));
                }
            }
            vcsched::engine::CorpusSource::Jsonl(path.into())
        }
        (None, bench) => vcsched::engine::CorpusSource::Synth {
            bench: bench.unwrap_or("099.go").to_owned(),
            count: args.get("--count")?.unwrap_or(200),
            seed: args.get("--seed")?.unwrap_or(7),
        },
    };
    let config = vcsched::engine::BatchConfig {
        source,
        machine: machine_by_name(args.value("--machine").unwrap_or("2c"))?,
        jobs: args
            .get("--jobs")?
            .unwrap_or_else(vcsched::engine::default_jobs),
        policies: policy_set_flags(args)?.unwrap_or_default(),
        early_cancel: args.has("--early-cancel"),
        max_dp_steps: args.get("--steps")?.unwrap_or(300_000),
        max_trail_bytes: args.get("--budget-bytes")?,
        cache_dir: args.value("--cache").map(Into::into),
        cache_shards: args.get("--cache-shards")?.unwrap_or(8),
        ..vcsched::engine::BatchConfig::default()
    };
    let trace = trace_flags(args)?;
    if let Some((_, sample)) = &trace {
        let tracer = vcsched::obs::tracer();
        tracer.set_sampling(*sample);
        tracer.set_enabled(true);
    }
    let result = vcsched::engine::run_batch(&config)?;
    if let Some((path, _)) = &trace {
        let tracer = vcsched::obs::tracer();
        tracer.set_enabled(false);
        let events = tracer.drain();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        vcsched::obs::write_jsonl(&events, &mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {} trace events to {}", events.len(), path.display());
    }
    if args.has("--details") {
        for line in &result.lines {
            eprintln!(
                "{}",
                serde_json::to_string(line).map_err(|e| e.to_string())?
            );
        }
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&result.summary).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let trace = trace_flags(args)?;
    let config = vcsched::service::ServiceConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:7411").to_owned(),
        jobs: args
            .get("--jobs")?
            .unwrap_or_else(vcsched::engine::default_jobs),
        queue_capacity: args.get("--queue")?.unwrap_or(64),
        cache_capacity: args.get("--cache-capacity")?.unwrap_or(65_536),
        cache_shards: args.get("--cache-shards")?.unwrap_or(8),
        cache_dir: args.value("--cache").map(Into::into),
        max_request_bytes: args.get("--max-request")?.unwrap_or(1_048_576),
        max_connections: args.get("--max-conns")?.unwrap_or(1024),
        max_write_buffer: args.get("--max-write-buffer")?.unwrap_or(4_194_304),
        default_steps: args.get("--steps")?.unwrap_or(300_000),
        default_budget_bytes: args.get("--budget-bytes")?,
        default_policies: policy_set_flags(args)?.unwrap_or_default(),
        preset_policies: machine_policies_flag(args)?,
        default_early_cancel: args.has("--early-cancel"),
        trace_out: trace.as_ref().map(|(path, _)| path.clone()),
        trace_sample: trace.map(|(_, sample)| sample).unwrap_or(1),
        ..vcsched::service::ServiceConfig::default()
    };
    let jobs = config.jobs;
    let shards = config.cache_shards;
    let handle = vcsched::service::serve(config)?;
    eprintln!(
        "vcsched serve: listening on {} ({jobs} jobs, {shards} cache shards); \
         send {{\"type\":\"shutdown\"}} to stop",
        handle.addr()
    );
    handle.join();
    eprintln!("vcsched serve: drained and stopped");
    Ok(())
}

fn cmd_request(args: &Args) -> Result<(), String> {
    use vcsched::service::{Client, Request, ScheduleMode};

    let addr = args.value("--addr").unwrap_or("127.0.0.1:7411");
    let mut client = if args.has("--binary") {
        Client::connect_binary(addr)?
    } else {
        Client::connect(addr)?
    };

    // Raw escape hatch first: forward the line verbatim, print the reply.
    if let Some(line) = args.value("--json") {
        let raw = client.request_raw(line)?;
        println!("{raw}");
        let parsed: vcsched::service::Response =
            serde_json::from_str(&raw).map_err(|e| format!("bad response: {e}"))?;
        return if parsed.is_ok() {
            Ok(())
        } else {
            Err("request failed (see response above)".to_owned())
        };
    }

    let verb = args.verb.ok_or(
        "request verb required: stats, metrics, shutdown, ping, schedule, batch (or --json LINE)",
    )?;
    if args.has("--metrics-text") && verb != "metrics" {
        return Err("--metrics-text only applies to the metrics verb".into());
    }
    let steps = args.get("--steps")?;
    let budget_bytes = args.get("--budget-bytes")?;
    // Forwarded verbatim: the server validates names against its
    // registry and answers a clean protocol error for unknown ones.
    let policies: Option<Vec<String>> = args
        .value("--policies")
        .map(vcsched::engine::PolicySet::split_spec);
    let early_cancel = args.has("--early-cancel").then_some(true);
    let deadline_ms = args.get("--deadline-ms")?;
    let priority = args.get("--priority")?;
    let request = match verb {
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        "ping" => Request::Ping {
            delay_ms: args.get("--delay-ms")?.unwrap_or(0),
            priority,
        },
        "schedule" => {
            let path = args.value("--block").ok_or("--block FILE is required")?;
            let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Request::Schedule {
                block: serde_json::from_str(&data).map_err(|e| format!("{path}: {e}"))?,
                machine: args.value("--machine").unwrap_or("2c").to_owned(),
                policies,
                mode: args
                    .value("--mode")
                    .map(ScheduleMode::parse)
                    .transpose()
                    .map_err(|e| format!("--mode: {e}"))?,
                steps,
                budget_bytes,
                early_cancel,
                adaptive: None,
                placement_seed: args.get("--placement-seed")?,
                return_schedule: args.has("--return-schedule"),
                deadline_ms,
                priority,
            }
        }
        "batch" => Request::Batch {
            bench: args.value("--bench").unwrap_or("099.go").to_owned(),
            count: args.get("--count")?.unwrap_or(100),
            seed: args.get("--seed")?.unwrap_or(7),
            machine: args.value("--machine").unwrap_or("2c").to_owned(),
            policies,
            portfolio: args.has("--portfolio").then_some(true),
            steps,
            budget_bytes,
            early_cancel,
            adaptive: None,
            stream: args.has("--stream"),
            deadline_ms,
            priority,
        },
        other => return Err(format!("unknown request verb `{other}`")),
    };
    let id: Option<u64> = args.get("--id")?;
    if args.has("--stream") {
        if verb != "batch" {
            return Err("--stream only applies to the batch verb".into());
        }
        // Streaming needs an id on the wire (frames are matched to the
        // batch by it); pick one when the caller did not.
        client.send(&request, Some(id.unwrap_or(1)))?;
        loop {
            let raw = client.recv_raw()?;
            println!("{raw}");
            let parsed: vcsched::service::Response =
                serde_json::from_str(&raw).map_err(|e| format!("bad response: {e}"))?;
            if matches!(parsed, vcsched::service::Response::Block(_)) {
                continue;
            }
            return if parsed.is_ok() {
                Ok(())
            } else {
                Err("request failed (see response above)".to_owned())
            };
        }
    }
    // With --id the raw reply line is kept around so the echoed id
    // (an envelope field the typed Response drops) reaches the output.
    let (raw, response) = if id.is_some() {
        client.send(&request, id)?;
        let raw = client.recv_raw()?;
        let parsed: vcsched::service::Response =
            serde_json::from_str(&raw).map_err(|e| format!("bad response: {e}"))?;
        (Some(raw), parsed)
    } else {
        (None, client.request(&request)?)
    };
    match &response {
        vcsched::service::Response::Metrics { metrics } if args.has("--metrics-text") => {
            use serde::Deserialize;
            let snapshot = vcsched::obs::Snapshot::from_value(metrics)
                .map_err(|e| format!("bad metrics snapshot: {e}"))?;
            print!("{}", snapshot.to_prometheus_text());
        }
        _ => {
            let rendered = match &raw {
                Some(raw) => {
                    let value: serde_json::Value =
                        serde_json::from_str(raw).map_err(|e| format!("bad response: {e}"))?;
                    serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?
                }
                None => serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?,
            };
            println!("{rendered}");
        }
    }
    if response.is_ok() {
        Ok(())
    } else {
        Err("request failed (see response above)".to_owned())
    }
}

/// `vcsched replay`: synthesize (or load) an arrival trace and replay
/// it — offline through the engine's virtual-time online executor, or
/// against a live server (`--addr`) with wall-clock deadline timers.
fn cmd_replay(args: &Args) -> Result<(), String> {
    use vcsched::engine::{run_trace, OnlineOptions};
    use vcsched::workload::{
        synthesize_trace, trace_from_jsonl, trace_to_jsonl, ArrivalProfile, TraceOptions,
    };

    let events = match args.value("--trace") {
        Some(path) => {
            let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            trace_from_jsonl(&data)?
        }
        None => {
            let profile = match args.value("--profile") {
                Some(name) => ArrivalProfile::parse(name)
                    .ok_or_else(|| format!("--profile: unknown profile `{name}`"))?,
                None => ArrivalProfile::PoissonBurst,
            };
            let defaults = TraceOptions::default();
            synthesize_trace(&TraceOptions {
                profile,
                events: args.get("--events")?.unwrap_or(defaults.events as u64) as usize,
                seed: args.get("--seed")?.unwrap_or(defaults.seed),
                horizon_ms: args.get("--horizon-ms")?.unwrap_or(defaults.horizon_ms),
                mean_slack_ms: args
                    .get("--mean-slack-ms")?
                    .unwrap_or(defaults.mean_slack_ms),
            })
        }
    };
    if let Some(path) = args.value("--emit-trace") {
        std::fs::write(path, trace_to_jsonl(&events)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {} events to {path}", events.len());
        return Ok(());
    }
    if let Some(addr) = args.value("--addr") {
        return replay_live(args, addr, &events);
    }

    let defaults = OnlineOptions::default();
    let options = OnlineOptions {
        machine: machine_by_name(args.value("--machine").unwrap_or("2c"))?,
        policies: match args.value("--policies") {
            Some(spec) => vcsched::engine::PolicySet::parse(spec)?,
            None => defaults.policies,
        },
        base_steps: args.get("--steps")?.unwrap_or(defaults.base_steps),
        steps_per_ms: args.get("--steps-per-ms")?.unwrap_or(defaults.steps_per_ms),
        step_floor: args.get("--step-floor")?.unwrap_or(defaults.step_floor),
        queue_capacity: args
            .get("--queue")?
            .unwrap_or(defaults.queue_capacity as u64) as usize,
        jobs: args
            .get("--jobs")?
            .unwrap_or_else(vcsched::engine::default_jobs),
        placement_seed: args
            .get("--placement-seed")?
            .unwrap_or(defaults.placement_seed),
        max_trail_bytes: args.get("--budget-bytes")?,
        early_cancel: args.has("--early-cancel"),
    };
    let (summary, results) = run_trace(&events, &options);
    if args.has("--details") {
        for r in &results {
            eprintln!("{}", serde_json::to_string(r).map_err(|e| e.to_string())?);
        }
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Drives a trace against a live server: one `schedule` request per
/// event carrying the event's remaining slack as `deadline_ms` and its
/// `priority`, paced by arrival time compressed `--time-scale`×.
fn replay_live(
    args: &Args,
    addr: &str,
    events: &[vcsched::workload::TraceEvent],
) -> Result<(), String> {
    use vcsched::service::{Client, Request, Response};

    let time_scale: u64 = args.get("--time-scale")?.unwrap_or(50);
    let machine = args.value("--machine").unwrap_or("2c").to_owned();
    let steps = args.get("--steps")?;
    let mut client = if args.has("--binary") {
        Client::connect_binary(addr)?
    } else {
        Client::connect(addr)?
    };
    let start = std::time::Instant::now();
    let (mut served, mut shed, mut fired, mut missed, mut cached) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut latencies_us: Vec<u64> = Vec::with_capacity(events.len());
    for event in events {
        if let Some(due_ms) = event.arrival_ms.checked_div(time_scale) {
            let due = std::time::Duration::from_millis(due_ms);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
        }
        // Remaining slack *now*: a late start (pacing debt, slow server)
        // shrinks the wall budget the server prices and arms.
        let virt_now = if time_scale > 0 {
            start.elapsed().as_millis() as u64 * time_scale
        } else {
            event.arrival_ms
        };
        let slack = event.deadline_ms.saturating_sub(virt_now).max(1) / time_scale.max(1);
        let request = Request::Schedule {
            block: event.block(),
            machine: machine.clone(),
            policies: None,
            mode: None,
            steps,
            budget_bytes: None,
            early_cancel: None,
            adaptive: None,
            placement_seed: Some(event.seed ^ event.index),
            return_schedule: false,
            deadline_ms: Some(slack.max(1)),
            priority: Some(event.priority),
        };
        let sent = std::time::Instant::now();
        match client.request(&request)? {
            Response::Schedule(reply) => {
                served += 1;
                fired += reply.deadline_fired as u64;
                cached += reply.cached as u64;
                let elapsed = sent.elapsed();
                missed += (elapsed.as_millis() as u64 > slack.max(1)) as u64;
                latencies_us.push(elapsed.as_micros() as u64);
            }
            Response::Error { .. } => shed += 1,
            other => return Err(format!("unexpected reply: {other:?}")),
        }
    }
    latencies_us.sort_unstable();
    let q = |f: f64| -> u64 {
        if latencies_us.is_empty() {
            0
        } else {
            latencies_us[((latencies_us.len() - 1) as f64 * f).round() as usize]
        }
    };
    let field = |k: &str, v: u64| (k.to_owned(), serde_json::Value::UInt(v));
    let summary = serde_json::Value::Object(vec![
        field("events", events.len() as u64),
        field("served", served),
        field("shed", shed),
        field("deadline_fired", fired),
        field("missed", missed),
        field("cached", cached),
        field("wall_ms", start.elapsed().as_millis() as u64),
        field("latency_p50_us", q(0.50)),
        field("latency_p99_us", q(0.99)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `vcsched top`: renders a running server's metrics snapshot as a
/// terminal view — one frame by default, repeating with `--interval`.
fn cmd_top(args: &Args) -> Result<(), String> {
    use serde::Deserialize;
    use vcsched::obs::Snapshot;
    use vcsched::service::{Client, Request, Response};

    let addr = args.value("--addr").unwrap_or("127.0.0.1:7411");
    let interval: Option<u64> = args.get("--interval")?;
    // --interval without --count watches until interrupted.
    let frames: u64 = args.get("--count")?.unwrap_or(match interval {
        Some(_) => u64::MAX,
        None => 1,
    });
    if frames == 0 {
        return Err("--count must be at least 1".into());
    }
    let mut client = Client::connect(addr)?;
    for frame in 0..frames {
        if frame > 0 {
            std::thread::sleep(std::time::Duration::from_secs(interval.unwrap_or(2)));
        }
        let snapshot = match client.request(&Request::Metrics)? {
            Response::Metrics { metrics } => {
                Snapshot::from_value(&metrics).map_err(|e| format!("bad metrics snapshot: {e}"))?
            }
            Response::Error { error, .. } => return Err(format!("server: {error}")),
            other => return Err(format!("unexpected response: {other:?}")),
        };
        render_top(&snapshot, addr, frame);
    }
    Ok(())
}

/// One `vcsched top` frame: counters and gauges as `series value` rows,
/// histograms as count/quantile/mean rows.
fn render_top(snapshot: &vcsched::obs::Snapshot, addr: &str, frame: u64) {
    use vcsched::obs::MetricValue;

    let series = |m: &vcsched::obs::MetricSnapshot| -> String {
        if m.labels.is_empty() {
            m.name.clone()
        } else {
            let labels: Vec<String> = m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{}{{{}}}", m.name, labels.join(","))
        }
    };
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for m in &snapshot.metrics {
        match &m.value {
            MetricValue::Counter(n) => counters.push(format!("  {:<52} {n:>12}", series(m))),
            MetricValue::Gauge(n) => gauges.push(format!("  {:<52} {n:>12}", series(m))),
            MetricValue::Histogram(h) => histograms.push(format!(
                "  {:<36} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11.1}",
                series(m),
                h.count,
                h.p50,
                h.p90,
                h.p99,
                h.p999,
                h.mean()
            )),
        }
    }
    println!("vcsched top — {addr} (frame {})", frame + 1);
    if !counters.is_empty() {
        println!("COUNTERS");
        counters.iter().for_each(|l| println!("{l}"));
    }
    if !gauges.is_empty() {
        println!("GAUGES");
        gauges.iter().for_each(|l| println!("{l}"));
    }
    if !histograms.is_empty() {
        println!(
            "HISTOGRAMS{:>37} {:>9} {:>9} {:>9} {:>9} {:>11}",
            "count", "p50", "p90", "p99", "p999", "mean"
        );
        histograms.iter().for_each(|l| println!("{l}"));
    }
}

fn cmd_demo() -> Result<(), String> {
    let sb = fig1();
    println!("block: {} ({} ops)\n", sb.name(), sb.op_count());
    for machine in MachineConfig::paper_eval_configs() {
        let vc = VcScheduler::new(machine.clone());
        let cars = CarsScheduler::new(machine.clone());
        let c = cars.schedule(&sb);
        match vc.schedule(&sb) {
            Ok(v) => println!(
                "{:<16} VC {:.1} ({} copies)   CARS {:.1} ({} copies)",
                machine.name(),
                v.awct,
                v.schedule.copy_count(),
                c.awct,
                c.schedule.copy_count()
            ),
            Err(e) => println!("{:<16} VC {e}   CARS {:.1}", machine.name(), c.awct),
        }
    }
    Ok(())
}

/// The paper's Figure 1 superblock.
fn fig1() -> Superblock {
    let mut b = SuperblockBuilder::new("fig1");
    let i0 = b.inst(OpClass::Int, 2);
    let i1 = b.inst(OpClass::Int, 2);
    let i2 = b.inst(OpClass::Int, 2);
    let i3 = b.inst(OpClass::Int, 2);
    let b0 = b.exit(3, 0.3);
    let i4 = b.inst(OpClass::Int, 2);
    let b1 = b.exit(3, 0.7);
    b.data_dep(i0, i1)
        .data_dep(i0, i2)
        .data_dep(i0, i3)
        .data_dep(i3, b0)
        .data_dep(i1, i4)
        .data_dep(i2, i4)
        .data_dep(i4, b1)
        .ctrl_dep(b0, b1);
    b.build().expect("fig1 is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_names_resolve() {
        for name in ["2c", "4c1", "4c2", "hetero"] {
            assert!(machine_by_name(name).is_ok());
        }
        assert!(machine_by_name("8c").is_err());
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = strings(&["--bench", "130.li", "--details"]);
        let args = Args::parse("batch", &args).unwrap();
        assert_eq!(args.value("--bench"), Some("130.li"));
        assert_eq!(args.value("--count"), None);
        assert!(args.has("--details"));
        assert!(!args.has("--portfolio"));
        for (command, bad, named) in [
            (
                "batch",
                &["--bench", "130.li", "--bogus-flag"][..],
                "--bogus-flag",
            ),
            ("batch", &["--listing"][..], "--listing"),
            ("batch", &["--count"][..], "--count"),
            ("batch", &["stray"][..], "stray"),
            ("request", &["--adaptive", "ping"][..], "--adaptive"),
            ("request", &["ping", "stats"][..], "stats"),
        ] {
            let err = Args::parse(command, &strings(bad)).err().expect("refused");
            assert!(err.contains(named), "{command} {bad:?}: {err}");
        }
        // A switch never swallows the request verb after it.
        let args = strings(&["--binary", "ping", "--delay-ms", "0"]);
        let args = Args::parse("request", &args).unwrap();
        assert_eq!(
            (args.verb, args.value("--delay-ms")),
            (Some("ping"), Some("0"))
        );
    }

    /// Each verb's table lists exactly the flags its `USAGE` entry in
    /// HELP lists, each marked as HELP shows it: a flag followed by a
    /// placeholder takes a value, one followed by `]`, `|` or `[` is a
    /// switch.
    #[test]
    fn flag_tables_match_help() {
        let usage = HELP.split("\n\n").nth(1).expect("USAGE section");
        let mut entries: Vec<(&str, String)> = Vec::new();
        for line in usage.lines().skip(1) {
            match line.trim_start().strip_prefix("vcsched ") {
                Some(rest) => {
                    let verb = rest.split_whitespace().next().unwrap();
                    entries.push((verb, rest[verb.len()..].to_owned()));
                }
                None => entries.last_mut().unwrap().1.push_str(line),
            }
        }
        let mut checked = 0;
        for (verb, text) in entries.iter().filter(|(verb, _)| *verb != "help") {
            let mut listed: Vec<String> = text
                .match_indices("--")
                .map(|(at, _)| {
                    let rest = &text[at..];
                    let end = rest
                        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                        .unwrap_or(rest.len());
                    let takes_value = rest[end..].starts_with(' ')
                        && !rest[end + 1..].starts_with(['[', '|', '(']);
                    format!("{}{}", &rest[..end], if takes_value { "=" } else { "" })
                })
                .collect();
            listed.sort();
            listed.dedup();
            let (_, table) = FLAGS
                .iter()
                .find(|(name, _)| name == verb)
                .expect("verb has a table");
            let mut flags: Vec<String> = table.split_whitespace().map(str::to_owned).collect();
            flags.sort();
            assert_eq!(flags, listed, "vcsched {verb}");
            checked += 1;
        }
        assert_eq!(checked, FLAGS.len(), "every verb has a USAGE entry");
    }

    #[test]
    fn fig1_matches_paper_shape() {
        let sb = fig1();
        assert_eq!(sb.op_count(), 7);
        assert_eq!(sb.exits().count(), 2);
    }

    #[test]
    fn superblock_json_roundtrip() {
        let sb = fig1();
        let json = serde_json::to_string(&sb).unwrap();
        let back: Superblock = serde_json::from_str(&json).unwrap();
        assert_eq!(sb, back);
    }

    #[test]
    fn live_in_cluster_key_is_stable() {
        // The CLI prints ClusterId values; keep the Display contract.
        assert_eq!(vcsched::arch::ClusterId(3).to_string(), "PC3");
    }
}
