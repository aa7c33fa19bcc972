//! Allocation budgets: exact, deterministic gates on heap traffic.
//!
//! A counting [`GlobalAlloc`] wrapper around the system allocator keeps
//! per-thread counters, so tests running in parallel never see each
//! other's allocations, and every figure below is a count the code
//! either meets or does not — no timing involved.
//!
//! * A full-portfolio `schedule_block` over the golden corpus stays
//!   within a budget about 3% over its measured count.
//! * Each single-pass baseline makes at most a fixed number of
//!   allocations per block, whatever the block's size.
//! * A deduction study allocates nothing once the state's buffers are
//!   warm.
//! * Cloning a reservation table is one allocation.
//! * A binary frame whose container counts claim the whole frame fails
//!   without reserving memory for the claimed elements.
//! * An exact stage-3 matching on 20 matchable nodes requests under
//!   1 MiB.
//! * A cache-hit `solve_one`, parsing a `schedule` line into a `Value`
//!   and printing a block each make an exact, pinned number of
//!   allocations over the golden corpus.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serde::Value;

use vcsched::arch::{ClusterId, MachineConfig, OpClass, ReservationTable};
use vcsched::baselines::{ClusterOrder, TwoPhaseScheduler, UasScheduler};
use vcsched::cars::CarsScheduler;
use vcsched::core::decision::{study_decision, Decision};
use vcsched::core::init::{build_state, sg_windows};
use vcsched::core::{Budget, EdgeState, SchedulingState, StateCtx};
use vcsched::engine::{
    schedule_block, solve_one, PolicyOptions, PolicySet, ScheduleCache, STEPS_1S,
};
use vcsched::graph::matching::{max_weight_matching, EXACT_NODE_LIMIT};
use vcsched::ir::Superblock;
use vcsched::service::frame::decode_frame;
use vcsched::service::protocol::{request_line, Request};
use vcsched::workload::live_in_placement;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, bytes requested)` made on this thread by `f`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

fn golden_blocks() -> Vec<Superblock> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_corpus.jsonl"
    );
    std::fs::read_to_string(path)
        .expect("golden corpus")
        .lines()
        .map(|line| serde_json::from_str(line).expect("corpus block"))
        .collect()
}

/// Allocations of one full-portfolio race per golden-corpus block
/// (paper 2-cluster machine, 5k steps, the batch engine's placement
/// seeds), summed over the corpus. It was 330,908 when the single-pass
/// members ran on scoped threads, 61,076 once they ran inline, and is
/// 24,255 since the baselines walk each block's dependences once; the
/// budget leaves about 3% headroom over that count.
const PORTFOLIO_ALLOCS_BUDGET: u64 = 25_000;

#[test]
fn portfolio_race_allocations_are_halved() {
    let machine = MachineConfig::paper_2c_8w();
    let options = PolicyOptions {
        max_dp_steps: STEPS_1S,
        policies: PolicySet::full(),
        ..PolicyOptions::default()
    };
    let mut total = 0;
    for (i, sb) in golden_blocks().iter().enumerate() {
        let homes = live_in_placement(sb, machine.cluster_count(), 0xC60_2007 ^ i as u64);
        // The first race also initialises process-wide registries.
        let warm = schedule_block(sb, &machine, &homes, &options);
        let (out, allocs, _) = counted(|| schedule_block(sb, &machine, &homes, &options));
        assert_eq!(out, warm, "block {i}: races are deterministic");
        total += allocs;
    }
    assert!(
        total <= PORTFOLIO_ALLOCS_BUDGET,
        "{total} allocations over the golden corpus; the budget is {PORTFOLIO_ALLOCS_BUDGET}"
    );
}

/// Most allocations one single-pass baseline (`cars`, `uas`,
/// `two-phase`) may make scheduling one golden-corpus block. The bound is
/// one constant for every block: per-block set-up (the dependence graph,
/// the ready list, the reservation table, the schedule) plus a few
/// doublings of the growing vectors, never a per-instruction or
/// per-cycle allocation.
const BASELINE_ALLOCS_PER_BLOCK: u64 = 64;

#[test]
fn single_pass_baselines_allocate_a_bounded_amount_per_block() {
    for machine in [
        MachineConfig::paper_2c_8w(),
        MachineConfig::paper_4c_16w_lat2(),
    ] {
        for (i, sb) in golden_blocks().iter().enumerate() {
            let homes = live_in_placement(sb, machine.cluster_count(), i as u64);
            let runs: [(&str, &dyn Fn() -> f64); 3] = [
                ("cars", &|| {
                    CarsScheduler::new(machine.clone())
                        .schedule_with_live_ins(sb, &homes)
                        .awct
                }),
                ("uas", &|| {
                    UasScheduler::new(machine.clone(), ClusterOrder::Cwp)
                        .schedule_with_live_ins(sb, &homes)
                        .awct
                }),
                ("two-phase", &|| {
                    TwoPhaseScheduler::new(machine.clone())
                        .schedule_with_live_ins(sb, &homes)
                        .awct
                }),
            ];
            for (name, run) in runs {
                let (_, allocs, _) = counted(run);
                assert!(
                    allocs <= BASELINE_ALLOCS_PER_BLOCK,
                    "{name} on block {i} ({} instructions, {}): {allocs} allocations; \
                     the budget is {BASELINE_ALLOCS_PER_BLOCK}",
                    sb.len(),
                    machine.name()
                );
            }
        }
    }
}

/// Every combination, pin and fuse decision the first stages could study
/// on `st`.
fn decisions(st: &SchedulingState) -> Vec<Decision> {
    let mut out = Vec::new();
    for e in &st.edges {
        if let EdgeState::Open(dom) = &e.state {
            for d in dom.iter() {
                out.push(Decision::ChooseComb { u: e.u, v: e.v, d });
                out.push(Decision::DiscardComb { u: e.u, v: e.v, d });
            }
        }
    }
    for node in 0..st.ctx.n_insts {
        if !st.pinned(node) {
            out.push(Decision::Pin {
                node,
                cycle: st.est[node],
            });
            out.push(Decision::Pin {
                node,
                cycle: st.lst[node],
            });
        }
    }
    for c in 0..st.ctx.machine.cluster_count() {
        for node in 0..st.ctx.n_insts {
            out.push(Decision::Fuse(node, st.ctx.anchor(c)));
        }
    }
    out
}

/// Warm-up passes over the candidate decisions before counting: the
/// first pass grows the state's buffers; a pooled buffer can serve a
/// different rule on the second, and grow once more there.
const PASSES: usize = 2;

/// Most decisions studied per block (an even sample of the full list),
/// to keep the debug-build run short on the 99-instruction blocks.
const MAX_STUDIES: usize = 400;

#[test]
fn deduction_studies_allocate_nothing_when_warm() {
    let machine = MachineConfig::paper_2c_8w();
    let mut studied = 0;
    for (i, sb) in golden_blocks().iter().enumerate() {
        let ctx = StateCtx::new(sb, &machine);
        let windows = sg_windows(&ctx);
        let horizon = 4 + 2 * ctx.n_insts as i64;
        let lstarts = vec![horizon; ctx.n_insts];
        let homes = live_in_placement(sb, machine.cluster_count(), i as u64);
        let Ok(mut st) = build_state(
            &ctx,
            &windows,
            &lstarts,
            horizon,
            &homes,
            &mut Budget::unlimited(),
        ) else {
            continue;
        };
        let all = decisions(&st);
        let all: Vec<Decision> = all
            .iter()
            .step_by(all.len().div_ceil(MAX_STUDIES).max(1))
            .cloned()
            .collect();
        let study_all = |st: &mut SchedulingState| {
            for d in &all {
                let _ = study_decision(st, d, &mut Budget::unlimited());
            }
        };
        for _ in 0..PASSES {
            study_all(&mut st);
        }
        let ((), allocs, _) = counted(|| study_all(&mut st));
        assert_eq!(allocs, 0, "block {i}: {} warm studies allocated", all.len());
        studied += all.len();
    }
    assert!(studied > 1000, "only {studied} studies exercised");
}

#[test]
fn reservation_table_clone_is_one_allocation() {
    for machine in [
        MachineConfig::paper_2c_8w(),
        MachineConfig::paper_4c_16w_lat2(),
        MachineConfig::hetero_2c(),
    ] {
        let mut rt = ReservationTable::new(&machine);
        for cycle in 0..200 {
            rt.try_place(cycle, ClusterId((cycle % 2) as u8), OpClass::Mem);
            rt.try_reserve_bus(cycle * 3);
        }
        let (copy, allocs, _) = counted(|| rt.clone());
        assert!(
            allocs <= 1,
            "{}: clone made {allocs} allocations",
            machine.name()
        );
        assert_eq!(copy.horizon(), rt.horizon());
    }
}

/// A binary-wire frame of 128 nested containers (`tag` 0x08 arrays or
/// 0x09 objects keyed by interned string 0), each announcing as many
/// elements as there are bytes left, padded to `len` bytes with the
/// invalid tag 0xff.
fn inflated_frame(tag: u8, len: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    for _ in 0..128 {
        payload.push(tag);
        let count = len - payload.len() - 3;
        payload.extend_from_slice(&[
            0x80 | (count & 0x7f) as u8,
            0x80 | (count >> 7 & 0x7f) as u8,
            (count >> 14) as u8,
        ]);
        if tag == 0x09 {
            payload.extend_from_slice(&[0x07, 0]);
        }
    }
    payload.resize(len, 0xff);
    let mut frame = vec![
        0x80 | (len & 0x7f) as u8,
        0x80 | (len >> 7 & 0x7f) as u8,
        (len >> 14) as u8,
    ];
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn inflated_frame_counts_fail_with_bounded_allocation() {
    const LEN: usize = 64 << 10;
    for tag in [0x08, 0x09] {
        let frame = inflated_frame(tag, LEN);
        let (decoded, _, bytes) = counted(|| decode_frame(&frame, 1 << 20));
        let err = decoded.expect_err("the innermost tag is invalid");
        assert!(err.contains("unknown value tag"), "{err}");
        assert!(
            bytes <= 8 * LEN as u64,
            "tag 0x{tag:02x}: decoding a {LEN}-byte frame reserved {bytes} bytes"
        );
    }
}

/// Most bytes one exact matching on [`EXACT_NODE_LIMIT`] matchable nodes
/// may request. A table over every subset (`2^20` weights and choices)
/// requested about 24 MiB per call.
const MATCHING_BYTES_BUDGET: u64 = 1 << 20;

#[test]
fn exact_matching_memory_is_bounded_by_reachable_subsets() {
    // Stage 3's matching graph: virtual clusters joined by their outedge
    // counts — a sparse graph, here a weighted chain over every root with
    // a few chords between clusters that share several values.
    let n = EXACT_NODE_LIMIT;
    let mut edges: Vec<(usize, usize, u64)> = (0..n - 1)
        .map(|i| (i, i + 1, 1 + (i as u64 * 7) % 4))
        .collect();
    edges.extend([(0, 5, 3), (3, 11, 2), (8, 17, 4), (12, 19, 1)]);
    let (m, _, bytes) = counted(|| max_weight_matching(n, &edges));
    assert!(m.exact, "{n} matchable nodes take the exact path");
    assert!(
        bytes < MATCHING_BYTES_BUDGET,
        "an exact matching on {n} nodes requested {bytes} bytes; \
         the budget is {MATCHING_BYTES_BUDGET}"
    );
}

/// A `schedule` request line for `sb`, as a client writes it.
fn schedule_line(sb: &Superblock, id: u64) -> String {
    request_line(
        &Request::Schedule {
            block: sb.clone(),
            machine: "2c".to_owned(),
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
        Some(id),
    )
    .expect("requests serialize")
}

/// Allocations of a cache-hit `solve_one` per golden-corpus block
/// (paper 2-cluster machine, full portfolio, 5k steps), summed over the
/// corpus. It was 12,767 when the key was built from a `Value` tree, a
/// printed copy and a `format!` composite; the key now streams into a
/// reused buffer, so what is left is the hit's copy of the entry.
const CACHE_HIT_ALLOCS: u64 = 261;

#[test]
fn cache_hit_solve_allocates_only_the_answer() {
    let machine = MachineConfig::paper_2c_8w();
    let options = PolicyOptions {
        max_dp_steps: STEPS_1S,
        policies: PolicySet::full(),
        ..PolicyOptions::default()
    };
    let cache = ScheduleCache::in_memory(64);
    let mut total = 0;
    for (i, sb) in golden_blocks().iter().enumerate() {
        let homes = live_in_placement(sb, machine.cluster_count(), i as u64);
        let (cold, hit) = solve_one(sb, &machine, &homes, &options, &cache);
        assert!(!hit, "block {i}: the first solve races");
        let ((warm, hit), allocs, _) =
            counted(|| solve_one(sb, &machine, &homes, &options, &cache));
        assert!(hit, "block {i}: the second solve is a cache hit");
        assert_eq!(warm, cold, "block {i}: the hit answers what the race did");
        total += allocs;
    }
    assert_eq!(
        total, CACHE_HIT_ALLOCS,
        "cache hits over the golden corpus made {total} allocations"
    );
}

/// Allocations of parsing one `schedule` line per golden-corpus block
/// into a `Value`, summed over the corpus. It was 25,016, a parse plus
/// a deep copy of its tree; the tree now moves out of the parser.
const SCHEDULE_LINE_PARSE_ALLOCS: u64 = 12_608;

#[test]
fn parsing_a_request_line_allocates_one_tree() {
    let (mut parse, mut copy) = (0, 0);
    for (i, sb) in golden_blocks().iter().enumerate() {
        let line = schedule_line(sb, i as u64);
        let (v, allocs, _) = counted(|| serde_json::from_str::<Value>(&line).expect("parses"));
        parse += allocs;
        copy += counted(|| v.clone()).1;
    }
    // One tree's worth: its nodes plus the growth of its vectors, well
    // under the two trees a parse followed by a copy would make.
    assert!(
        parse < 2 * copy,
        "{parse} allocations; one tree copy is {copy}"
    );
    assert_eq!(
        parse, SCHEDULE_LINE_PARSE_ALLOCS,
        "parsing the golden corpus's schedule lines made {parse} allocations"
    );
}

/// Allocations of `serde_json::to_string` per golden-corpus block,
/// summed over the corpus. It was 12,241 through a `Value` tree; the
/// direct writer only grows the output string.
const BLOCK_PRINT_ALLOCS: u64 = 241;

#[test]
fn printing_a_block_allocates_only_its_text() {
    let mut total = 0;
    for sb in golden_blocks() {
        let (text, allocs, _) = counted(|| serde_json::to_string(&sb).expect("prints"));
        assert_eq!(
            serde_json::from_str::<Superblock>(&text).expect("reads back"),
            sb
        );
        total += allocs;
    }
    assert_eq!(
        total, BLOCK_PRINT_ALLOCS,
        "printing the golden corpus made {total} allocations"
    );
}
