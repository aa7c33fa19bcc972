//! Tests of the speculation engine (§4.4.2), over synthesized blocks ×
//! machines: a trail study rolls back bit-exactly, and adopting a winner
//! by re-deduction reaches the kept state and charges the studied work
//! bytes. Every candidate decision is also checked against the paper's
//! literal clone-and-discard study — clone the state, apply the decision
//! to the clone — as the reference: same contradictions, same scores,
//! and bit-identical states after adoption. Whole-search identity
//! (schedules, winners, step counts) is pinned by `tests/vc_pins.rs`.

use proptest::prelude::*;
use vcsched_arch::{ClusterId, MachineConfig, OpClass};
use vcsched_core::{
    decision::{apply_decision, replay_decision, study_and_keep, study_decision},
    dp::Budget,
    init::{build_state, sg_windows},
    Decision, EdgeState, SchedulingState, StateCtx, VcError, VcOptions, VcScheduler,
};
use vcsched_ir::{Superblock, SuperblockBuilder};

/// Canonical fingerprint of every observable of a scheduling state.
///
/// Union-find internals are canonicalized (minimum member represents each
/// set; offsets are taken relative to it) because path compression — the
/// one thing the engines legitimately do differently — must not count as
/// a difference. Everything else is included verbatim.
fn fingerprint(st: &SchedulingState) -> String {
    use std::fmt::Write as _;
    let n = st.kind.len();
    let mut out = String::new();
    let _ = write!(out, "est={:?};lst={:?};", st.est, st.lst);
    let _ = write!(out, "succ={:?};pred={:?};", st.succ, st.pred);
    // Canonical VC view: min member of each set.
    let vc_roots: Vec<usize> = (0..n).map(|i| st.vc.find_const(i)).collect();
    let mut vc_min = vec![usize::MAX; n];
    for (i, &r) in vc_roots.iter().enumerate() {
        vc_min[r] = vc_min[r].min(i);
    }
    let vc_canon: Vec<usize> = vc_roots.iter().map(|&r| vc_min[r]).collect();
    let _ = write!(out, "vc={vc_canon:?};");
    // Canonical CC view: min member plus offset relative to it.
    let cc_raw: Vec<(usize, i64)> = (0..n).map(|i| st.cc.find_const(i)).collect();
    let mut cc_min = vec![usize::MAX; n];
    for (i, &(r, _)) in cc_raw.iter().enumerate() {
        cc_min[r] = cc_min[r].min(i);
    }
    let cc_canon: Vec<(usize, i64)> = cc_raw
        .iter()
        .map(|&(r, o)| {
            let m = cc_min[r];
            (m, o - cc_raw[m].1)
        })
        .collect();
    let _ = write!(out, "cc={cc_canon:?};");
    let adj: Vec<Vec<usize>> = st.vc_adj.iter().map(|s| s.iter().collect()).collect();
    let _ = write!(out, "vc_adj={adj:?};");
    for e in &st.edges {
        let _ = write!(out, "e({},{},{:?},{:?});", e.u, e.v, e.window, e.state);
    }
    let _ = write!(out, "edges_at={:?};", st.edges_at);
    for c in &st.comms {
        let _ = write!(out, "comm({},{:?});", c.node, c.kind);
    }
    let _ = write!(
        out,
        "flc={:?};plc={:?};horizon={};dirty={};cc_list={:?};vc_list={:?};",
        st.flc_by_value, st.plc_seen, st.horizon, st.dirty, st.cc_list, st.vc_list
    );
    out
}

/// Random small superblock: layered DAG, a couple of live-ins, one exit.
fn arb_superblock() -> impl Strategy<Value = Superblock> {
    (3usize..12, any::<u64>()).prop_map(|(n, seed)| {
        let mut s = seed | 1;
        let mut next = move |m: u64| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        let mut b = SuperblockBuilder::new("spec");
        let li0 = b.live_in();
        let li1 = b.live_in();
        let mut ids = vec![li0, li1];
        for i in 2..n + 2 {
            let class = match next(10) {
                0..=2 => OpClass::Mem,
                3 => OpClass::Fp,
                _ => OpClass::Int,
            };
            let id = b.inst(class, 1 + next(3) as u32);
            for _ in 0..1 + next(2) {
                let p = ids[next(i as u64) as usize];
                if p != id {
                    b.data_dep(p, id);
                }
            }
            ids.push(id);
        }
        let x = b.exit(1 + next(3) as u32, 1.0);
        for &id in ids.iter().skip(2) {
            b.data_dep(id, x);
        }
        b.build().expect("valid block")
    })
}

fn machines() -> Vec<MachineConfig> {
    vec![
        MachineConfig::paper_2c_8w(),
        MachineConfig::paper_4c_16w_lat1(),
    ]
}

/// Every candidate decision the stages could study on `st`, capped.
fn candidate_decisions(st: &SchedulingState) -> Vec<Decision> {
    let mut out = Vec::new();
    for e in st.edges.iter().take(6) {
        if let EdgeState::Open(dom) = &e.state {
            for d in dom.iter().take(2) {
                out.push(Decision::ChooseComb { u: e.u, v: e.v, d });
                out.push(Decision::DiscardComb { u: e.u, v: e.v, d });
            }
        }
    }
    let n = st.ctx.n_insts;
    for node in 0..n.min(6) {
        if st.est[node] != st.lst[node] {
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
    for a in 0..n.min(4) {
        for bn in a + 1..n.min(4) {
            out.push(Decision::Fuse(a, bn));
            out.push(Decision::Incompat(a, bn));
        }
    }
    for c in 0..st.ctx.machine.cluster_count() {
        out.push(Decision::Fuse(0, st.ctx.anchor(c)));
    }
    out
}

fn built_state(sb: &Superblock, machine: &MachineConfig) -> Option<SchedulingState> {
    let ctx = StateCtx::new(sb, machine);
    let windows = sg_windows(&ctx);
    let horizon = 6 + 2 * ctx.n_insts as i64;
    let lstarts = vec![horizon; ctx.n_insts];
    let homes: Vec<ClusterId> = (0..2).map(|i| ClusterId(i as u8 % 2)).collect();
    build_state(
        &ctx,
        &windows,
        &lstarts,
        horizon,
        &homes,
        &mut Budget::unlimited(),
    )
    .ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per candidate decision: the trail study restores the state
    /// bit-exactly, and adopting a viable decision by re-deduction
    /// ([`replay_decision`]) reaches the studied score and the state
    /// [`study_and_keep`] keeps.
    #[test]
    fn study_rolls_back_and_adoption_matches_keep(sb in arb_superblock()) {
        for machine in machines() {
            let Some(mut st) = built_state(&sb, &machine) else { continue };
            let before = fingerprint(&st);
            for decision in candidate_decisions(&st) {
                let studied = study_decision(&mut st, &decision, &mut Budget::unlimited());
                prop_assert_eq!(
                    fingerprint(&st), before.clone(),
                    "study rollback must restore the state ({decision:?})"
                );
                if let Ok(score) = studied {
                    let mut adopted = st.clone();
                    replay_decision(&mut adopted, &decision);
                    prop_assert_eq!(adopted.score(), score,
                        "the adopted state must have the studied score ({decision:?})");
                    let mut kept = st.clone();
                    study_and_keep(&mut kept, &decision, &mut Budget::unlimited())
                        .expect("viable decision");
                    prop_assert_eq!(fingerprint(&adopted), fingerprint(&kept),
                        "adoption must equal keeping the study ({decision:?})");
                }
            }
        }
    }

    /// Per candidate decision: adopting by re-deduction charges exactly
    /// the work bytes the study charged, so a byte budget prices a
    /// winner's adoption the same as its study.
    #[test]
    fn adoption_charges_the_studied_work_bytes(sb in arb_superblock()) {
        for machine in machines() {
            let Some(mut st) = built_state(&sb, &machine) else { continue };
            for decision in candidate_decisions(&st) {
                let start = st.trail.work_bytes();
                let studied = study_decision(&mut st, &decision, &mut Budget::unlimited());
                let study_bytes = st.trail.work_bytes() - start;
                if studied.is_ok() {
                    let mut adopted = st.clone();
                    let start = adopted.trail.work_bytes();
                    replay_decision(&mut adopted, &decision);
                    prop_assert_eq!(adopted.trail.work_bytes() - start, study_bytes,
                        "adoption must charge the studied bytes ({decision:?})");
                    prop_assert_eq!(adopted.trail.adopted_bytes(), study_bytes);
                }
            }
        }
    }

    /// Per candidate decision, against the paper's literal §4.4.2
    /// mechanism — clone the state and apply the decision to the clone:
    /// the trail study and the clone agree on viability and score, the
    /// trail rollback restores the state bit-exactly, and keeping the
    /// deltas equals adopting the clone.
    #[test]
    fn trail_study_matches_clone_study(sb in arb_superblock()) {
        for machine in machines() {
            let Some(mut st) = built_state(&sb, &machine) else { continue };
            let before = fingerprint(&st);
            for decision in candidate_decisions(&st) {
                // Trail-based study: state must come back bit-exact.
                let trail = study_decision(&mut st, &decision, &mut Budget::unlimited());
                prop_assert_eq!(
                    fingerprint(&st), before.clone(),
                    "rollback must restore the state ({decision:?})"
                );
                // Clone-based study on the same state.
                let mut future = st.clone();
                let cloned = apply_decision(&mut future, &decision, &mut Budget::unlimited());
                match (trail, cloned) {
                    (Ok(score), Ok(())) => {
                        prop_assert_eq!(score, future.score(),
                            "both studies must score the future identically");
                        // Keeping the deltas equals adopting the clone.
                        let mut kept = st.clone();
                        study_and_keep(&mut kept, &decision, &mut Budget::unlimited())
                            .expect("viable decision");
                        prop_assert_eq!(fingerprint(&kept), fingerprint(&future),
                            "committed deltas must equal the adopted clone");
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (a, b) => prop_assert!(false,
                        "studies disagree on {decision:?}: trail {a:?} vs clone {b:?}"),
                }
            }
        }
    }
}

/// The trail engine actually speculates (non-zero telemetry) on a block
/// that needs studies, and reports the clone bytes it avoided.
#[test]
fn trail_telemetry_counts_rollbacks_and_saved_bytes() {
    let mut b = SuperblockBuilder::new("telemetry");
    let ids: Vec<_> = (0..6).map(|_| b.inst(OpClass::Int, 2)).collect();
    let x = b.exit(1, 1.0);
    for &id in &ids {
        b.data_dep(id, x);
    }
    let sb = b.build().expect("valid block");
    let out = VcScheduler::new(MachineConfig::paper_2c_8w())
        .schedule(&sb)
        .expect("schedules");
    let spec = out.stats.spec;
    assert!(spec.trail_entries > 0, "studies must record undo entries");
    assert!(spec.rollbacks > 0, "studies must roll back");
    assert!(spec.peak_trail_depth > 0);
    assert!(
        spec.bytes_not_cloned > 0,
        "each rollback credits the clone it avoided"
    );
    assert!(spec.redo_replays > 0, "stage winners must be adopted");
    assert!(
        spec.redo_bytes_replayed > 0,
        "adoptions charge their re-deduced work bytes"
    );
}

/// Stage-2 budget-aware early-cancel (ROADMAP): on a single-exit block
/// whose enhanced-minAWCT enumeration is capped, the search keeps hitting
/// *certified* (deduction-level) infeasibilities while bumping; each bump
/// re-certifies the lower bound against the sealed portfolio bound and
/// abandons with `Beaten` as soon as it crosses — well before the full
/// search would have finished.
#[test]
fn certified_bump_recertifies_against_the_cutoff() {
    // K live-in pairs homed on opposite clusters, each feeding its own
    // consumer: every consumer needs one bus transfer, so the exit sits
    // ~K cycles out behind the single bus. Rotating the consumer classes
    // keeps the *resource* walls (what the unconstrained minAWCT pass
    // can see) far below the bus wall, so the §4.2 enhancement caps at
    // `MAX_ENHANCE_STEPS` and the main loop walks the rest of the way
    // through *certified* (deduction-level) build contradictions.
    const K: usize = 60;
    let mut b = SuperblockBuilder::new("buswall");
    let mut homes = Vec::new();
    let mut consumers = Vec::new();
    let classes = [OpClass::Int, OpClass::Mem, OpClass::Fp];
    for i in 0..K {
        let u = b.live_in();
        let v = b.live_in();
        homes.push(ClusterId(0));
        homes.push(ClusterId(1));
        let c = b.inst(classes[i % 3], 1);
        b.data_dep(u, c).data_dep(v, c);
        consumers.push(c);
    }
    let x = b.exit(1, 1.0);
    for &c in &consumers {
        b.data_dep(c, x);
    }
    let sb = b.build().expect("valid block");
    let machine = MachineConfig::paper_2c_8w();

    let run = |cutoff: Option<f64>| {
        VcScheduler::with_options(
            machine.clone(),
            VcOptions {
                awct_cutoff: cutoff,
                ..VcOptions::default()
            },
        )
        .try_schedule_with_live_ins(&sb, &homes)
    };
    let full = run(None);
    let out = full.result.expect("block schedules without a cutoff");
    assert!(
        out.stats.spec.awct_bumps > 0,
        "fixture must bump (got {} bumps)",
        out.stats.spec.awct_bumps
    );
    assert!(
        out.stats.min_awct < out.awct,
        "fixture needs a gap between minAWCT {} and achieved {}",
        out.stats.min_awct,
        out.awct
    );
    // A sealed bound strictly between minAWCT and the achievable AWCT:
    // the up-front check passes, so only per-bump re-certification can
    // (and must) cancel the search.
    let cutoff = (out.stats.min_awct + out.awct) / 2.0;
    let cancelled = run(Some(cutoff));
    assert_eq!(
        cancelled.result.as_ref().err(),
        Some(&VcError::Beaten),
        "mid-search re-certification must fire"
    );
    assert!(
        cancelled.spec.dp_steps < full.spec.dp_steps,
        "cancelling must save work: {} vs {}",
        cancelled.spec.dp_steps,
        full.spec.dp_steps
    );
    // Ties survive by construction (strict comparison) — covered by
    // `tying_bound_keeps_the_search_alive` in the policy unit tests.
}
