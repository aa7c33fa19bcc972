//! `DepGraph` and `StateCtx::paths` against brute force.
//!
//! Both are computed in one forward and one backward pass over
//! instruction ids. Here every fact is recomputed by enumerating every
//! dependence path of small random builder blocks — live-ins, several
//! exits, parallel and control edges, zero latencies — and must agree.

use proptest::prelude::*;
use vcsched_arch::{MachineConfig, OpClass};
use vcsched_core::StateCtx;
use vcsched_ir::{DepGraph, DepKind, ExitTargets, InstId, Superblock, SuperblockBuilder};

/// A random valid block of up to 14 instructions; `seed` drives a cheap
/// LCG (the structure matters, not its quality).
fn block(seed: u64) -> Superblock {
    let mut s = seed | 1;
    let mut next = move |m: u64| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) % m
    };
    #[derive(PartialEq)]
    enum Kind {
        LiveIn,
        Op,
        Exit,
    }
    let total = 2 + next(13) as usize;
    let kinds: Vec<Kind> = (0..total)
        .map(|i| match next(8) {
            _ if i + 1 == total => Kind::Exit,
            0 => Kind::LiveIn,
            1 => Kind::Exit,
            _ => Kind::Op,
        })
        .collect();
    let p = 1.0 / kinds.iter().filter(|k| **k == Kind::Exit).count() as f64;
    let mut b = SuperblockBuilder::new("oracle");
    let mut ids: Vec<InstId> = Vec::new();
    for kind in &kinds {
        let id = match kind {
            Kind::LiveIn => b.live_in(),
            Kind::Exit => b.exit(1 + next(3) as u32, p),
            Kind::Op => {
                let class = [OpClass::Int, OpClass::Mem, OpClass::Fp][next(3) as usize];
                b.inst(class, next(4) as u32)
            }
        };
        // Up to three dependences from earlier instructions; parallel
        // edges and zero latencies allowed, none into a live-in.
        if *kind != Kind::LiveIn && !ids.is_empty() {
            for _ in 0..next(4) {
                let from = ids[next(ids.len() as u64) as usize];
                let dep_kind = if next(4) == 0 {
                    DepKind::Control
                } else {
                    DepKind::Data
                };
                b.dep(from, id, dep_kind, next(4) as u32);
            }
        }
        ids.push(id);
    }
    let last = *ids.last().expect("at least one instruction");
    for id in b.dead_instructions() {
        b.data_dep(id, last);
    }
    b.build().expect("generated block is valid")
}

/// `longest[u][v]`: the heaviest dependence path `u → v` found by
/// enumerating every path (`Some(0)` for `u == v`).
fn brute_longest(sb: &Superblock) -> Vec<Vec<Option<i64>>> {
    fn walk(sb: &Superblock, u: usize, len: i64, best: &mut [Option<i64>]) {
        if best[u].is_none_or(|b| len > b) {
            best[u] = Some(len);
        }
        for d in sb.deps().iter().filter(|d| d.from.index() == u) {
            walk(sb, d.to.index(), len + d.latency as i64, best);
        }
    }
    (0..sb.len())
        .map(|u| {
            let mut best = vec![None; sb.len()];
            walk(sb, u, 0, &mut best);
            best
        })
        .collect()
}

/// `reach[u][v]`: some path of one or more edges leads from `u` to `v`.
fn brute_reach(sb: &Superblock) -> Vec<Vec<bool>> {
    fn walk(sb: &Superblock, u: usize, seen: &mut [bool]) {
        for d in sb.deps().iter().filter(|d| d.from.index() == u) {
            if !seen[d.to.index()] {
                seen[d.to.index()] = true;
                walk(sb, d.to.index(), seen);
            }
        }
    }
    (0..sb.len())
        .map(|u| {
            let mut seen = vec![false; sb.len()];
            walk(sb, u, &mut seen);
            seen
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn depgraph_matches_path_enumeration(seed in any::<u64>(), t in any::<u64>()) {
        let sb = block(seed);
        let n = sb.len();
        let dg = DepGraph::new(&sb);
        let longest = brute_longest(&sb);
        let reach = brute_reach(&sb);
        let exits: Vec<InstId> = sb.exits().map(|(x, _)| x).collect();
        prop_assert_eq!(dg.exits(), exits.as_slice());
        for v in 0..n {
            let estart = (0..n).filter_map(|u| longest[u][v]).max().unwrap_or(0);
            prop_assert_eq!(dg.estart(InstId(v as u32)), estart, "estart of i{}", v);
            for u in 0..n {
                prop_assert_eq!(
                    dg.reaches(InstId(u as u32), InstId(v as u32)),
                    reach[u][v],
                    "reaches i{} -> i{}", u, v
                );
            }
            for (k, x) in exits.iter().enumerate() {
                prop_assert_eq!(
                    dg.dist_to_exit(InstId(v as u32), k),
                    longest[v][x.index()],
                    "dist i{} -> exit {}", v, k
                );
            }
        }
        let cycles: Vec<i64> = (0..exits.len()).map(|k| (t >> (8 * (k % 8))) as i64 % 40).collect();
        let targets = ExitTargets::new(&sb, cycles.clone());
        let expected: Vec<i64> = (0..n)
            .map(|u| {
                exits
                    .iter()
                    .enumerate()
                    .filter_map(|(k, x)| longest[u][x.index()].map(|d| cycles[k] - d))
                    .min()
                    .unwrap_or(i64::MAX)
            })
            .collect();
        prop_assert_eq!(dg.lstarts(&targets), expected);
    }

    #[test]
    fn state_ctx_paths_match_path_enumeration(seed in any::<u64>()) {
        let sb = block(seed);
        let ctx = StateCtx::new(&sb, &MachineConfig::paper_2c_8w());
        let longest = brute_longest(&sb);
        for v in 0..sb.len() {
            for u in 0..sb.len() {
                prop_assert_eq!(ctx.paths[v][u], longest[u][v], "path i{} -> i{}", u, v);
            }
        }
    }
}
