//! The paper's running example, end to end.
//!
//! Reproduces, in order:
//! * Fig. 1 — the example superblock (I0..I4 at 2 cycles, B0/B1 at 3);
//! * Fig. 4 — its scheduling graph and combination table on the 1-cluster
//!   machine (2 non-branch + 1 branch per cycle);
//! * §5 / Fig. 9 — the full run on the 2-cluster machine: enhanced minAWCT
//!   9.1 is proven infeasible and the first valid schedule lands at 9.4.
//!
//! Run with `cargo run --example paper_example`.

use vcsched::arch::MachineConfig;
use vcsched::arch::OpClass;
use vcsched::core::{init, StateCtx, VcScheduler};
use vcsched::ir::{InstId, Superblock, SuperblockBuilder};

fn fig1_block() -> Superblock {
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
    b.build().expect("the paper's block is well-formed")
}

fn name(sb: &Superblock, id: usize) -> String {
    let inst = sb.inst(InstId(id as u32));
    if inst.is_exit() {
        // Exits in program order: B0 is instruction 4, B1 instruction 6.
        if id == 4 {
            "B0".into()
        } else {
            "B1".into()
        }
    } else {
        format!("I{}", if id < 4 { id } else { 4 })
    }
}

fn main() {
    let sb = fig1_block();
    println!("== Fig. 1: superblock dependence graph ==");
    for d in sb.deps() {
        println!(
            "  {} -> {}  ({:?}, latency {})",
            name(&sb, d.from.index()),
            name(&sb, d.to.index()),
            d.kind,
            d.latency
        );
    }

    println!("\n== Fig. 4: scheduling graph on the 1-cluster example machine ==");
    let m1 = MachineConfig::paper_example_1c();
    let ctx = StateCtx::new(&sb, &m1);
    let windows = init::sg_windows(&ctx);
    println!("  pair        feasible combinations (cycle(u) - cycle(v))");
    for (u, v, w) in &windows {
        // The branch pair loses combination 0 to the 1-branch/cycle limit.
        let combos: Vec<i64> = (w.lo..=w.hi)
            .filter(|&d| {
                !(d == 0
                    && ctx.classes[*u] == ctx.classes[*v]
                    && m1.total_capacity(ctx.classes[*u]) == 1)
            })
            .collect();
        println!("  ({}, {})    {:?}", name(&sb, *u), name(&sb, *v), combos);
    }

    println!("\n== §5: scheduling on the 2-cluster example machine ==");
    let m2 = MachineConfig::paper_example_2c();
    let out = VcScheduler::new(m2)
        .schedule(&sb)
        .expect("the paper's example schedules");
    println!(
        "  enhanced minAWCT {:.1} (the paper proves B1 cannot sit at cycle 6)",
        out.stats.min_awct
    );
    println!(
        "  first valid AWCT {:.1} after {} AWCT increase(s)",
        out.awct, out.stats.spec.awct_bumps
    );
    for id in sb.ids() {
        println!(
            "  {}  cycle {}  {}",
            name(&sb, id.index()),
            out.schedule.cycle(id),
            out.schedule.cluster(id)
        );
    }
    for cp in &out.schedule.copies {
        println!(
            "  copy of {}: {} -> {} at cycle {}",
            name(&sb, cp.value.index()),
            cp.from,
            cp.to,
            cp.cycle
        );
    }
    assert!((out.stats.min_awct - 9.1).abs() < 1e-9);
    assert!((out.awct - 9.4).abs() < 1e-9);
    println!("\nmatches the paper: minAWCT 9.1 rejected, schedule found at 9.4");
}
