//! Quickstart: build a superblock, schedule it for a clustered VLIW with
//! both schedulers, and print the resulting schedules.
//!
//! Run with `cargo run --example quickstart`.

use vcsched::arch::{MachineConfig, OpClass};
use vcsched::cars::CarsScheduler;
use vcsched::core::VcScheduler;
use vcsched::ir::{Schedule, Superblock, SuperblockBuilder};
use vcsched::sim::validate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small superblock: a load feeds two independent multiply-like chains
    // that meet at a store before the (single) exit branch.
    let mut b = SuperblockBuilder::new("quickstart");
    let base = b.live_in(); // address arrives in a register file at entry
    let load = b.inst(OpClass::Mem, 2);
    let mul1 = b.inst(OpClass::Int, 3);
    let mul2 = b.inst(OpClass::Int, 3);
    let add = b.inst(OpClass::Int, 1);
    let store = b.inst(OpClass::Mem, 2);
    let exit = b.exit(1, 1.0);
    b.data_dep(base, load)
        .data_dep(load, mul1)
        .data_dep(load, mul2)
        .data_dep(mul1, add)
        .data_dep(mul2, add)
        .data_dep(add, store)
        .ctrl_dep(store, exit);
    b.data_dep(store, exit);
    let sb = b.build()?;

    // The paper's 2-cluster, 8-issue machine with a 1-cycle bus.
    let machine = MachineConfig::paper_2c_8w();
    println!("machine: {machine}\n");

    let vc = VcScheduler::new(machine.clone()).schedule(&sb)?;
    println!(
        "virtual-cluster scheduler: AWCT {:.2} (lower bound {:.2}), {} copies, {} DP steps",
        vc.awct,
        vc.stats.min_awct,
        vc.schedule.copy_count(),
        vc.stats.spec.dp_steps
    );
    print_schedule(&sb, &vc.schedule);

    let cars = CarsScheduler::new(machine.clone()).schedule(&sb);
    println!(
        "\nCARS baseline: AWCT {:.2}, {} copies",
        cars.awct,
        cars.schedule.copy_count()
    );
    print_schedule(&sb, &cars.schedule);

    // Both schedules must pass the machine-level validator.
    validate(&sb, &machine, &vc.schedule).expect("VC schedule is valid");
    validate(&sb, &machine, &cars.schedule).expect("CARS schedule is valid");
    println!("\nboth schedules validated.");
    Ok(())
}

fn print_schedule(sb: &Superblock, s: &Schedule) {
    for id in sb.ids() {
        let inst = sb.inst(id);
        println!(
            "  {id}  cycle {:>2}  {}  {}{}",
            s.cycle(id),
            s.cluster(id),
            inst.class(),
            if inst.is_live_in() { " (live-in)" } else { "" },
        );
    }
    for cp in &s.copies {
        println!(
            "  copy of {}: {} -> {} at cycle {}",
            cp.value, cp.from, cp.to, cp.cycle
        );
    }
}
