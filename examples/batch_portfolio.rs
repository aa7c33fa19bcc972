//! Batch portfolio scheduling through `vcsched-engine`.
//!
//! Schedules a synthetic SpecInt corpus twice on the paper's 4-cluster
//! 2-cycle-bus machine (where scheduler choice matters most): a cold run
//! that exercises the four-scheduler portfolio on the worker pool, then a
//! warm run served from the memoizing schedule cache. Prints the win
//! table and the speedup the cache delivers.
//!
//! Run with: `cargo run --release --example batch_portfolio`

use vcsched::arch::MachineConfig;
use vcsched::engine::{
    run_batch_on, BatchConfig, CorpusSource, PolicySet, ScheduleCache, STEPS_1S,
};

fn main() -> Result<(), String> {
    let config = BatchConfig {
        source: CorpusSource::Synth {
            bench: "132.ijpeg".to_owned(),
            count: 60,
            seed: 0xC60_2007,
        },
        machine: MachineConfig::paper_4c_16w_lat2(),
        policies: PolicySet::full(),
        max_dp_steps: STEPS_1S,
        ..BatchConfig::default()
    };
    let blocks = config.source.load()?;
    let cache = ScheduleCache::in_memory(1 << 12);

    println!(
        "portfolio batch: {} on {} ({} workers)\n",
        config.source.describe(),
        config.machine.name(),
        config.jobs
    );

    let cold = run_batch_on(&config, &blocks, &cache);
    let s = &cold.summary;
    println!("cold run: {} blocks in {} ms", s.blocks, s.wall_ms);
    println!(
        "  wins: vc {}  cars {}  uas {}  two-phase {}  (vc timeouts: {})",
        s.wins.vc, s.wins.cars, s.wins.uas, s.wins.two_phase, s.vc_timeouts
    );
    println!("  aggregate AWCT {:.3}", s.aggregate_awct);

    let warm = run_batch_on(&config, &blocks, &cache);
    let w = &warm.summary;
    println!(
        "\nwarm run: {} blocks in {} ms ({} hits, {} misses)",
        w.blocks, w.wall_ms, w.cache.hits, w.cache.misses
    );
    assert_eq!(cold.outcomes, warm.outcomes, "cache must be transparent");

    // Every block's winner, for a feel of where each scheduler earns its
    // keep (larger blocks favour VC until the budget bites).
    println!("\nper-block winners (first 12):");
    for line in cold.lines.iter().take(12) {
        println!(
            "  {:<14} {:<9} AWCT {:>8.3}  weight {:>7}",
            line.name, line.winner, line.awct, line.weight
        );
    }
    Ok(())
}
