//! Policy-versioning regression test: the schedule-cache key folds each
//! registered policy's `algorithm_version` in, so bumping one policy's
//! version invalidates exactly its own cached entries — sets that do not
//! contain the bumped policy keep hitting.

use vcsched_arch::{ClusterId, MachineConfig};
use vcsched_engine::{
    solve_one, PolicyBudget, PolicyOptions, PolicyOutcome, PolicyRegistry, PolicySet,
    ScheduleCache, SchedulePolicy,
};
use vcsched_ir::Superblock;
use vcsched_workload::{benchmark, generate_block, live_in_placement, InputSet};

/// A CARS-backed test policy with an explicit name and algorithm version.
struct VersionedCars {
    name: &'static str,
    version: &'static str,
}

impl SchedulePolicy for VersionedCars {
    fn name(&self) -> &'static str {
        self.name
    }

    fn algorithm_version(&self) -> &'static str {
        self.version
    }

    fn schedule(
        &self,
        block: &Superblock,
        machine: &MachineConfig,
        homes: &[ClusterId],
        budget: &PolicyBudget,
    ) -> PolicyOutcome {
        vcsched_cars::CarsPolicy.schedule(block, machine, homes, budget)
    }
}

/// A registry where `mycars` is at `mycars_version`. Leaked because a
/// policy set carries its registry for the life of the process.
fn registry(mycars_version: &'static str) -> &'static PolicyRegistry {
    let mut r = PolicyRegistry::empty();
    r.register("mycars", "versioned test policy", move || {
        Box::new(VersionedCars {
            name: "mycars",
            version: mycars_version,
        })
    })
    .expect("fresh registry");
    r.register("othercars", "control policy", || {
        Box::new(VersionedCars {
            name: "othercars",
            version: "1",
        })
    })
    .expect("fresh registry");
    Box::leak(Box::new(r))
}

fn fixture() -> (Superblock, MachineConfig, Vec<ClusterId>) {
    let spec = benchmark("130.li").expect("known benchmark");
    let sb = generate_block(&spec, 11, 2, InputSet::Ref);
    let machine = MachineConfig::paper_2c_8w();
    let homes = live_in_placement(&sb, machine.cluster_count(), 11);
    (sb, machine, homes)
}

fn opts(set: PolicySet) -> PolicyOptions {
    PolicyOptions {
        max_dp_steps: 1_000,
        policies: set,
        early_cancel: false,
        max_trail_bytes: None,
        deadline_steps: None,
    }
}

#[test]
fn versioned_keys_spell_each_members_version() {
    let v1 = PolicySet::parse_with("mycars,othercars", registry("1")).expect("valid set");
    let v2 = PolicySet::parse_with("mycars,othercars", registry("2")).expect("valid set");
    assert_eq!(v1.versioned_key(), "mycars@1,othercars@1");
    assert_eq!(v2.versioned_key(), "mycars@2,othercars@1");
    // The plain spelling (summaries, wire protocol) stays unqualified.
    assert_eq!(v1.key(), "mycars,othercars");
    // Same names from different registries are different sets.
    assert_ne!(v1, v2);
    // Built-in sets resolve through the built-in registry.
    assert_eq!(PolicySet::single().versioned_key(), "vc@1,cars@1");
}

#[test]
fn version_bump_invalidates_exactly_its_own_entries() {
    let (v1, v2) = (registry("1"), registry("2"));
    let (sb, machine, homes) = fixture();
    let set =
        |spec: &str, registry| opts(PolicySet::parse_with(spec, registry).expect("valid set"));
    let cache = ScheduleCache::in_memory(64);
    let solve = |options: &PolicyOptions| solve_one(&sb, &machine, &homes, options, &cache);

    // Cold: both sets insert their entries under version 1.
    let (out_my_v1, hit) = solve(&set("mycars", v1));
    assert!(!hit, "cold cache");
    let (_, hit) = solve(&set("othercars", v1));
    assert!(!hit, "different set, different entry");

    // Warm: same versions answer from cache.
    let (_, hit) = solve(&set("mycars", v1));
    assert!(hit, "same version must hit");
    let (_, hit) = solve(&set("othercars", v1));
    assert!(hit, "same version must hit");

    // Bump `mycars` to version 2: exactly its own entries stop matching.
    let (out_my_v2, hit) = solve(&set("mycars", v2));
    assert!(!hit, "bumped version must miss (entry invalidated)");
    let (_, hit) = solve(&set("othercars", v2));
    assert!(hit, "untouched policy's entries keep hitting");

    // And the rescheduled result is remembered under the new version.
    let (_, hit) = solve(&set("mycars", v2));
    assert!(hit, "new-version entry is cached in turn");
    assert_eq!(out_my_v1.schedule, out_my_v2.schedule, "same algorithm");
}
