//! The policy registry: the canonical name → constructor table, and the
//! validated, deterministically ordered policy *sets* built from it.
//!
//! Everything that selects schedulers by name — `vcsched batch
//! --policies vc,cars`, the service protocol's `"policies"` field, the
//! schedule-cache key — resolves through one [`PolicyRegistry`]. Adding a
//! policy is one trait impl plus one [`PolicyRegistry::register`] call;
//! no layer above the registry enumerates policies by hand.

use std::sync::OnceLock;

use vcsched_policy::SchedulePolicy;

/// Constructor plus catalogue metadata for one registered policy.
struct RegisteredPolicy {
    name: String,
    origin: String,
    /// [`SchedulePolicy::algorithm_version`], captured at registration —
    /// folded into the schedule-cache key so bumping one policy's version
    /// invalidates exactly that policy's cached entries.
    version: String,
    ctor: Box<dyn Fn() -> Box<dyn SchedulePolicy> + Send + Sync>,
}

/// The name → constructor table the engine resolves policies through.
pub struct PolicyRegistry {
    entries: Vec<RegisteredPolicy>,
}

impl PolicyRegistry {
    /// An empty registry (for fully custom policy tables).
    pub fn empty() -> PolicyRegistry {
        PolicyRegistry {
            entries: Vec::new(),
        }
    }

    /// A registry holding the built-in policies. The first four are the
    /// paper's §6.1 portfolio in its canonical tie-break order (`vc`,
    /// `cars`, `uas`, `two-phase`); the UAS cluster-order variants
    /// follow, so appending them never changes an existing tie-break.
    pub fn with_builtins() -> PolicyRegistry {
        let mut r = PolicyRegistry::empty();
        r.register("vc", "the paper's virtual-cluster scheduler (§4)", || {
            Box::new(vcsched_core::VcPolicy::new())
        })
        .expect("fresh registry");
        r.register(
            "cars",
            "CARS single-pass list scheduling (HPCA 2001)",
            || Box::new(vcsched_cars::CarsPolicy::new()),
        )
        .expect("fresh registry");
        r.register(
            "uas",
            "unified assign-and-schedule, CWP order (MICRO 1998)",
            || Box::new(vcsched_baselines::UasPolicy::cwp()),
        )
        .expect("fresh registry");
        r.register(
            "two-phase",
            "partition first, schedule second (Bulldog school)",
            || Box::new(vcsched_baselines::TwoPhasePolicy),
        )
        .expect("fresh registry");
        r.register(
            "uas-mwp",
            "UAS, magnitude-weighted-predecessors order (MICRO 1998)",
            || Box::new(vcsched_baselines::UasPolicy::mwp()),
        )
        .expect("fresh registry");
        r.register(
            "uas-none",
            "UAS, fixed PC0..PCn cluster order (MICRO 1998)",
            || Box::new(vcsched_baselines::UasPolicy::unordered()),
        )
        .expect("fresh registry");
        r.register(
            "uas-balance",
            "UAS, least-loaded-cluster-first order",
            || Box::new(vcsched_baselines::UasPolicy::balance()),
        )
        .expect("fresh registry");
        r.register(
            "two-phase-balance",
            "two-phase, balance-weighted partition (w=2)",
            || Box::new(vcsched_baselines::TwoPhaseBalancePolicy),
        )
        .expect("fresh registry");
        r
    }

    /// The shared built-in registry (constructed once per process).
    pub fn builtin() -> &'static PolicyRegistry {
        static BUILTIN: OnceLock<PolicyRegistry> = OnceLock::new();
        BUILTIN.get_or_init(PolicyRegistry::with_builtins)
    }

    /// Registers a policy under `name`. Fails on a duplicate name or if
    /// the constructed policy disagrees about its own name (the registry
    /// key and [`SchedulePolicy::name`] must be the same string — it is
    /// the identity used in win tables and cache keys).
    pub fn register<F>(&mut self, name: &str, origin: &str, ctor: F) -> Result<(), String>
    where
        F: Fn() -> Box<dyn SchedulePolicy> + Send + Sync + 'static,
    {
        if name.is_empty() || name.contains(',') || name.contains(char::is_whitespace) {
            return Err(format!("invalid policy name `{name}`"));
        }
        if self.index_of(name).is_some() {
            return Err(format!("policy `{name}` is already registered"));
        }
        let built = ctor();
        if built.name() != name {
            return Err(format!(
                "policy registered as `{name}` but names itself `{}`",
                built.name()
            ));
        }
        self.entries.push(RegisteredPolicy {
            name: name.to_owned(),
            origin: origin.to_owned(),
            version: built.algorithm_version().to_owned(),
            ctor: Box::new(ctor),
        });
        Ok(())
    }

    /// The algorithm version registered under `name` (see
    /// [`SchedulePolicy::algorithm_version`]).
    fn version_of(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.version.as_str())
    }

    /// Position of `name` in the canonical (tie-break) order.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// Constructs the policy registered under `name`.
    pub fn create(&self, name: &str) -> Result<Box<dyn SchedulePolicy>, String> {
        match self.entries.iter().find(|e| e.name == name) {
            Some(e) => Ok((e.ctor)()),
            None => Err(format!(
                "unknown policy `{name}` (one of {})",
                self.names().join(", ")
            )),
        }
    }

    /// Registered names, in canonical order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// `(name, origin)` pairs, in canonical order — the catalogue behind
    /// `vcsched policies` and the README table.
    pub fn catalogue(&self) -> Vec<(&str, &str)> {
        self.entries
            .iter()
            .map(|e| (e.name.as_str(), e.origin.as_str()))
            .collect()
    }
}

/// A validated, deduplicated policy set in canonical (registry) order —
/// the deterministic tie-break order the racer uses — carrying the
/// registry it was validated against.
///
/// Canonicalization makes `"cars,vc"` and `"vc,cars"` the *same* set:
/// same race, same tie-breaks, same cache key. Because the set carries
/// its registry, the race constructs its members and the cache key
/// spells their versions through that registry, with no registry
/// argument beside the set. Two sets are equal when they name the same
/// members of the same registry.
#[derive(Clone)]
pub struct PolicySet {
    names: Vec<String>,
    registry: &'static PolicyRegistry,
}

impl PolicySet {
    /// The paper's §6.1 single mode: VC under the step budget with CARS
    /// riding along as fallback and comparison.
    pub fn single() -> PolicySet {
        PolicySet::builtin(&["vc", "cars"])
    }

    /// The paper's §6.1 four-scheduler portfolio: `vc`, `cars`, `uas`,
    /// `two-phase` — the fixed set `--portfolio` spells, regardless of
    /// what else is registered ([`PolicySet::all`] races everything).
    pub fn full() -> PolicySet {
        PolicySet::builtin(&["vc", "cars", "uas", "two-phase"])
    }

    /// Every registered built-in policy (the §6.1 four plus the UAS
    /// cluster-order variants) — the widest portfolio the adaptive
    /// selector can learn over.
    pub fn all() -> PolicySet {
        PolicySet::builtin(&PolicyRegistry::builtin().names())
    }

    /// Built-in names already in canonical order.
    fn builtin(names: &[&str]) -> PolicySet {
        PolicySet {
            names: names.iter().map(|&n| n.to_owned()).collect(),
            registry: PolicyRegistry::builtin(),
        }
    }

    /// Parses a comma-separated spec (`"vc,cars"`) against the built-in
    /// registry. Unknown names are an error; duplicates collapse; the
    /// result is re-ordered canonically.
    pub fn parse(spec: &str) -> Result<PolicySet, String> {
        PolicySet::parse_with(spec, PolicyRegistry::builtin())
    }

    /// [`PolicySet::parse`] against an explicit registry, which the set
    /// then carries.
    pub fn parse_with(spec: &str, registry: &'static PolicyRegistry) -> Result<PolicySet, String> {
        PolicySet::from_names_with(&PolicySet::split_spec(spec), registry)
    }

    /// Splits a comma-separated policy spec into raw names (trimmed,
    /// empties dropped) — the one grammar shared by the CLI flags, the
    /// wire protocol's string form and [`PolicySet::parse`]. No
    /// validation happens here; feed the result to
    /// [`PolicySet::from_names`].
    pub fn split_spec(spec: &str) -> Vec<String> {
        spec.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect()
    }

    /// Builds a set from explicit names (validated against the built-in
    /// registry, canonically ordered, deduplicated).
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Result<PolicySet, String> {
        PolicySet::from_names_with(names, PolicyRegistry::builtin())
    }

    /// [`PolicySet::from_names`] against an explicit registry, which the
    /// set then carries.
    fn from_names_with<S: AsRef<str>>(
        names: &[S],
        registry: &'static PolicyRegistry,
    ) -> Result<PolicySet, String> {
        if names.is_empty() {
            return Err(format!(
                "empty policy set (pick from {})",
                registry.names().join(", ")
            ));
        }
        let mut indexed: Vec<(usize, &str)> = Vec::with_capacity(names.len());
        for name in names {
            let name = name.as_ref();
            let idx = registry.index_of(name).ok_or_else(|| {
                format!(
                    "unknown policy `{name}` (one of {})",
                    registry.names().join(", ")
                )
            })?;
            if !indexed.iter().any(|&(i, _)| i == idx) {
                indexed.push((idx, name));
            }
        }
        indexed.sort_by_key(|&(i, _)| i);
        Ok(PolicySet {
            names: indexed.into_iter().map(|(_, n)| n.to_owned()).collect(),
            registry,
        })
    }

    /// The members `keep` accepts, in the same canonical order and
    /// against the same registry (the adaptive selector's narrowing).
    pub(crate) fn filtered(&self, keep: impl Fn(&str) -> bool) -> PolicySet {
        PolicySet {
            names: self.names.iter().filter(|n| keep(n)).cloned().collect(),
            registry: self.registry,
        }
    }

    /// Constructs every member, in canonical order, through the set's
    /// registry.
    pub(crate) fn create_all(&self) -> Vec<Box<dyn SchedulePolicy>> {
        self.names
            .iter()
            .map(|name| {
                self.registry
                    .create(name)
                    .expect("a set's members are registered in its registry")
            })
            .collect()
    }

    /// The member names, in canonical (tie-break) order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether `name` is in the set.
    pub fn contains(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    /// The canonical comma-joined form — the stable spelling used in
    /// JSON summaries and wire requests.
    pub fn key(&self) -> String {
        self.names.join(",")
    }

    /// The version-qualified spelling (`vc@1,cars@1`) used in the
    /// schedule-cache key: each member carries the
    /// [`SchedulePolicy::algorithm_version`] its registry recorded, so
    /// bumping one policy's version invalidates exactly its own cached
    /// entries.
    pub fn versioned_key(&self) -> String {
        let mut out = String::new();
        self.write_versioned_key(&mut out);
        out
    }

    /// Appends [`PolicySet::versioned_key`] to `out` (the cache key
    /// builds its composite in one buffer).
    pub(crate) fn write_versioned_key(&self, out: &mut String) {
        use std::fmt::Write as _;
        for (i, name) in self.names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(name);
            if let Some(v) = self.registry.version_of(name) {
                let _ = write!(out, "@{v}");
            }
        }
    }
}

impl PartialEq for PolicySet {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names && std::ptr::eq(self.registry, other.registry)
    }
}

impl Eq for PolicySet {}

impl std::fmt::Debug for PolicySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicySet")
            .field("names", &self.names)
            .finish()
    }
}

impl Default for PolicySet {
    fn default() -> Self {
        PolicySet::single()
    }
}

impl std::fmt::Display for PolicySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_the_canonical_order() {
        let names = PolicyRegistry::builtin().names();
        assert_eq!(
            names,
            vec![
                "vc",
                "cars",
                "uas",
                "two-phase",
                "uas-mwp",
                "uas-none",
                "uas-balance",
                "two-phase-balance"
            ]
        );
        for name in names {
            let p = PolicyRegistry::builtin().create(name).expect("constructs");
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn unknown_policy_is_a_clean_error() {
        let err = PolicyRegistry::builtin()
            .create("lst")
            .map(|p| p.name())
            .unwrap_err();
        assert!(err.contains("unknown policy `lst`"), "{err}");
        assert!(err.contains("vc, cars, uas, two-phase"), "{err}");
    }

    #[test]
    fn sets_canonicalize_order_and_duplicates() {
        let a = PolicySet::parse("cars,vc").expect("parses");
        let b = PolicySet::parse("vc, cars ,vc").expect("parses");
        assert_eq!(a, b);
        assert_eq!(a.key(), "vc,cars");
        assert_eq!(a, PolicySet::single());
        assert_eq!(
            PolicySet::parse("two-phase,uas,cars,vc").expect("parses"),
            PolicySet::full()
        );
    }

    #[test]
    fn all_extends_full_with_the_uas_variants() {
        let all = PolicySet::all();
        assert_eq!(
            all.key(),
            "vc,cars,uas,two-phase,uas-mwp,uas-none,uas-balance,two-phase-balance"
        );
        for name in PolicySet::full().names() {
            assert!(all.contains(name), "all() must cover full(): {name}");
        }
        assert_ne!(all, PolicySet::full(), "--portfolio stays the §6.1 four");
    }

    #[test]
    fn empty_and_unknown_sets_error() {
        assert!(PolicySet::parse("").is_err());
        assert!(PolicySet::parse(" , ,").is_err());
        let err = PolicySet::parse("vc,warp").unwrap_err();
        assert!(err.contains("unknown policy `warp`"), "{err}");
    }

    #[test]
    fn register_rejects_duplicates_and_name_mismatch() {
        let mut r = PolicyRegistry::with_builtins();
        assert!(r
            .register("vc", "dup", || Box::new(vcsched_cars::CarsPolicy))
            .is_err());
        assert!(r
            .register("not-cars", "mismatch", || Box::new(
                vcsched_cars::CarsPolicy
            ))
            .is_err());
        assert!(r
            .register("bad name", "ws", || Box::new(vcsched_cars::CarsPolicy))
            .is_err());
    }
}
