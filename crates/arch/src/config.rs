//! Machine configuration and its builder.

use crate::{ClusterId, OpClass};

/// Error produced when a [`MachineConfigBuilder`] describes an unusable
/// machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The machine must have at least one cluster.
    NoClusters,
    /// Every cluster needs at least one integer unit to be able to run code.
    NoIntUnit,
    /// Multi-cluster machines need at least one bus to communicate.
    NoBus,
    /// Bus latency must be at least one cycle.
    ZeroBusLatency,
    /// The per-cluster issue cap cannot be zero.
    ZeroIssueWidth,
    /// A per-cluster override referenced a cluster the machine lacks.
    BadOverride(u8),
    /// No cluster has a branch unit, so exits could never issue.
    NoBranchUnit,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoClusters => f.write_str("machine must have at least one cluster"),
            ConfigError::NoIntUnit => f.write_str("each cluster must have at least one int unit"),
            ConfigError::NoBus => f.write_str("multi-cluster machine must have at least one bus"),
            ConfigError::ZeroBusLatency => f.write_str("bus latency must be at least one cycle"),
            ConfigError::ZeroIssueWidth => f.write_str("per-cluster issue width cannot be zero"),
            ConfigError::BadOverride(c) => {
                write!(f, "functional-unit override for missing cluster {c}")
            }
            ConfigError::NoBranchUnit => f.write_str("no cluster has a branch unit"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Description of a clustered VLIW machine.
///
/// By default all clusters are homogeneous (the paper assumes this, §2.1):
/// each has `fu_per_cluster[c]` functional units of class `c`. The paper
/// notes the technique "can be extended to deal with heterogeneous
/// configurations"; that extension is supported through per-cluster
/// functional-unit overrides (see [`MachineConfig::hetero_2c`]), which
/// every scheduler and the validator honour.
///
/// Each cluster optionally caps total operations issued per cycle, and the
/// whole machine shares `buses` inter-cluster buses of latency
/// `bus_latency`.
///
/// Construct via the named paper configurations or [`MachineConfig::builder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    name: String,
    clusters: u8,
    fu_per_cluster: [u8; 4],
    /// Per-cluster functional-unit overrides; empty for homogeneous
    /// machines, otherwise one entry per cluster.
    fu_overrides: Vec<[u8; 4]>,
    issue_per_cluster: Option<u8>,
    buses: u8,
    bus_latency: u32,
    bus_pipelined: bool,
    /// Machine-wide cap on branches per cycle (superblock exits are ordered,
    /// so real designs rarely retire more than one branch per VLIW word).
    branches_per_cycle: u8,
}

impl MachineConfig {
    /// Starts building a custom machine. See [`MachineConfigBuilder`].
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder::default()
    }

    /// Paper configuration 1: 8-issue machine, two 4-wide clusters (one FU
    /// of each class per cluster), single 1-cycle bus.
    pub fn paper_2c_8w() -> Self {
        MachineConfig::builder()
            .name("2clust 1b 1lat")
            .clusters(2)
            .fu_counts(1, 1, 1, 1)
            .buses(1)
            .bus_latency(1)
            .build()
            .expect("paper config is valid")
    }

    /// Paper configuration 2: 16-issue machine, four 4-wide clusters,
    /// single 1-cycle bus.
    pub fn paper_4c_16w_lat1() -> Self {
        MachineConfig::builder()
            .name("4clust 1b 1lat")
            .clusters(4)
            .fu_counts(1, 1, 1, 1)
            .buses(1)
            .bus_latency(1)
            .build()
            .expect("paper config is valid")
    }

    /// Paper configuration 3: as configuration 2 but the bus takes 2 cycles
    /// and is **not pipelined** — it is busy for both cycles of a transfer
    /// (§6.2: "The bus is not a pipelined resource").
    pub fn paper_4c_16w_lat2() -> Self {
        MachineConfig::builder()
            .name("4clust 1b 2lat")
            .clusters(4)
            .fu_counts(1, 1, 1, 1)
            .buses(1)
            .bus_latency(2)
            .bus_pipelined(false)
            .build()
            .expect("paper config is valid")
    }

    /// The didactic machine of the paper's worked example (§5): two
    /// clusters, each able to issue one non-branch and one branch per cycle,
    /// a single 1-cycle bus.
    pub fn paper_example_2c() -> Self {
        MachineConfig::builder()
            .name("example 2c")
            .clusters(2)
            .fu_counts(1, 0, 0, 1)
            .issue_per_cluster(2)
            .buses(1)
            .bus_latency(1)
            .build()
            .expect("paper config is valid")
    }

    /// The 1-cluster machine of the paper's scheduling-graph example (§3.1):
    /// issues 2 non-branch and 1 branch instruction per cycle.
    pub fn paper_example_1c() -> Self {
        MachineConfig::builder()
            .name("example 1c")
            .clusters(1)
            .fu_counts(2, 0, 0, 1)
            .issue_per_cluster(3)
            .build()
            .expect("paper config is valid")
    }

    /// All three evaluated paper configurations, in presentation order.
    pub fn paper_eval_configs() -> Vec<MachineConfig> {
        vec![
            MachineConfig::paper_2c_8w(),
            MachineConfig::paper_4c_16w_lat1(),
            MachineConfig::paper_4c_16w_lat2(),
        ]
    }

    /// A heterogeneous 2-cluster machine exercising the paper's §2.1
    /// extension: cluster 0 is the "compute" cluster (2 int, no fp),
    /// cluster 1 the "media" cluster (1 int, 1 fp); only cluster 0 can
    /// branch, both can access memory.
    pub fn hetero_2c() -> Self {
        MachineConfig::builder()
            .name("hetero 2c")
            .clusters(2)
            .fu_counts(1, 1, 1, 1)
            .cluster_fu_counts(0, [2, 0, 1, 1])
            .cluster_fu_counts(1, [1, 1, 1, 0])
            .buses(1)
            .bus_latency(1)
            .build()
            .expect("preset is valid")
    }

    /// Resolves a short preset key (`2c`, `4c1`, `4c2`, `hetero`) — the
    /// one table the CLI flags and the service wire protocol share.
    pub fn preset(key: &str) -> Option<MachineConfig> {
        match key {
            "2c" => Some(MachineConfig::paper_2c_8w()),
            "4c1" => Some(MachineConfig::paper_4c_16w_lat1()),
            "4c2" => Some(MachineConfig::paper_4c_16w_lat2()),
            "hetero" => Some(MachineConfig::hetero_2c()),
            _ => None,
        }
    }

    /// The preset keys [`MachineConfig::preset`] accepts, for error
    /// messages.
    pub const PRESET_KEYS: [&'static str; 4] = ["2c", "4c1", "4c2", "hetero"];

    /// Human-readable configuration name (matches the paper's figure axes).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters as usize
    }

    /// Functional units of `class` in the *best-equipped* cluster. On
    /// homogeneous machines (every paper configuration) this is simply the
    /// per-cluster count; on heterogeneous machines it is an upper bound
    /// per cluster — the form deduction rules need to stay sound.
    pub fn capacity(&self, class: OpClass) -> usize {
        match class.fu_index() {
            Some(i) => {
                if self.fu_overrides.is_empty() {
                    self.fu_per_cluster[i] as usize
                } else {
                    self.fu_overrides
                        .iter()
                        .map(|fu| fu[i] as usize)
                        .max()
                        .unwrap_or(0)
                }
            }
            None => self.buses as usize,
        }
    }

    /// Functional units of `class` in cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn cluster_capacity(&self, c: ClusterId, class: OpClass) -> usize {
        assert!(
            (c.0 as usize) < self.cluster_count(),
            "cluster out of range"
        );
        match class.fu_index() {
            Some(i) => {
                if self.fu_overrides.is_empty() {
                    self.fu_per_cluster[i] as usize
                } else {
                    self.fu_overrides[c.0 as usize][i] as usize
                }
            }
            None => self.buses as usize,
        }
    }

    /// Whether all clusters have identical functional units.
    pub fn is_homogeneous(&self) -> bool {
        self.fu_overrides.is_empty() || self.fu_overrides.windows(2).all(|w| w[0] == w[1])
    }

    /// Functional units of `class` across the whole machine, honouring the
    /// machine-wide branch cap.
    pub fn total_capacity(&self, class: OpClass) -> usize {
        let sum = |i: usize| -> usize {
            if self.fu_overrides.is_empty() {
                self.fu_per_cluster[i] as usize * self.cluster_count()
            } else {
                self.fu_overrides.iter().map(|fu| fu[i] as usize).sum()
            }
        };
        match class {
            OpClass::Branch => sum(class.fu_index().expect("branch is an FU class"))
                .min(self.branches_per_cycle as usize),
            OpClass::Copy => self.buses as usize,
            _ => sum(class.fu_index().expect("FU class")),
        }
    }

    /// Optional cap on total operations issued by one cluster per cycle.
    pub fn issue_per_cluster(&self) -> Option<usize> {
        self.issue_per_cluster.map(|w| w as usize)
    }

    /// Number of inter-cluster buses.
    pub fn bus_count(&self) -> usize {
        self.buses as usize
    }

    /// Cycles for a value to cross the bus.
    pub fn bus_latency(&self) -> u32 {
        self.bus_latency
    }

    /// Whether a bus can start a new transfer every cycle. When `false`,
    /// a transfer occupies its bus for [`Self::bus_latency`] cycles.
    pub fn bus_pipelined(&self) -> bool {
        self.bus_pipelined
    }

    /// Cycles a single transfer occupies a bus.
    pub fn bus_occupancy(&self) -> u32 {
        if self.bus_pipelined {
            1
        } else {
            self.bus_latency
        }
    }

    /// Machine-wide cap on branches per cycle.
    pub fn branches_per_cycle(&self) -> usize {
        self.branches_per_cycle as usize
    }
}

impl std::fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape = if self.fu_overrides.is_empty() {
            format!(
                "{}x[{} int,{} fp,{} mem,{} br]",
                self.clusters,
                self.fu_per_cluster[0],
                self.fu_per_cluster[1],
                self.fu_per_cluster[2],
                self.fu_per_cluster[3],
            )
        } else {
            let per: Vec<String> = self
                .fu_overrides
                .iter()
                .map(|fu| format!("[{} int,{} fp,{} mem,{} br]", fu[0], fu[1], fu[2], fu[3]))
                .collect();
            per.join("+")
        };
        write!(
            f,
            "{} ({shape}, {} bus x{}cy{})",
            self.name,
            self.buses,
            self.bus_latency,
            if self.bus_pipelined { " piped" } else { "" },
        )
    }
}

/// Builder for [`MachineConfig`].
///
/// # Example
///
/// ```
/// use vcsched_arch::MachineConfig;
///
/// # fn main() -> Result<(), vcsched_arch::ConfigError> {
/// let m = MachineConfig::builder()
///     .name("wide-2c")
///     .clusters(2)
///     .fu_counts(2, 1, 1, 1)
///     .buses(2)
///     .bus_latency(1)
///     .build()?;
/// assert_eq!(m.bus_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    name: String,
    clusters: u8,
    fu_per_cluster: [u8; 4],
    fu_overrides: Vec<(u8, [u8; 4])>,
    issue_per_cluster: Option<u8>,
    buses: u8,
    bus_latency: u32,
    bus_pipelined: bool,
    branches_per_cycle: u8,
}

impl Default for MachineConfigBuilder {
    fn default() -> Self {
        MachineConfigBuilder {
            name: "custom".to_owned(),
            clusters: 1,
            fu_per_cluster: [1, 1, 1, 1],
            fu_overrides: Vec::new(),
            issue_per_cluster: None,
            buses: 1,
            bus_latency: 1,
            bus_pipelined: false,
            branches_per_cycle: 1,
        }
    }
}

impl MachineConfigBuilder {
    /// Sets the display name.
    pub fn name(&mut self, name: &str) -> &mut Self {
        self.name = name.to_owned();
        self
    }

    /// Sets the number of clusters.
    pub fn clusters(&mut self, n: u8) -> &mut Self {
        self.clusters = n;
        self
    }

    /// Sets per-cluster functional-unit counts `(int, fp, mem, branch)`.
    pub fn fu_counts(&mut self, int: u8, fp: u8, mem: u8, branch: u8) -> &mut Self {
        self.fu_per_cluster = [int, fp, mem, branch];
        self
    }

    /// Overrides the functional units `[int, fp, mem, branch]` of one
    /// cluster, making the machine heterogeneous. Clusters without an
    /// override keep the [`Self::fu_counts`] defaults.
    fn cluster_fu_counts(&mut self, cluster: u8, fu: [u8; 4]) -> &mut Self {
        self.fu_overrides.push((cluster, fu));
        self
    }

    /// Caps total operations issued by one cluster per cycle.
    pub fn issue_per_cluster(&mut self, width: u8) -> &mut Self {
        self.issue_per_cluster = Some(width);
        self
    }

    /// Sets the number of inter-cluster buses.
    pub fn buses(&mut self, n: u8) -> &mut Self {
        self.buses = n;
        self
    }

    /// Sets bus transfer latency in cycles.
    pub fn bus_latency(&mut self, cycles: u32) -> &mut Self {
        self.bus_latency = cycles;
        self
    }

    /// Sets whether buses accept a new transfer every cycle.
    pub fn bus_pipelined(&mut self, piped: bool) -> &mut Self {
        self.bus_pipelined = piped;
        self
    }

    /// Sets the machine-wide branch-per-cycle cap (default 1).
    pub fn branches_per_cycle(&mut self, n: u8) -> &mut Self {
        self.branches_per_cycle = n;
        self
    }

    /// Validates and produces the [`MachineConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn build(&self) -> Result<MachineConfig, ConfigError> {
        if self.clusters == 0 {
            return Err(ConfigError::NoClusters);
        }
        if self.clusters > 1 && self.buses == 0 {
            return Err(ConfigError::NoBus);
        }
        if self.bus_latency == 0 {
            return Err(ConfigError::ZeroBusLatency);
        }
        if self.issue_per_cluster == Some(0) {
            return Err(ConfigError::ZeroIssueWidth);
        }
        // Materialise overrides into a dense per-cluster table.
        let fu_overrides = if self.fu_overrides.is_empty() {
            Vec::new()
        } else {
            let mut table = vec![self.fu_per_cluster; self.clusters as usize];
            for &(c, fu) in &self.fu_overrides {
                if c as usize >= self.clusters as usize {
                    return Err(ConfigError::BadOverride(c));
                }
                table[c as usize] = fu;
            }
            table
        };
        // Every cluster needs an int unit to run glue code; some cluster
        // must be able to branch or exits could never issue.
        let int_idx = OpClass::Int.fu_index().expect("int is an FU class");
        let br_idx = OpClass::Branch.fu_index().expect("branch is an FU class");
        if fu_overrides.is_empty() {
            if self.fu_per_cluster[int_idx] == 0 {
                return Err(ConfigError::NoIntUnit);
            }
            if self.fu_per_cluster[br_idx] == 0 {
                return Err(ConfigError::NoBranchUnit);
            }
        } else {
            if fu_overrides.iter().any(|fu| fu[int_idx] == 0) {
                return Err(ConfigError::NoIntUnit);
            }
            if fu_overrides.iter().all(|fu| fu[br_idx] == 0) {
                return Err(ConfigError::NoBranchUnit);
            }
        }
        Ok(MachineConfig {
            name: self.name.clone(),
            clusters: self.clusters,
            fu_per_cluster: self.fu_per_cluster,
            fu_overrides,
            issue_per_cluster: self.issue_per_cluster,
            buses: self.buses,
            bus_latency: self.bus_latency,
            bus_pipelined: self.bus_pipelined,
            branches_per_cycle: self.branches_per_cycle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_shape() {
        let c2 = MachineConfig::paper_2c_8w();
        assert_eq!(c2.cluster_count(), 2);
        assert_eq!(c2.bus_latency(), 1);
        // 8-issue: 4 FUs per cluster × 2 clusters.
        let per_cluster: usize = OpClass::FU_CLASSES.iter().map(|&c| c2.capacity(c)).sum();
        assert_eq!(per_cluster * c2.cluster_count(), 8);

        let c4 = MachineConfig::paper_4c_16w_lat1();
        assert_eq!(c4.cluster_count(), 4);
        let per_cluster: usize = OpClass::FU_CLASSES.iter().map(|&c| c4.capacity(c)).sum();
        assert_eq!(per_cluster * c4.cluster_count(), 16);

        let c4l2 = MachineConfig::paper_4c_16w_lat2();
        assert_eq!(c4l2.bus_latency(), 2);
        assert_eq!(c4l2.bus_occupancy(), 2, "non-pipelined bus busy 2 cycles");
    }

    #[test]
    fn branch_cap_limits_total_capacity() {
        let m = MachineConfig::paper_4c_16w_lat1();
        assert_eq!(m.total_capacity(OpClass::Branch), 1);
        assert_eq!(m.total_capacity(OpClass::Int), 4);
        assert_eq!(m.total_capacity(OpClass::Copy), 1);
    }

    #[test]
    fn example_machines() {
        let e1 = MachineConfig::paper_example_1c();
        assert_eq!(e1.cluster_count(), 1);
        assert_eq!(e1.capacity(OpClass::Int), 2);
        assert_eq!(e1.issue_per_cluster(), Some(3));

        let e2 = MachineConfig::paper_example_2c();
        assert_eq!(e2.cluster_count(), 2);
        assert_eq!(e2.capacity(OpClass::Int), 1);
        assert_eq!(e2.capacity(OpClass::Branch), 1);
    }

    #[test]
    fn builder_validation() {
        assert_eq!(
            MachineConfig::builder().clusters(0).build().unwrap_err(),
            ConfigError::NoClusters
        );
        assert_eq!(
            MachineConfig::builder()
                .fu_counts(0, 1, 1, 1)
                .build()
                .unwrap_err(),
            ConfigError::NoIntUnit
        );
        assert_eq!(
            MachineConfig::builder()
                .clusters(2)
                .buses(0)
                .build()
                .unwrap_err(),
            ConfigError::NoBus
        );
        assert_eq!(
            MachineConfig::builder().bus_latency(0).build().unwrap_err(),
            ConfigError::ZeroBusLatency
        );
        assert_eq!(
            MachineConfig::builder()
                .issue_per_cluster(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroIssueWidth
        );
        // Error type is well-behaved.
        let e: Box<dyn std::error::Error> = Box::new(ConfigError::NoBus);
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn display_is_informative() {
        let s = MachineConfig::paper_4c_16w_lat2().to_string();
        assert!(s.contains("4clust"));
        assert!(s.contains("2cy"));
    }

    #[test]
    fn hetero_capacities_are_per_cluster() {
        let m = MachineConfig::hetero_2c();
        assert!(!m.is_homogeneous());
        assert_eq!(m.cluster_capacity(ClusterId(0), OpClass::Int), 2);
        assert_eq!(m.cluster_capacity(ClusterId(1), OpClass::Int), 1);
        assert_eq!(m.cluster_capacity(ClusterId(0), OpClass::Fp), 0);
        assert_eq!(m.cluster_capacity(ClusterId(1), OpClass::Fp), 1);
        assert_eq!(m.cluster_capacity(ClusterId(0), OpClass::Branch), 1);
        assert_eq!(m.cluster_capacity(ClusterId(1), OpClass::Branch), 0);
        // `capacity` is the best-equipped cluster (sound upper bound).
        assert_eq!(m.capacity(OpClass::Int), 2);
        assert_eq!(m.capacity(OpClass::Fp), 1);
        // Totals sum the real per-cluster units.
        assert_eq!(m.total_capacity(OpClass::Int), 3);
        assert_eq!(m.total_capacity(OpClass::Fp), 1);
        assert_eq!(m.total_capacity(OpClass::Branch), 1);
    }

    #[test]
    fn homogeneous_machines_report_homogeneous() {
        assert!(MachineConfig::paper_2c_8w().is_homogeneous());
        // Identical overrides are still homogeneous in behaviour.
        let m = MachineConfig::builder()
            .clusters(2)
            .cluster_fu_counts(0, [1, 1, 1, 1])
            .cluster_fu_counts(1, [1, 1, 1, 1])
            .build()
            .unwrap();
        assert!(m.is_homogeneous());
    }

    #[test]
    fn hetero_validation() {
        // Override for a missing cluster.
        assert_eq!(
            MachineConfig::builder()
                .clusters(2)
                .cluster_fu_counts(5, [1, 0, 0, 1])
                .build()
                .unwrap_err(),
            ConfigError::BadOverride(5)
        );
        // A cluster without int units.
        assert_eq!(
            MachineConfig::builder()
                .clusters(2)
                .cluster_fu_counts(1, [0, 1, 1, 1])
                .build()
                .unwrap_err(),
            ConfigError::NoIntUnit
        );
        // No branch unit anywhere.
        assert_eq!(
            MachineConfig::builder()
                .clusters(2)
                .cluster_fu_counts(0, [1, 1, 1, 0])
                .cluster_fu_counts(1, [1, 1, 1, 0])
                .build()
                .unwrap_err(),
            ConfigError::NoBranchUnit
        );
        assert_eq!(
            MachineConfig::builder()
                .fu_counts(1, 1, 1, 0)
                .build()
                .unwrap_err(),
            ConfigError::NoBranchUnit
        );
    }

    #[test]
    fn hetero_display_shows_each_cluster() {
        let s = MachineConfig::hetero_2c().to_string();
        assert!(s.contains("2 int"), "{s}");
        assert!(s.contains("+"), "one shape per cluster: {s}");
    }
}
