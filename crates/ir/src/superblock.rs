//! Superblock container and validating builder.

use serde::{field, DeError, Deserialize, Serialize, Value};
use vcsched_arch::OpClass;

use crate::inst::{Dep, DepKind, InstId, Instruction};

/// Validation failure produced by [`SuperblockBuilder::build`] and by
/// decoding a [`Superblock`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A superblock needs at least one exit branch.
    NoExit,
    /// An exit probability was outside `(0, 1]`.
    BadProbability(InstId, f64),
    /// Exit probabilities must sum to 1 (±1e-6).
    ProbabilitySum(f64),
    /// A dependence referenced a missing instruction.
    DanglingDep(InstId),
    /// A dependence connected an instruction to itself.
    SelfDep(InstId),
    /// Dependences must flow forward: from a lower id to a higher id
    /// (superblocks are straight-line code in program order).
    BackwardDep(InstId, InstId),
    /// A live-in pseudo-instruction had an incoming dependence.
    DepIntoLiveIn(InstId),
    /// A non-exit instruction has no path to any exit, so its latest start
    /// would be unbounded (dead code is not schedulable meaningfully).
    DeadInstruction(InstId),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoExit => write!(f, "superblock has no exit branch"),
            BuildError::BadProbability(id, p) => {
                write!(f, "exit {id} probability {p} outside (0, 1]")
            }
            BuildError::ProbabilitySum(s) => {
                write!(f, "exit probabilities sum to {s}, expected 1")
            }
            BuildError::DanglingDep(id) => write!(f, "dependence references missing {id}"),
            BuildError::SelfDep(id) => write!(f, "self-dependence on {id}"),
            BuildError::BackwardDep(from, to) => {
                write!(f, "backward dependence {from} -> {to}")
            }
            BuildError::DepIntoLiveIn(id) => write!(f, "dependence into live-in {id}"),
            BuildError::DeadInstruction(id) => {
                write!(f, "{id} reaches no exit (dead code)")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// An immutable, validated superblock.
///
/// Create with [`SuperblockBuilder`], or decode one (JSON lines, binary
/// frames, corpus JSONL, `--block` files). Both paths run the same checks,
/// so every `Superblock` holds the invariants listed on [`BuildError`]:
/// instruction ids are dense indices in program order, every dependence
/// flows forward from a lower id to a higher one (so id order is a
/// topological order), exit probabilities sum to 1, and every instruction
/// reaches an exit. A decoded block is otherwise kept exactly as sent: the
/// builder's exit-order control edges are not added to it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Superblock {
    name: String,
    insts: Vec<Instruction>,
    deps: Vec<Dep>,
    /// Execution count `T(S)` from profiling; weights the block's
    /// contribution `TC(S) = AWCT(S) · T(S)` to total cycles.
    weight: u64,
}

impl Superblock {
    /// Block name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All instructions, indexed by [`InstId`].
    pub fn insts(&self) -> &[Instruction] {
        &self.insts
    }

    /// The instruction with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn inst(&self, id: InstId) -> &Instruction {
        &self.insts[id.index()]
    }

    /// Number of instructions, live-ins included.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the block has no instructions (never for built
    /// blocks, which require an exit).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of real operations (excluding live-in pseudo-instructions).
    pub fn op_count(&self) -> usize {
        self.insts.iter().filter(|i| !i.is_live_in()).count()
    }

    /// All dependences.
    pub fn deps(&self) -> &[Dep] {
        &self.deps
    }

    /// Exit branches in program order with their probabilities.
    pub fn exits(&self) -> impl Iterator<Item = (InstId, f64)> + '_ {
        self.insts
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| inst.exit_prob().map(|p| (InstId(i as u32), p)))
    }

    /// Live-in pseudo-instructions in declaration order.
    pub fn live_ins(&self) -> impl Iterator<Item = InstId> + '_ {
        self.insts
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| inst.is_live_in().then_some(InstId(i as u32)))
    }

    /// Execution count from profiling.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Ids of every instruction.
    pub fn ids(&self) -> impl Iterator<Item = InstId> + '_ {
        (0..self.insts.len() as u32).map(InstId)
    }
}

impl Deserialize for Superblock {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if v.as_object().is_none() {
            return Err(DeError::expected("Superblock", v));
        }
        let sb = Superblock {
            name: Deserialize::from_value(field(v, "Superblock", "name")?)?,
            insts: Deserialize::from_value(field(v, "Superblock", "insts")?)?,
            deps: Deserialize::from_value(field(v, "Superblock", "deps")?)?,
            weight: Deserialize::from_value(field(v, "Superblock", "weight")?)?,
        };
        validate(&sb.insts, &sb.deps)
            .map_err(|e| DeError(format!("invalid superblock `{}`: {e}", sb.name)))?;
        Ok(sb)
    }
}

/// Checks every [`BuildError`] invariant of a block; the first violation
/// wins, in the order the variants are declared.
fn validate(insts: &[Instruction], deps: &[Dep]) -> Result<(), BuildError> {
    let n = insts.len();
    let mut exits = insts
        .iter()
        .enumerate()
        .filter_map(|(i, inst)| inst.exit_prob().map(|p| (InstId(i as u32), p)))
        .peekable();
    if exits.peek().is_none() {
        return Err(BuildError::NoExit);
    }
    let mut sum = 0.0;
    for (id, p) in exits {
        if !(p > 0.0 && p <= 1.0) {
            return Err(BuildError::BadProbability(id, p));
        }
        sum += p;
    }
    if (sum - 1.0).abs() > 1e-6 {
        return Err(BuildError::ProbabilitySum(sum));
    }
    for d in deps {
        if d.from.index() >= n || d.to.index() >= n {
            let bad = if d.from.index() >= n { d.from } else { d.to };
            return Err(BuildError::DanglingDep(bad));
        }
        if d.from == d.to {
            return Err(BuildError::SelfDep(d.from));
        }
        if d.from > d.to {
            return Err(BuildError::BackwardDep(d.from, d.to));
        }
        if insts[d.to.index()].is_live_in() {
            return Err(BuildError::DepIntoLiveIn(d.to));
        }
    }
    match dead_instructions(insts, deps).first() {
        Some(&id) => Err(BuildError::DeadInstruction(id)),
        None => Ok(()),
    }
}

/// Non-exit, non-live-in instructions with no dependence path to an exit,
/// ascending. Dependences must already be valid (in range and forward).
fn dead_instructions(insts: &[Instruction], deps: &[Dep]) -> Vec<InstId> {
    let mut reaches_exit: Vec<bool> = insts.iter().map(Instruction::is_exit).collect();
    // Deps flow forward, so one pass in decreasing `from` order
    // propagates reachability completely.
    let mut sorted: Vec<&Dep> = deps.iter().collect();
    sorted.sort_by_key(|d| std::cmp::Reverse(d.from));
    for d in sorted {
        if reaches_exit[d.to.index()] {
            reaches_exit[d.from.index()] = true;
        }
    }
    (0..insts.len())
        .filter(|&i| !reaches_exit[i] && !insts[i].is_live_in())
        .map(|i| InstId(i as u32))
        .collect()
}

/// Builder for [`Superblock`] (see the [crate docs](crate) for an example).
///
/// Instructions are appended in program order; dependences must flow
/// forward. `build` validates the block and adds control dependences
/// between consecutive exit branches so branch order is preserved by any
/// schedule (superblock semantics).
#[derive(Debug, Clone)]
pub struct SuperblockBuilder {
    name: String,
    insts: Vec<Instruction>,
    deps: Vec<Dep>,
    weight: u64,
}

impl SuperblockBuilder {
    /// Starts an empty superblock named `name`.
    pub fn new(name: &str) -> Self {
        SuperblockBuilder {
            name: name.to_owned(),
            insts: Vec::new(),
            deps: Vec::new(),
            weight: 1,
        }
    }

    /// Appends a non-exit instruction of `class` with `latency` cycles.
    pub fn inst(&mut self, class: OpClass, latency: u32) -> InstId {
        self.push(Instruction {
            class,
            latency,
            exit_prob: None,
            live_in: false,
        })
    }

    /// Appends an exit branch with `latency` and taken-probability `prob`.
    pub fn exit(&mut self, latency: u32, prob: f64) -> InstId {
        self.push(Instruction {
            class: OpClass::Branch,
            latency,
            exit_prob: Some(prob),
            live_in: false,
        })
    }

    /// Appends a live-in pseudo-instruction: a value available in some
    /// register file at cycle 0. The owning cluster is chosen by the
    /// scheduling driver, not the IR.
    pub fn live_in(&mut self) -> InstId {
        self.push(Instruction {
            class: OpClass::Int,
            latency: 0,
            exit_prob: None,
            live_in: true,
        })
    }

    fn push(&mut self, inst: Instruction) -> InstId {
        self.insts.push(inst);
        InstId(self.insts.len() as u32 - 1)
    }

    /// Adds a data dependence; the latency is the producer's latency.
    pub fn data_dep(&mut self, from: InstId, to: InstId) -> &mut Self {
        let latency = self
            .insts
            .get(from.index())
            .map(|i| i.latency())
            .unwrap_or(0);
        self.deps.push(Dep {
            from,
            to,
            kind: DepKind::Data,
            latency,
        });
        self
    }

    /// Adds a control (ordering) dependence with latency 1.
    pub fn ctrl_dep(&mut self, from: InstId, to: InstId) -> &mut Self {
        self.deps.push(Dep {
            from,
            to,
            kind: DepKind::Control,
            latency: 1,
        });
        self
    }

    /// Adds a raw dependence with explicit kind and latency.
    pub fn dep(&mut self, from: InstId, to: InstId, kind: DepKind, latency: u32) -> &mut Self {
        self.deps.push(Dep {
            from,
            to,
            kind,
            latency,
        });
        self
    }

    /// Sets the profiled execution count (default 1).
    pub fn weight(&mut self, count: u64) -> &mut Self {
        self.weight = count;
        self
    }

    /// Validates and produces the [`Superblock`].
    ///
    /// # Errors
    ///
    /// Returns the first [`BuildError`] encountered; see that type for the
    /// full list of enforced invariants.
    pub fn build(&self) -> Result<Superblock, BuildError> {
        // Branch ordering: control edges between consecutive exits.
        let exits: Vec<InstId> = self
            .insts
            .iter()
            .enumerate()
            .filter(|(_, inst)| inst.is_exit())
            .map(|(i, _)| InstId(i as u32))
            .collect();
        let mut deps = self.deps.clone();
        for pair in exits.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let present = deps
                .iter()
                .any(|d| d.from == a && d.to == b && d.kind == DepKind::Control);
            if !present {
                deps.push(Dep {
                    from: a,
                    to: b,
                    kind: DepKind::Control,
                    latency: 1,
                });
            }
        }
        validate(&self.insts, &deps)?;
        Ok(Superblock {
            name: self.name.clone(),
            insts: self.insts.clone(),
            deps,
            weight: self.weight,
        })
    }

    /// The instructions [`Self::build`] would reject as
    /// [`BuildError::DeadInstruction`], ascending — all of them, where
    /// `build` reports the first. Meaningful once `build` fails with
    /// nothing but dead instructions: the dependences must be valid.
    pub fn dead_instructions(&self) -> Vec<InstId> {
        dead_instructions(&self.insts, &self.deps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SuperblockBuilder {
        let mut b = SuperblockBuilder::new("t");
        let i0 = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(i0, x);
        b
    }

    #[test]
    fn minimal_block_builds() {
        let sb = tiny().build().unwrap();
        assert_eq!(sb.len(), 2);
        assert_eq!(sb.op_count(), 2);
        assert_eq!(sb.exits().count(), 1);
        assert_eq!(sb.weight(), 1);
        assert_eq!(sb.name(), "t");
    }

    #[test]
    fn no_exit_rejected() {
        let mut b = SuperblockBuilder::new("t");
        b.inst(OpClass::Int, 1);
        assert_eq!(b.build().unwrap_err(), BuildError::NoExit);
    }

    #[test]
    fn probability_sum_enforced() {
        let mut b = SuperblockBuilder::new("t");
        b.exit(1, 0.4);
        b.exit(1, 0.4);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::ProbabilitySum(_)
        ));
    }

    #[test]
    fn bad_probability_rejected() {
        let mut b = SuperblockBuilder::new("t");
        b.exit(1, 0.0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::BadProbability(_, _)
        ));
    }

    #[test]
    fn backward_dep_rejected() {
        let mut b = SuperblockBuilder::new("t");
        let i0 = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(x, i0);
        assert_eq!(b.build().unwrap_err(), BuildError::BackwardDep(x, i0));
    }

    #[test]
    fn self_dep_rejected() {
        let mut b = SuperblockBuilder::new("t");
        let i0 = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(i0, i0);
        b.data_dep(i0, x);
        assert_eq!(b.build().unwrap_err(), BuildError::SelfDep(i0));
    }

    #[test]
    fn dead_instruction_rejected() {
        let mut b = SuperblockBuilder::new("t");
        b.inst(OpClass::Int, 1); // never connected
        b.exit(1, 1.0);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::DeadInstruction(_)
        ));
    }

    #[test]
    fn dep_into_live_in_rejected() {
        let mut b = SuperblockBuilder::new("t");
        let i0 = b.inst(OpClass::Int, 1);
        let li = b.live_in();
        let x = b.exit(1, 1.0);
        b.data_dep(i0, x);
        b.dep(i0, li, DepKind::Data, 1);
        assert_eq!(b.build().unwrap_err(), BuildError::DepIntoLiveIn(li));
    }

    #[test]
    fn consecutive_branches_auto_ordered() {
        let mut b = SuperblockBuilder::new("t");
        let b0 = b.exit(1, 0.5);
        let b1 = b.exit(1, 0.5);
        let sb = b.build().unwrap();
        assert!(sb
            .deps()
            .iter()
            .any(|d| d.from == b0 && d.to == b1 && d.kind == DepKind::Control));
    }

    #[test]
    fn live_ins_listed_and_resource_free() {
        let mut b = SuperblockBuilder::new("t");
        let li = b.live_in();
        let i = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(li, i).data_dep(i, x);
        let sb = b.build().unwrap();
        assert_eq!(sb.live_ins().collect::<Vec<_>>(), vec![li]);
        assert_eq!(sb.op_count(), 2);
        // Live-in data-dep latency is 0: value ready at entry.
        let d = sb.deps().iter().find(|d| d.from == li).unwrap();
        assert_eq!(d.latency, 0);
    }

    #[test]
    fn build_error_display() {
        let e = BuildError::ProbabilitySum(0.8);
        assert!(e.to_string().contains("0.8"));
        let _: &dyn std::error::Error = &e;
    }
}
