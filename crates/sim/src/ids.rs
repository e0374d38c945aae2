//! Identity newtypes for the infinite-arrival model.
//!
//! The paper (§2.1) assumes the *infinite arrival model* of Merritt &
//! Taubenfeld: infinitely many uniquely-identified processes
//! `Π = {…, pᵢ, pⱼ, pₖ, …}` may join over a run, and a process that leaves
//! and comes back must do so under a *new* name. [`IdSource`] hands out
//! fresh, never-reused [`NodeId`]s to honour that rule.

use std::fmt;

/// Unique identifier of a process (node) in the infinite arrival model.
///
/// Never reused within a run: re-entering the system means a fresh id
/// (paper §2.1, "if a process wants to re-enter the system, it has to enter
/// it as a new process").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u64);

/// Unique identifier of a client-visible operation (join, read or write)
/// recorded in a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(u64);

/// Identifier of one register in a keyed register *space*.
///
/// The paper implements a single anonymous register; the register-space
/// layer (see `dynareg-core`'s `space` module) multiplexes many of them
/// over one churn substrate, and every client-facing operation addresses a
/// `(RegisterId, op)` pair. Keys are dense small integers `0..k`: a space
/// with `k` keys owns exactly the registers `r0 … r(k−1)`, and key `0` is
/// the *anchor* every single-register API is sugar for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegisterId(u32);

impl RegisterId {
    /// The anchor key: the register every single-register API addresses.
    pub const ZERO: RegisterId = RegisterId(0);

    /// Builds a register id from a raw index.
    pub const fn from_raw(raw: u32) -> RegisterId {
        RegisterId(raw)
    }

    /// The raw index behind this id.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl NodeId {
    /// Builds a node id from a raw index. Intended for tests and for the
    /// initial population `p₀ … p_{n−1}`; simulation code should draw fresh
    /// ids from [`IdSource`].
    pub const fn from_raw(raw: u64) -> NodeId {
        NodeId(raw)
    }

    /// The raw index behind this id.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl OpId {
    /// Builds an operation id from a raw index (tests / history tooling).
    pub const fn from_raw(raw: u64) -> OpId {
        OpId(raw)
    }

    /// The raw index behind this id.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A monotone source of fresh identifiers.
///
/// One [`IdSource`] per identifier kind per run guarantees global uniqueness
/// without coordination — the simulation is single-threaded by design.
///
/// # Example
///
/// ```
/// use dynareg_sim::IdSource;
/// let mut src = IdSource::starting_at(100);
/// let a = src.fresh_node();
/// let b = src.fresh_node();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdSource {
    next: u64,
}

impl IdSource {
    /// A source starting at zero.
    pub fn new() -> IdSource {
        IdSource { next: 0 }
    }

    /// A source whose first issued raw value is `first`. Useful to keep the
    /// initial population `0..n` distinct from churn arrivals `n..`.
    pub fn starting_at(first: u64) -> IdSource {
        IdSource { next: first }
    }

    fn bump(&mut self) -> u64 {
        let v = self.next;
        self.next += 1;
        v
    }

    /// Issues a fresh node id, never issued before by this source.
    pub fn fresh_node(&mut self) -> NodeId {
        NodeId(self.bump())
    }

    /// Issues a fresh operation id.
    pub fn fresh_op(&mut self) -> OpId {
        OpId(self.bump())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ids_are_never_reused() {
        let mut src = IdSource::new();
        let ids: BTreeSet<NodeId> = (0..1000).map(|_| src.fresh_node()).collect();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn starting_at_offsets_first_id() {
        let mut src = IdSource::starting_at(7);
        assert_eq!(src.fresh_node(), NodeId::from_raw(7));
        assert_eq!(src.fresh_node(), NodeId::from_raw(8));
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId::from_raw(3).to_string(), "p3");
        assert_eq!(OpId::from_raw(4).to_string(), "op4");
        assert_eq!(RegisterId::from_raw(6).to_string(), "r6");
    }

    #[test]
    fn register_ids_are_dense_and_ordered() {
        assert_eq!(RegisterId::ZERO, RegisterId::from_raw(0));
        assert!(RegisterId::from_raw(1) < RegisterId::from_raw(2));
        assert_eq!(RegisterId::from_raw(7).as_raw(), 7);
    }

    #[test]
    fn mixed_kinds_share_counter_but_types_differ() {
        let mut src = IdSource::new();
        let n = src.fresh_node();
        let o = src.fresh_op();
        assert_eq!(n.as_raw(), 0);
        assert_eq!(o.as_raw(), 1);
    }
}
