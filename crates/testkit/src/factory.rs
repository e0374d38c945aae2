//! Protocol construction for the simulation world.
//!
//! Two layers:
//!
//! * [`ProtocolFactory`] — builds single-register protocol instances
//!   ([`SyncFactory`], [`EsFactory`]); unchanged from the paper's shape.
//! * [`SpaceFactory`] — builds the [`RegisterSpaceProcess`]es the world
//!   actually drives: a [`RegisterSpace`] for every key count. Every
//!   [`ProtocolFactory`] *is* a 1-key [`SpaceFactory`] whose spaces speak
//!   the protocol's own wire ([`OneKey`]), and [`SpaceOf`] lifts one to a
//!   `k`-key space on the keyed wire ([`SpaceMsg`]).

use dynareg_core::es::{EsConfig, EsMsg, EsRegister};
use dynareg_core::space::{
    OneKey, RegisterSpace, RegisterSpaceProcess, RetransmitConfig, ShardConfig, SpaceMsg,
};
use dynareg_core::sync::{SyncConfig, SyncMsg, SyncRegister};
use dynareg_core::RegisterProcess;
use dynareg_sim::{NodeId, OpId};

/// How the [`crate::World`] spawns protocol instances.
///
/// A factory fixes the protocol, its configuration and the value type; the
/// world asks it for bootstrap members (initial population, already active)
/// and joiners (churn arrivals, entering via the join protocol).
pub trait ProtocolFactory {
    /// The protocol this factory builds.
    type Proc: RegisterProcess;

    /// A member of the initial population holding `initial`.
    fn bootstrap(&self, id: NodeId, initial: <Self::Proc as RegisterProcess>::Val) -> Self::Proc;

    /// A fresh arrival about to run `join` (identified as `join_op` in the
    /// history).
    fn joiner(&self, id: NodeId, join_op: OpId) -> Self::Proc;

    /// Short protocol name for reports.
    fn name(&self) -> &'static str;

    /// Trace/statistics label of a message.
    fn msg_label(msg: &<Self::Proc as RegisterProcess>::Msg) -> &'static str;

    /// Loss-tolerant join retransmission policy the space layer wraps
    /// around built joiners (`None`, the default, disables it — the
    /// paper's reliable-channel behavior).
    fn retransmit(&self) -> Option<RetransmitConfig> {
        None
    }
}

/// How the [`crate::World`] spawns **register-space** instances — the
/// runtime-facing generalization of [`ProtocolFactory`].
///
/// Method names carry a `space_` prefix so the blanket impl below (every
/// protocol factory is a 1-key space factory) never shadows the protocol
/// factory's own `bootstrap`/`joiner`/`name` at call sites.
pub trait SpaceFactory {
    /// The space this factory builds.
    type Proc: RegisterSpaceProcess;

    /// Number of keys every built space owns.
    fn key_count(&self) -> u32;

    /// A member of the initial population, every key holding `initial`.
    fn space_bootstrap(
        &self,
        id: NodeId,
        initial: <Self::Proc as RegisterSpaceProcess>::Val,
    ) -> Self::Proc;

    /// A fresh arrival about to run the (shared) join.
    fn space_joiner(&self, id: NodeId, join_op: OpId) -> Self::Proc;

    /// Short protocol name for reports.
    fn space_name(&self) -> &'static str;

    /// Trace/statistics label of a wire message.
    fn space_msg_label(msg: &<Self::Proc as RegisterSpaceProcess>::Msg) -> &'static str;
}

/// Every protocol factory is a 1-key space factory: a [`RegisterSpace`] on
/// the protocol's own wire ([`OneKey`]) — raw protocol messages, no key
/// tags, register 0 inline — running the same handshake as every other
/// key count.
impl<F: ProtocolFactory> SpaceFactory for F {
    type Proc = RegisterSpace<F::Proc, OneKey>;

    fn key_count(&self) -> u32 {
        1
    }

    fn space_bootstrap(
        &self,
        id: NodeId,
        initial: <F::Proc as RegisterProcess>::Val,
    ) -> Self::Proc {
        RegisterSpace::single(self.bootstrap(id, initial))
    }

    fn space_joiner(&self, id: NodeId, join_op: OpId) -> Self::Proc {
        RegisterSpace::single(self.joiner(id, join_op)).with_retransmit(self.retransmit())
    }

    fn space_name(&self) -> &'static str {
        self.name()
    }

    fn space_msg_label(msg: &<F::Proc as RegisterProcess>::Msg) -> &'static str {
        F::msg_label(msg)
    }
}

/// Lifts a protocol factory to a `keys`-key [`RegisterSpace`] factory: one
/// protocol instance per key per process, multiplexed behind the shared
/// join handshake, `SpaceMsg`-tagged wire traffic.
#[derive(Debug, Clone, Copy)]
pub struct SpaceOf<F> {
    inner: F,
    keys: u32,
    shard: ShardConfig,
}

impl<F> SpaceOf<F> {
    /// A `keys`-key space over `inner`'s protocol, with the full-reply
    /// (`G = 1`) join handshake.
    ///
    /// # Panics
    /// Panics if `keys` is zero.
    pub fn new(inner: F, keys: u32) -> SpaceOf<F> {
        assert!(keys > 0, "a register space needs at least one key");
        SpaceOf {
            inner,
            keys,
            shard: ShardConfig::default(),
        }
    }

    /// Shards join replies over `config.groups` responder groups
    /// (`G = 1` keeps the full-reply handshake; see
    /// [`dynareg_core::space`]).
    pub fn with_shards(mut self, config: ShardConfig) -> SpaceOf<F> {
        self.shard = config;
        self
    }

    /// The configured shard layout (groups are clamped to the key count
    /// when each space is built).
    pub fn shard_config(&self) -> ShardConfig {
        self.shard
    }
}

impl<F: ProtocolFactory> SpaceFactory for SpaceOf<F> {
    type Proc = RegisterSpace<F::Proc>;

    fn key_count(&self) -> u32 {
        self.keys
    }

    fn space_bootstrap(
        &self,
        id: NodeId,
        initial: <F::Proc as RegisterProcess>::Val,
    ) -> RegisterSpace<F::Proc> {
        RegisterSpace::new_bootstrap(
            (0..self.keys)
                .map(|_| self.inner.bootstrap(id, initial.clone()))
                .collect(),
        )
        .with_shards(self.shard)
    }

    fn space_joiner(&self, id: NodeId, join_op: OpId) -> RegisterSpace<F::Proc> {
        RegisterSpace::new_joiner(
            (0..self.keys)
                .map(|_| self.inner.joiner(id, join_op))
                .collect(),
        )
        .with_shards(self.shard)
        .with_retransmit(self.inner.retransmit())
    }

    fn space_name(&self) -> &'static str {
        self.inner.name()
    }

    fn space_msg_label(msg: &SpaceMsg<<F::Proc as RegisterProcess>::Msg>) -> &'static str {
        match msg {
            // A full re-inquiry is the sharded handshake's starvation
            // fallback — only ever sent when `G > 1`, so the distinct
            // label cannot perturb an unsharded run's label streams. A high
            // INQUIRY_FULL count is the operational signal that shards
            // keep starving (e.g. `G` too large for `n`) and
            // joins are degrading to the full-state transfer.
            SpaceMsg::JoinAll { full: true, .. } => "INQUIRY_FULL",
            SpaceMsg::Keyed { inner, .. } | SpaceMsg::JoinAll { inner, .. } => F::msg_label(inner),
            SpaceMsg::Batch { .. } => "BATCH",
        }
    }
}

/// Factory for the synchronous protocol (Figures 1–2).
#[derive(Debug, Clone, Copy)]
pub struct SyncFactory {
    /// Protocol configuration (δ and the Figure 3 ablation flag).
    pub config: SyncConfig,
    retransmit: Option<RetransmitConfig>,
}

impl SyncFactory {
    /// A factory for the given configuration (retransmission off).
    pub fn new(config: SyncConfig) -> SyncFactory {
        SyncFactory {
            config,
            retransmit: None,
        }
    }

    /// Wraps built joiners in the space layer's loss-tolerant join
    /// retransmission (see [`RetransmitConfig`]).
    pub fn with_retransmit(mut self, config: Option<RetransmitConfig>) -> SyncFactory {
        self.retransmit = config;
        self
    }
}

impl ProtocolFactory for SyncFactory {
    type Proc = SyncRegister<u64>;

    fn bootstrap(&self, id: NodeId, initial: u64) -> SyncRegister<u64> {
        SyncRegister::new_bootstrap(id, self.config, initial)
    }

    fn joiner(&self, id: NodeId, join_op: OpId) -> SyncRegister<u64> {
        SyncRegister::new_joiner(id, self.config, join_op)
    }

    fn name(&self) -> &'static str {
        if self.config.skip_join_wait {
            "sync-nowait"
        } else {
            "sync"
        }
    }

    fn msg_label(msg: &SyncMsg<u64>) -> &'static str {
        msg.label()
    }

    fn retransmit(&self) -> Option<RetransmitConfig> {
        self.retransmit
    }
}

/// Factory for the eventually synchronous protocol (Figures 4–6).
#[derive(Debug, Clone, Copy)]
pub struct EsFactory {
    /// Protocol configuration (`n`, atomic write-back flag).
    pub config: EsConfig,
    retransmit: Option<RetransmitConfig>,
}

impl EsFactory {
    /// A factory for the given configuration (retransmission off).
    pub fn new(config: EsConfig) -> EsFactory {
        EsFactory {
            config,
            retransmit: None,
        }
    }

    /// Wraps built joiners in the space layer's loss-tolerant join
    /// retransmission (see [`RetransmitConfig`]).
    pub fn with_retransmit(mut self, config: Option<RetransmitConfig>) -> EsFactory {
        self.retransmit = config;
        self
    }
}

impl ProtocolFactory for EsFactory {
    type Proc = EsRegister<u64>;

    fn bootstrap(&self, id: NodeId, initial: u64) -> EsRegister<u64> {
        EsRegister::new_bootstrap(id, self.config, initial)
    }

    fn joiner(&self, id: NodeId, join_op: OpId) -> EsRegister<u64> {
        EsRegister::new_joiner(id, self.config, join_op)
    }

    fn name(&self) -> &'static str {
        if self.config.read_write_back {
            "es-atomic"
        } else {
            "es"
        }
    }

    fn msg_label(msg: &EsMsg<u64>) -> &'static str {
        msg.label()
    }

    fn retransmit(&self) -> Option<RetransmitConfig> {
        self.retransmit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynareg_sim::{RegisterId, Span};

    #[test]
    fn sync_factory_builds_correct_modes() {
        let f = SyncFactory::new(SyncConfig::new(Span::ticks(3)));
        assert_eq!(f.name(), "sync");
        let b = f.bootstrap(NodeId::from_raw(0), 5);
        assert!(b.is_active());
        assert_eq!(b.local_value(), Some(&5));
        let j = f.joiner(NodeId::from_raw(1), OpId::from_raw(0));
        assert!(!j.is_active());
        let f2 = SyncFactory::new(SyncConfig::without_join_wait(Span::ticks(3)));
        assert_eq!(f2.name(), "sync-nowait");
    }

    #[test]
    fn es_factory_builds_correct_modes() {
        let f = EsFactory::new(EsConfig::new(5));
        assert_eq!(f.name(), "es");
        assert!(f.bootstrap(NodeId::from_raw(0), 5).is_active());
        let f2 = EsFactory::new(EsConfig::atomic(5));
        assert_eq!(f2.name(), "es-atomic");
    }

    #[test]
    fn labels_flow_through() {
        assert_eq!(SyncFactory::msg_label(&SyncMsg::Inquiry), "INQUIRY");
        assert_eq!(EsFactory::msg_label(&EsMsg::Inquiry { r_sn: 0 }), "INQUIRY");
    }

    #[test]
    fn every_protocol_factory_is_a_one_key_space_factory() {
        let f = SyncFactory::new(SyncConfig::new(Span::ticks(3)));
        assert_eq!(SpaceFactory::key_count(&f), 1);
        assert_eq!(f.space_name(), "sync");
        let b = f.space_bootstrap(NodeId::from_raw(0), 5);
        assert!(b.is_active());
        assert_eq!(b.register(RegisterId::ZERO).local_value(), Some(&5));
        // One-key wire labels are the raw protocol labels.
        assert_eq!(
            <SyncFactory as SpaceFactory>::space_msg_label(&SyncMsg::Inquiry),
            "INQUIRY"
        );
    }

    #[test]
    fn space_of_threads_the_shard_config_into_built_spaces() {
        use dynareg_core::space::shard_of_node;
        let f = SpaceOf::new(SyncFactory::new(SyncConfig::new(Span::ticks(3))), 8)
            .with_shards(ShardConfig::new(4));
        assert_eq!(f.shard_config().groups, 4);
        let b = f.space_bootstrap(NodeId::from_raw(7), 0);
        assert_eq!(b.shard_groups(), 4);
        assert_eq!(b.responder_shard(), shard_of_node(NodeId::from_raw(7), 4));
        // Groups clamp to the key count at build time.
        let narrow = SpaceOf::new(SyncFactory::new(SyncConfig::new(Span::ticks(3))), 2)
            .with_shards(ShardConfig::new(16));
        assert_eq!(
            narrow
                .space_bootstrap(NodeId::from_raw(0), 0)
                .shard_groups(),
            2
        );
        // The default is the full-reply handshake.
        let plain = SpaceOf::new(SyncFactory::new(SyncConfig::new(Span::ticks(3))), 2);
        assert_eq!(plain.shard_config(), ShardConfig::new(1));
    }

    #[test]
    fn space_of_builds_one_instance_per_key() {
        let f = SpaceOf::new(SyncFactory::new(SyncConfig::new(Span::ticks(3))), 4);
        assert_eq!(f.key_count(), 4);
        assert_eq!(f.space_name(), "sync");
        let b = f.space_bootstrap(NodeId::from_raw(0), 9);
        assert_eq!(b.key_count(), 4);
        assert!(b.is_active());
        assert_eq!(b.register(RegisterId::from_raw(3)).local_value(), Some(&9));
        let j = f.space_joiner(NodeId::from_raw(7), OpId::from_raw(1));
        assert!(!j.is_active());
        // Space wire labels delegate to the inner protocol; batches are
        // their own label.
        assert_eq!(
            <SpaceOf<SyncFactory> as SpaceFactory>::space_msg_label(&SpaceMsg::JoinAll {
                inner: SyncMsg::<u64>::Inquiry,
                full: false
            }),
            "INQUIRY"
        );
        assert_eq!(
            <SpaceOf<SyncFactory> as SpaceFactory>::space_msg_label(&SpaceMsg::Batch {
                replies: vec![].into()
            }),
            "BATCH"
        );
    }
}
