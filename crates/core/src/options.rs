//! The session-configuration surface: [`SessionOptions`].
//!
//! Every knob a session can vary lives in one builder consumed by
//! exactly two drivers ([`drive_garbler`](crate::drive::drive_garbler) /
//! [`drive_evaluator`](crate::drive::drive_evaluator)). There is no
//! schedule knob: every lane count runs the one netlist-order walk.
//!
//! # Migration map
//!
//! | Removed entry point | Form with [`SessionOptions`] |
//! |---|---|
//! | single-lane SkipGate garbler/evaluator | `drive_garbler(…, &SessionOptions::new())` / `drive_evaluator(…)` |
//! | … with streaming, sharding or dead-gate options | `… .stream(s)` `.shards(n)` `.filter_dead_gates(b)` |
//! | instanced garbler/evaluator | `… .instances(n)` |
//! | classic baseline garbler/evaluator | `… .engine(EngineKind::Baseline)` |
//! | in-process two-party harnesses | [`run_two_party_opts`](crate::drive::run_two_party_opts) |
//! | per-session schedule selection | none: one walk for every lane count |
//!
//! Counts are validated when a driver starts — a zero shard or
//! instance count is a typed [`ConfigError`] at the session boundary,
//! never a downstream panic inside channel setup.
//!
//! ```
//! use arm2gc_core::SessionOptions;
//! let opts = SessionOptions::new().shards(2).instances(8);
//! assert!(opts.validate().is_ok());
//! assert!(SessionOptions::new().shards(0).validate().is_err());
//! ```

use arm2gc_proto::{ConfigError, OtBackend, OtConfig, ShardConfig, StreamConfig};

use crate::engine::SkipGateOptions;

/// Which garbling engine a session runs.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The classic sequential-GC baseline: every nonlinear gate is
    /// garbled, every cycle.
    Baseline,
    /// The SkipGate engine (this crate): only category-iv gates with
    /// surviving label fanout cost tables.
    #[default]
    SkipGate,
}

/// Unified configuration of one garbling session, whichever side drives
/// it.
///
/// Build with [`SessionOptions::new`] plus the chained setters; the
/// struct is `#[non_exhaustive]` so new knobs can land without breaking
/// downstream builds. Counts (`shards`, `instances`) are plain integers
/// here — they are validated into typed errors by [`validate`] /
/// [`shard_config`], which every driver calls before any protocol state
/// exists.
///
/// [`validate`]: Self::validate
/// [`shard_config`]: Self::shard_config
#[non_exhaustive]
#[derive(Clone, Copy, Debug)]
pub struct SessionOptions {
    /// Which engine garbles ([`EngineKind::SkipGate`] by default).
    pub engine: EngineKind,
    /// Parallel table-stream sub-channels (1 = the legacy single
    /// stream). Validated into a [`ShardConfig`] at drive time.
    pub shards: usize,
    /// Independent circuit instances (lanes) batched through one
    /// session. `1` is a plain single-instance run; more interleaves
    /// the lanes per gate through one struct-of-arrays label store and
    /// requires the SkipGate engine.
    pub instances: usize,
    /// Which OT stack delivers the evaluator's input labels.
    pub ot: OtBackend,
    /// The base-OT group the [`OtBackend::NaorPinkasIknp`] stack runs
    /// over. Defaults to the production 1279-bit group
    /// ([`OtConfig::STANDARD`]); tests opt into [`OtConfig::TEST`].
    /// Ignored by [`OtBackend::Insecure`].
    pub ot_config: OtConfig,
    /// Garbler-side table-streaming (chunking) configuration.
    pub stream: StreamConfig,
    /// SkipGate decision-engine options (unused by the baseline).
    pub skipgate: SkipGateOptions,
    /// Socket read/write deadline for transports that support one
    /// (`SO_RCVTIMEO`/`SO_SNDTIMEO` on TCP). `None` — the default —
    /// blocks forever, matching historical behaviour. The in-memory
    /// channels the core drivers use ignore it; the garbler service and
    /// its client apply it to every session socket, so a stalled peer
    /// surfaces as a typed timeout instead of a wedged thread.
    pub io_timeout: Option<std::time::Duration>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        Self {
            engine: EngineKind::default(),
            shards: 1,
            instances: 1,
            ot: OtBackend::default(),
            ot_config: OtConfig::default(),
            stream: StreamConfig::default(),
            skipgate: SkipGateOptions::default(),
            io_timeout: None,
        }
    }
}

impl SessionOptions {
    /// A single-instance, unsharded SkipGate session with default OT
    /// and streaming — the starting point for the chained setters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the garbling engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the table-stream shard count (validated at drive time).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the lane count for cross-instance batching (validated at
    /// drive time).
    #[must_use]
    pub fn instances(mut self, instances: usize) -> Self {
        self.instances = instances;
        self
    }

    /// Selects the OT backend.
    #[must_use]
    pub fn ot(mut self, ot: OtBackend) -> Self {
        self.ot = ot;
        self
    }

    /// Selects the Naor–Pinkas base-OT group.
    #[must_use]
    pub fn ot_config(mut self, ot_config: OtConfig) -> Self {
        self.ot_config = ot_config;
        self
    }

    /// Sets the garbler-side table-streaming configuration.
    #[must_use]
    pub fn stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Toggles SkipGate's dead-gate filtering (Alg. 4 line 18); only
    /// the ablation benchmark turns it off.
    #[must_use]
    pub fn filter_dead_gates(mut self, on: bool) -> Self {
        self.skipgate.filter_dead_gates = on;
        self
    }

    /// Sets (or clears, with `None`) the per-session socket read/write
    /// deadline. See the field docs: only socket-backed transports
    /// honour it.
    #[must_use]
    pub fn io_timeout(mut self, timeout: Option<std::time::Duration>) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Validates every count against the limits the wire format and the
    /// engines impose.
    ///
    /// # Errors
    /// [`ConfigError::ZeroShards`] / [`ConfigError::TooManyShards`] for
    /// a shard count outside `1..=255`;
    /// [`ConfigError::ZeroInstances`] / [`ConfigError::TooManyInstances`]
    /// for a lane count outside `1..=65535`;
    /// [`ConfigError::BaselineInstanced`] when the baseline engine is
    /// paired with more than one lane.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.shard_config()?;
        match self.instances {
            0 => return Err(ConfigError::ZeroInstances),
            n if n > u16::MAX as usize => return Err(ConfigError::TooManyInstances(n)),
            _ => {}
        }
        if self.engine == EngineKind::Baseline && self.instances > 1 {
            return Err(ConfigError::BaselineInstanced);
        }
        Ok(())
    }

    /// The validated [`ShardConfig`] this session opens channels with.
    ///
    /// # Errors
    /// [`ConfigError::ZeroShards`] / [`ConfigError::TooManyShards`]
    /// when the count is outside `1..=255`.
    pub fn shard_config(&self) -> Result<ShardConfig, ConfigError> {
        ShardConfig::try_new(self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_every_knob() {
        let opts = SessionOptions::new()
            .engine(EngineKind::Baseline)
            .shards(3)
            .instances(1)
            .filter_dead_gates(false)
            .io_timeout(Some(std::time::Duration::from_millis(250)));
        assert_eq!(opts.engine, EngineKind::Baseline);
        assert_eq!(opts.shards, 3);
        assert_eq!(opts.instances, 1);
        assert!(!opts.skipgate.filter_dead_gates);
        assert_eq!(opts.io_timeout, Some(std::time::Duration::from_millis(250)));
        assert_eq!(SessionOptions::new().io_timeout, None);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn zero_counts_are_typed_errors_not_panics() {
        assert_eq!(
            SessionOptions::new().shards(0).validate(),
            Err(ConfigError::ZeroShards)
        );
        assert_eq!(
            SessionOptions::new().instances(0).validate(),
            Err(ConfigError::ZeroInstances)
        );
        assert_eq!(
            SessionOptions::new().shards(256).validate(),
            Err(ConfigError::TooManyShards(256))
        );
        assert_eq!(
            SessionOptions::new().instances(1 << 17).validate(),
            Err(ConfigError::TooManyInstances(1 << 17))
        );
    }

    #[test]
    fn baseline_rejects_instancing() {
        assert_eq!(
            SessionOptions::new()
                .engine(EngineKind::Baseline)
                .instances(8)
                .validate(),
            Err(ConfigError::BaselineInstanced)
        );
        assert!(SessionOptions::new().instances(8).validate().is_ok());
    }
}
