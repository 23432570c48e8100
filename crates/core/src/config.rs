//! Algorithm configuration.
//!
//! Mirrors the paper's Algorithm 1 (*Initialize Data Structures*):
//! given the error parameter `ε`, set `ε₁ = ε/2`, `ε₂ = ε/4`,
//! `β₁ = ⌈1/ε₁ + 1⌉`, `β₂ = ⌈1/ε₂ + 1⌉`, then initialize the historical
//! structures with `(ε₁, β₁)` and the stream structures with `(ε₂, β₂)`.
//! The merge threshold `κ` (§2.1) and operational knobs (external-sort
//! memory, query block-cache size, retention policy) are also carried
//! here.

use std::fmt;

use crate::retention::RetentionPolicy;
use hsq_sketch::SketchKind;
use hsq_storage::RetryPolicy;

/// Typed rejection of an invalid configuration value, so embedders can
/// surface misconfiguration without parsing panic strings. The builder's
/// panicking setters go through the same validation and panic with this
/// error's `Display` message.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The overall error parameter must be finite and in `(0, 1]` —
    /// NaN, infinities, zero and negatives would all turn the downstream
    /// `f64 → usize` capacity formulas (KLL's `⌈2·budget/ε⌉`, GK's
    /// `⌊1/2ε⌋` cadence) into garbage sizes.
    InvalidEpsilon(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidEpsilon(e) => {
                write!(f, "epsilon must be finite and in (0, 1], got {e}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validate an overall error parameter `ε`: finite and in `(0, 1]`.
///
/// The single gate for every path an ε can enter the system through —
/// the [`HsqConfigBuilder`] setters and values decoded from service
/// handshake frames (a coordinator must reject a garbage ε before using
/// it to size acceptance windows, exactly as a local builder would).
/// `NaN` fails every comparison, so the check is an explicit accept-list
/// rather than a rejection of `epsilon <= 0.0`.
pub fn validate_epsilon(epsilon: f64) -> Result<f64, ConfigError> {
    if epsilon.is_finite() && epsilon > 0.0 && epsilon <= 1.0 {
        Ok(epsilon)
    } else {
        Err(ConfigError::InvalidEpsilon(epsilon))
    }
}

/// Configuration for [`crate::HistStreamQuantiles`] and its parts.
#[derive(Clone, Debug, PartialEq)]
pub struct HsqConfig {
    /// Historical-summary error parameter (`ε₁ = ε/2` in Algorithm 1).
    pub epsilon1: f64,
    /// Stream-summary error parameter (`ε₂ = ε/4` in Algorithm 1).
    pub epsilon2: f64,
    /// Per-partition summary length `β₁ = ⌈1/ε₁ + 1⌉`.
    pub beta1: usize,
    /// Stream summary length `β₂ = ⌈1/ε₂ + 1⌉`.
    pub beta2: usize,
    /// Merge threshold `κ ≥ 2`: a level holding more than `κ` partitions
    /// collapses into one partition at the next level (§2.1).
    pub kappa: usize,
    /// Working memory (in items) for external sort of incoming batches.
    pub sort_budget_items: usize,
    /// Decoded-block cache capacity (blocks) for query processing — the
    /// paper's single-block optimization (§2.4).
    pub cache_blocks: usize,
    /// Retention limits enforced on every step boundary (see
    /// [`crate::retention`]). Default: unbounded (the paper's grow-only
    /// warehouse).
    pub retention: RetentionPolicy,
    /// Retry policy for transient query failures: the engine's query loop
    /// re-runs a whole probe on a transient error under this policy's
    /// attempt cap. Device writes and reads are retried only by wrapping
    /// the device in [`hsq_storage::RetryDevice`] with its own policy.
    /// Default: [`RetryPolicy::none`] (fail fast).
    pub retry: RetryPolicy,
    /// Strict corruption handling: when `true`, queries over a warehouse
    /// with quarantined (confirmed-corrupt) partitions return the
    /// corruption error instead of a degraded answer with widened rank
    /// bounds. Default `false` (answer with explicit bound widening).
    pub strict: bool,
    /// Which [`hsq_sketch::AnySketch`] backend absorbs the live
    /// stream: [`SketchKind::Gk`] (the paper-faithful default) or
    /// [`SketchKind::Kll`] (O(1) amortized updates, more memory). Default
    /// GK; the builder's `.sketch(..)` names the other. KLL compacts on
    /// one deterministic schedule (alternating per-level parity), so
    /// either backend replays byte-identically from the same inputs.
    pub sketch: SketchKind,
}

impl HsqConfig {
    /// Start building a config from the overall error parameter `ε`.
    pub fn builder() -> HsqConfigBuilder {
        HsqConfigBuilder::default()
    }

    /// The paper's Algorithm 1 with defaults for operational knobs.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self::builder().epsilon(epsilon).build()
    }

    /// The overall error parameter `ε = max(2ε₁, 4ε₂)` (inverse of
    /// Algorithm 1's split). Quick responses err by up to `1.5·ε·N`.
    pub fn epsilon(&self) -> f64 {
        (2.0 * self.epsilon1).max(4.0 * self.epsilon2)
    }

    /// The error parameter governing *accurate* responses: `4ε₂`.
    ///
    /// The accurate response's error is purely stream-side — `ρ₁` is
    /// computed exactly on disk, only the stream rank `ρ₂` is approximate
    /// (Lemma 5's argument) — so its acceptance window is `4ε₂·m`.
    /// Under Algorithm 1's split this equals `ε` exactly; under
    /// memory-driven budgeting (where `ε₁` may be coarser) it keeps the
    /// accuracy independent of `κ`, which is what the paper's Figure 5
    /// observes. Historical summary resolution `ε₁` then only affects
    /// query I/O (wider initial filters), not the answer's error.
    pub fn query_epsilon(&self) -> f64 {
        4.0 * self.epsilon2
    }

    /// Explicit `(ε₁, ε₂)` construction, used when memory budgeting picks
    /// the two error parameters independently (see [`crate::budget`]).
    pub fn with_epsilons(epsilon1: f64, epsilon2: f64) -> Self {
        assert!(epsilon1 > 0.0 && epsilon1 <= 1.0, "epsilon1 in (0,1]");
        assert!(epsilon2 > 0.0 && epsilon2 <= 1.0, "epsilon2 in (0,1]");
        let beta1 = (1.0 / epsilon1 + 1.0).ceil() as usize;
        let beta2 = (1.0 / epsilon2 + 1.0).ceil() as usize;
        HsqConfig {
            epsilon1,
            epsilon2,
            beta1,
            beta2,
            kappa: 10,
            sort_budget_items: 1 << 20,
            cache_blocks: 64,
            retention: RetentionPolicy::unbounded(),
            retry: RetryPolicy::none(),
            strict: false,
            sketch: SketchKind::Gk,
        }
    }
}

/// Builder for [`HsqConfig`].
#[derive(Clone, Debug)]
pub struct HsqConfigBuilder {
    epsilon: f64,
    kappa: usize,
    sort_budget_items: usize,
    cache_blocks: usize,
    retention: RetentionPolicy,
    retry: RetryPolicy,
    strict: bool,
    sketch: SketchKind,
}

impl Default for HsqConfigBuilder {
    fn default() -> Self {
        HsqConfigBuilder {
            epsilon: 0.01,
            kappa: 10,
            sort_budget_items: 1 << 20,
            cache_blocks: 64,
            retention: RetentionPolicy::unbounded(),
            retry: RetryPolicy::none(),
            strict: false,
            sketch: SketchKind::Gk,
        }
    }
}

impl HsqConfigBuilder {
    /// Overall error parameter `ε ∈ (0, 1]`: accurate quantile queries are
    /// answered within rank error `εm`, `m` = stream size.
    ///
    /// Panics on invalid input; use [`Self::try_epsilon`] for a typed
    /// rejection.
    pub fn epsilon(self, epsilon: f64) -> Self {
        match self.try_epsilon(epsilon) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Self::epsilon`]: rejects NaN, infinities and
    /// anything outside `(0, 1]` with [`ConfigError::InvalidEpsilon`]
    /// instead of panicking. `NaN` fails every comparison, so the check
    /// must be an explicit accept-list — `is_finite` plus the open/closed
    /// interval test — rather than a rejection of `epsilon <= 0.0`.
    pub fn try_epsilon(mut self, epsilon: f64) -> Result<Self, ConfigError> {
        self.epsilon = validate_epsilon(epsilon)?;
        Ok(self)
    }

    /// Merge threshold `κ ≥ 2` (paper default in experiments: 10).
    pub fn merge_threshold(mut self, kappa: usize) -> Self {
        assert!(kappa >= 2, "kappa must be >= 2");
        self.kappa = kappa;
        self
    }

    /// Items of working memory for external sort.
    pub fn sort_budget_items(mut self, items: usize) -> Self {
        assert!(items >= 2, "sort budget must be >= 2 items");
        self.sort_budget_items = items;
        self
    }

    /// Blocks of decoded cache available to each query.
    pub fn cache_blocks(mut self, blocks: usize) -> Self {
        assert!(blocks >= 1, "cache must hold at least one block");
        self.cache_blocks = blocks;
        self
    }

    /// Retention limits enforced on every step boundary.
    pub fn retention(mut self, policy: RetentionPolicy) -> Self {
        self.retention = policy;
        self
    }

    /// Retry policy for transient I/O failures (see
    /// [`HsqConfig::retry`]). Default: no retries.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Strict corruption handling (see [`HsqConfig::strict`]): error out
    /// instead of answering degraded queries over quarantined data.
    pub fn strict(mut self, yes: bool) -> Self {
        self.strict = yes;
        self
    }

    /// Select the stream-sketch backend (see [`HsqConfig::sketch`]).
    pub fn sketch(mut self, kind: SketchKind) -> Self {
        self.sketch = kind;
        self
    }

    /// Finalize, applying Algorithm 1's parameter split.
    pub fn build(self) -> HsqConfig {
        let mut cfg = HsqConfig::with_epsilons(self.epsilon / 2.0, self.epsilon / 4.0);
        cfg.sketch = self.sketch;
        cfg.kappa = self.kappa;
        cfg.sort_budget_items = self.sort_budget_items;
        cfg.cache_blocks = self.cache_blocks;
        cfg.retention = self.retention;
        cfg.retry = self.retry;
        cfg.strict = self.strict;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_one_split() {
        let cfg = HsqConfig::with_epsilon(0.5);
        assert!((cfg.epsilon1 - 0.25).abs() < 1e-12);
        assert!((cfg.epsilon2 - 0.125).abs() < 1e-12);
        assert_eq!(cfg.beta1, 5); // ceil(1/0.25 + 1) = 5
        assert_eq!(cfg.beta2, 9); // ceil(1/0.125 + 1) = 9
        assert!((cfg.epsilon() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn figure3_parameters() {
        // The paper's worked example (Figure 3): eps = 1/2 -> summaries of
        // length 5 per partition and 9 for the stream.
        let cfg = HsqConfig::with_epsilon(0.5);
        assert_eq!(cfg.beta1, 5);
        assert_eq!(cfg.beta2, 9);
    }

    #[test]
    fn builder_knobs() {
        let cfg = HsqConfig::builder()
            .epsilon(0.1)
            .merge_threshold(3)
            .sort_budget_items(1024)
            .cache_blocks(7)
            .build();
        assert_eq!(cfg.kappa, 3);
        assert_eq!(cfg.sort_budget_items, 1024);
        assert_eq!(cfg.cache_blocks, 7);
    }

    #[test]
    fn retry_and_strict_knobs() {
        let cfg = HsqConfig::builder()
            .epsilon(0.1)
            .retry(RetryPolicy::standard(5))
            .strict(true)
            .build();
        assert_eq!(cfg.retry.max_retries, 5);
        assert!(cfg.strict);
        let default = HsqConfig::with_epsilon(0.1);
        assert_eq!(default.retry, RetryPolicy::none(), "fail-fast default");
        assert!(!default.strict);
    }

    #[test]
    fn sketch_knob() {
        let cfg = HsqConfig::builder()
            .epsilon(0.1)
            .sketch(SketchKind::Kll)
            .build();
        assert_eq!(cfg.sketch, SketchKind::Kll);
        let gk = HsqConfig::builder()
            .epsilon(0.1)
            .sketch(SketchKind::Gk)
            .build();
        assert_eq!(gk.sketch, SketchKind::Gk);
        // The default is the paper's GK.
        assert_eq!(HsqConfig::with_epsilon(0.1).sketch, SketchKind::Gk);
        assert_eq!(HsqConfig::with_epsilons(0.1, 0.1).sketch, SketchKind::Gk);
    }

    #[test]
    #[should_panic(expected = "kappa")]
    fn kappa_one_rejected() {
        let _ = HsqConfig::builder().merge_threshold(1);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn zero_epsilon_rejected() {
        let _ = HsqConfig::builder().epsilon(0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn nan_epsilon_rejected() {
        let _ = HsqConfig::builder().epsilon(f64::NAN);
    }

    #[test]
    fn try_epsilon_is_typed() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = HsqConfig::builder().try_epsilon(bad).unwrap_err();
            match err {
                ConfigError::InvalidEpsilon(e) => {
                    assert!(e.is_nan() && bad.is_nan() || e == bad)
                }
            }
            assert!(err.to_string().contains("epsilon"));
        }
        let cfg = HsqConfig::builder().try_epsilon(0.2).unwrap().build();
        assert!((cfg.epsilon() - 0.2).abs() < 1e-12);
    }
}
