//! # hsq-workload — evaluation datasets for the VLDB'16 reproduction
//!
//! Generators for the four datasets of the paper's §3.1, all emitting
//! `u64` values and all deterministic under a seed:
//!
//! * [`NormalGen`] — "generated using normal distribution with a mean of
//!   100 million and a standard deviation of 10 million";
//! * [`UniformGen`] — "elements uniformly at random from a universe of
//!   integers ranging from 10⁸ to 10⁹";
//! * [`WikipediaGen`] — substitute for the Wikipedia page-view dump
//!   (tuples are response sizes): heavy-tailed log-normal page sizes.
//!   See [`WikipediaGen`] for the substitution rationale;
//! * [`NetTraceGen`] — substitute for the OC48 ISP trace (tuples are
//!   source–destination pairs): Zipf-popular hosts over a 2³² address
//!   space, packed as `src·2³² + dst`.
//!
//! [`TimeStepDriver`] slices any generator into the paper's processing
//! model: a stream of per-time-step batches (§1.1, Figure 1).
//! [`SampledTelemetryGen`] wraps any generator into weighted
//! `(value, weight)` pairs — sampled telemetry where each record stands
//! in for `w` originals — for the engine's weighted ingestion path.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod zipf;

pub use zipf::Zipf;

/// A deterministic, endless source of `u64` data values.
pub trait DataGen {
    /// Produce the next value.
    fn next_value(&mut self) -> u64;

    /// Produce `n` values into a fresh vector.
    fn take_vec(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_value()).collect()
    }
}

/// The paper's "Normal" dataset: `N(10⁸, 10⁷)`, truncated at zero and
/// rounded to integers.
#[derive(Clone, Debug)]
pub struct NormalGen {
    rng: StdRng,
    mean: f64,
    std: f64,
    /// Second deviate from the Box–Muller pair, if buffered.
    spare: Option<f64>,
}

impl NormalGen {
    /// Paper parameters: mean 10⁸, standard deviation 10⁷.
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, 1e8, 1e7)
    }

    /// Custom mean/std (std must be positive).
    pub fn with_params(seed: u64, mean: f64, std: f64) -> Self {
        assert!(std > 0.0, "std must be positive");
        NormalGen {
            rng: StdRng::seed_from_u64(seed),
            mean,
            std,
            spare: None,
        }
    }

    /// One standard normal deviate (Box–Muller).
    fn std_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u1: f64 = self.rng.gen::<f64>();
            let u2: f64 = self.rng.gen::<f64>();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
            self.spare = Some(r * s);
            return r * c;
        }
    }
}

impl DataGen for NormalGen {
    fn next_value(&mut self) -> u64 {
        let v = self.mean + self.std * self.std_normal();
        v.max(0.0).round() as u64
    }
}

/// The paper's "Uniform Random" dataset: integers uniform in `[10⁸, 10⁹)`.
#[derive(Clone, Debug)]
pub struct UniformGen {
    rng: StdRng,
    lo: u64,
    hi: u64,
}

impl UniformGen {
    /// Paper parameters: `[10⁸, 10⁹)`.
    pub fn new(seed: u64) -> Self {
        Self::with_range(seed, 100_000_000, 1_000_000_000)
    }

    /// Uniform over `[lo, hi)`.
    pub fn with_range(seed: u64, lo: u64, hi: u64) -> Self {
        assert!(lo < hi, "empty range");
        UniformGen {
            rng: StdRng::seed_from_u64(seed),
            lo,
            hi,
        }
    }
}

impl DataGen for UniformGen {
    fn next_value(&mut self) -> u64 {
        self.rng.gen_range(self.lo..self.hi)
    }
}

/// Substitute for the paper's Wikipedia page-view dataset.
///
/// The real dataset's tuples are "the size of the page returned by a
/// request to Wikipedia" — response sizes, which are classically
/// heavy-tailed. We model them as `⌊exp(N(μ, σ))⌋` bytes with
/// `μ = ln(8 KiB)`, `σ = 1.7`, clamped to `[64 B, 1 GiB]`: a long right
/// tail, heavy duplication at the head, values spanning ~7 orders of
/// magnitude — the properties the quantile structures actually exercise.
#[derive(Clone, Debug)]
pub struct WikipediaGen {
    normal: NormalGen,
}

impl WikipediaGen {
    /// Default parameters (see type docs).
    pub fn new(seed: u64) -> Self {
        WikipediaGen {
            normal: NormalGen::with_params(seed, (8192.0f64).ln(), 1.7),
        }
    }
}

impl DataGen for WikipediaGen {
    fn next_value(&mut self) -> u64 {
        // Use the raw deviate: NormalGen::next_value would round/clamp in
        // linear space, we exponentiate first.
        let z = self.normal.std_normal();
        let ln_size = self.normal.mean + self.normal.std * z;
        (ln_size.exp().round() as u64).clamp(64, 1 << 30)
    }
}

/// Substitute for the paper's OC48 network trace.
///
/// The real dataset's tuples are anonymized source–destination pairs. We
/// draw source and destination hosts from a Zipf(α = 1.1) popularity
/// distribution over `2¹⁶` distinct hosts mapped into a 2³² address
/// space, and pack the pair as `src·2³² + dst`. This preserves what the
/// algorithms see: a huge, extremely skewed integer universe with heavy
/// key repetition (the regime where Q-Digest's `log U` factor and GK's
/// duplicate handling matter).
#[derive(Clone, Debug)]
pub struct NetTraceGen {
    rng: StdRng,
    zipf: Zipf,
    /// Pseudorandom but fixed host-id -> 32-bit address mapping.
    addr_salt: u64,
}

impl NetTraceGen {
    /// Default parameters: 2¹⁶ hosts, α = 1.1.
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, 1 << 16, 1.1)
    }

    /// Custom host count and skew.
    pub fn with_params(seed: u64, hosts: usize, alpha: f64) -> Self {
        NetTraceGen {
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipf::new(hosts, alpha),
            addr_salt: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Map a host rank to a stable 32-bit address (splitmix-style hash).
    fn host_addr(&self, host: u64) -> u64 {
        let mut x = host.wrapping_add(self.addr_salt);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) & 0xFFFF_FFFF
    }
}

impl DataGen for NetTraceGen {
    fn next_value(&mut self) -> u64 {
        let src = self.zipf.sample(&mut self.rng) as u64;
        let dst = self.zipf.sample(&mut self.rng) as u64;
        (self.host_addr(src) << 32) | self.host_addr(dst)
    }
}

/// Weighted `(value, weight)` pairs modeling *sampled telemetry*: each
/// record stands in for `w` identical originals (the inverse sampling
/// rate), the regime the engine's weighted ingestion
/// (`stream_update_weighted`) targets.
///
/// Weights are powers of two — `w = 2^k` with probability `2^-(k+1)`,
/// capped at `max_weight` — mirroring how samplers typically halve their
/// rate under load: most records arrive unsampled (`w = 1`) while a
/// geometric tail carries large weights, so the *weight mass* is spread
/// far more evenly than the record count. Values come from any wrapped
/// [`DataGen`]; weights come from an independent LCG, so the value
/// stream is identical to the unweighted generator under the same seed.
pub struct SampledTelemetryGen {
    gen: Box<dyn DataGen + Send>,
    /// LCG state for the weight channel (kept separate from the value
    /// generator so weighting never perturbs the values).
    lcg: u64,
    max_weight: u64,
}

impl SampledTelemetryGen {
    /// Wrap `dataset`'s generator; weights capped at `max_weight`
    /// (rounded down to a power of two, at least 1).
    pub fn new(dataset: Dataset, seed: u64, max_weight: u64) -> Self {
        Self::wrapping(dataset.generator(seed), seed, max_weight)
    }

    /// Wrap an arbitrary generator (same weight channel semantics).
    pub fn wrapping(gen: Box<dyn DataGen + Send>, seed: u64, max_weight: u64) -> Self {
        assert!(max_weight >= 1, "max_weight must be at least 1");
        SampledTelemetryGen {
            gen,
            lcg: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            max_weight: max_weight.next_power_of_two().min(1 << 62),
        }
    }

    /// Produce the next `(value, weight)` pair.
    pub fn next_pair(&mut self) -> (u64, u64) {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Trailing-zero count of uniform bits is geometric(1/2): k zeros
        // with probability 2^-(k+1).
        let k = ((self.lcg >> 33) | (1 << 30)).trailing_zeros();
        let w = (1u64 << k).min(self.max_weight);
        (self.gen.next_value(), w)
    }

    /// Produce `n` pairs into a fresh vector.
    pub fn take_pairs(&mut self, n: usize) -> Vec<(u64, u64)> {
        (0..n).map(|_| self.next_pair()).collect()
    }
}

/// The four evaluation datasets of the paper's §3.1, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Normal(10⁸, 10⁷) synthetic data.
    Normal,
    /// Uniform over [10⁸, 10⁹) synthetic data.
    Uniform,
    /// Wikipedia-like page sizes (heavy-tailed log-normal).
    Wikipedia,
    /// Network-trace-like source–destination pairs (Zipf hosts).
    NetTrace,
}

impl Dataset {
    /// All four datasets, in the paper's figure order.
    pub const ALL: [Dataset; 4] = [
        Dataset::Uniform,
        Dataset::Normal,
        Dataset::Wikipedia,
        Dataset::NetTrace,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Normal => "Normal",
            Dataset::Uniform => "Uniform Random",
            Dataset::Wikipedia => "Wikipedia",
            Dataset::NetTrace => "Network Trace",
        }
    }

    /// Build the generator with a seed.
    pub fn generator(self, seed: u64) -> Box<dyn DataGen + Send> {
        match self {
            Dataset::Normal => Box::new(NormalGen::new(seed)),
            Dataset::Uniform => Box::new(UniformGen::new(seed)),
            Dataset::Wikipedia => Box::new(WikipediaGen::new(seed)),
            Dataset::NetTrace => Box::new(NetTraceGen::new(seed)),
        }
    }
}

impl std::str::FromStr for Dataset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "normal" => Ok(Dataset::Normal),
            "uniform" => Ok(Dataset::Uniform),
            "wikipedia" | "wiki" => Ok(Dataset::Wikipedia),
            "nettrace" | "network" | "trace" => Ok(Dataset::NetTrace),
            other => Err(format!(
                "unknown dataset '{other}' (expected normal|uniform|wikipedia|nettrace)"
            )),
        }
    }
}

/// Slices a generator into the paper's processing model: `T` time steps,
/// each delivering a batch of `step_size` streaming elements that is
/// subsequently archived (§1.1, Figure 1).
pub struct TimeStepDriver {
    gen: Box<dyn DataGen + Send>,
    step_size: usize,
    steps_emitted: usize,
    total_steps: usize,
}

impl TimeStepDriver {
    /// Driver over `dataset` emitting `total_steps` batches of
    /// `step_size` elements.
    pub fn new(dataset: Dataset, seed: u64, step_size: usize, total_steps: usize) -> Self {
        TimeStepDriver {
            gen: dataset.generator(seed),
            step_size,
            steps_emitted: 0,
            total_steps,
        }
    }

    /// Batches already emitted.
    pub fn steps_emitted(&self) -> usize {
        self.steps_emitted
    }

    /// Batches remaining.
    pub fn steps_remaining(&self) -> usize {
        self.total_steps - self.steps_emitted
    }
}

impl Iterator for TimeStepDriver {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        if self.steps_emitted >= self.total_steps {
            return None;
        }
        self.steps_emitted += 1;
        Some(self.gen.take_vec(self.step_size))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.steps_remaining();
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments() {
        let mut g = NormalGen::new(1);
        let n = 200_000;
        let vals = g.take_vec(n);
        let mean = vals.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let var = vals.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1e8).abs() < 1e8 * 0.01, "mean {mean}");
        assert!((var.sqrt() - 1e7).abs() < 1e7 * 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn uniform_range_and_spread() {
        let mut g = UniformGen::new(2);
        let vals = g.take_vec(100_000);
        assert!(vals
            .iter()
            .all(|&v| (100_000_000..1_000_000_000).contains(&v)));
        let mean = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
        assert!((mean - 5.5e8).abs() < 5.5e8 * 0.02, "mean {mean}");
    }

    #[test]
    fn wikipedia_heavy_tail() {
        let mut g = WikipediaGen::new(3);
        let mut vals = g.take_vec(100_000);
        vals.sort_unstable();
        let p50 = vals[vals.len() / 2];
        let p99 = vals[vals.len() * 99 / 100];
        // Median near 8 KiB, long tail: p99/p50 should exceed 10x.
        assert!((2048..32_768).contains(&p50), "p50 {p50}");
        assert!(p99 > p50 * 10, "tail not heavy: p99={p99} p50={p50}");
        assert!(vals.iter().all(|&v| (64..=(1 << 30)).contains(&v)));
    }

    #[test]
    fn nettrace_skew_and_universe() {
        let mut g = NetTraceGen::new(4);
        let vals = g.take_vec(100_000);
        // Universe is huge (64-bit packed pairs)...
        let max = *vals.iter().max().unwrap();
        assert!(max > 1 << 40, "max {max}");
        // ...but keys repeat heavily (Zipf skew).
        let mut uniq = vals.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(
            uniq.len() < vals.len() * 9 / 10,
            "expected heavy repetition, got {} uniques / {}",
            uniq.len(),
            vals.len()
        );
    }

    #[test]
    fn generators_are_deterministic() {
        for ds in Dataset::ALL {
            let a = ds.generator(99).take_vec(1000);
            let b = ds.generator(99).take_vec(1000);
            assert_eq!(a, b, "{:?} not deterministic", ds);
            let c = ds.generator(100).take_vec(1000);
            assert_ne!(a, c, "{:?} ignores seed", ds);
        }
    }

    #[test]
    fn sampled_telemetry_weights_are_geometric_and_deterministic() {
        let mut g = SampledTelemetryGen::new(Dataset::Uniform, 7, 64);
        let pairs = g.take_pairs(50_000);
        assert!(pairs.iter().all(|&(_, w)| (1..=64).contains(&w)));
        assert!(pairs.iter().all(|&(_, w)| w.is_power_of_two()));
        // Roughly half the records are unsampled (w = 1)...
        let ones = pairs.iter().filter(|&&(_, w)| w == 1).count();
        assert!(
            (20_000..30_000).contains(&ones),
            "w=1 share off: {ones}/50000"
        );
        // ...yet the heavy tail carries real mass.
        let total: u64 = pairs.iter().map(|&(_, w)| w).sum();
        assert!(total > 50_000 * 2, "total weight {total} not heavy enough");
        // Deterministic, and the value channel matches the unweighted
        // generator under the same seed.
        let again = SampledTelemetryGen::new(Dataset::Uniform, 7, 64).take_pairs(50_000);
        assert_eq!(pairs, again);
        let plain = Dataset::Uniform.generator(7).take_vec(100);
        let values: Vec<u64> = pairs[..100].iter().map(|&(v, _)| v).collect();
        assert_eq!(values, plain, "weighting must not perturb values");
    }

    #[test]
    fn driver_emits_exact_batches() {
        let mut d = TimeStepDriver::new(Dataset::Uniform, 5, 128, 7);
        let mut count = 0;
        for batch in d.by_ref() {
            assert_eq!(batch.len(), 128);
            count += 1;
        }
        assert_eq!(count, 7);
        assert_eq!(d.steps_remaining(), 0);
    }

    #[test]
    fn dataset_from_str() {
        assert_eq!("normal".parse::<Dataset>().unwrap(), Dataset::Normal);
        assert_eq!("WIKI".parse::<Dataset>().unwrap(), Dataset::Wikipedia);
        assert!("bogus".parse::<Dataset>().is_err());
    }
}
