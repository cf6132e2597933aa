//! Self-tuning knob resolution (`Auto` → concrete values).
//!
//! The simulators expose three `Auto` requests — [`ComputeMode::Auto`],
//! [`em_disk::Pipeline::Auto`] and [`em_disk::DiskConfig::auto_cache`] —
//! and this module turns them into concrete knob values **before any disk
//! is built**. Resolution is a pure function of three integers
//! ([`TuneInputs`]): the usable core count, the measured-or-assumed
//! compute/fetch wall ratio (fixed-point, ×16), and the run's `v·μ+γ`
//! memory footprint. Because every knob the tuner sets is, by the
//! substrate's own contract, incapable of changing counted I/O, final
//! states or the message ledger (counting happens in `em_disk::DiskArray`
//! at submission), *any* resolution is correct — the tuner only chooses
//! wall-clock speed, and reproducibility reduces to the inputs being
//! stable.
//!
//! The inputs come from one of three [`TuneSource`]s, in the order a
//! resolution attempts them:
//!
//! 1. [`TuneSource::Explicit`] — the caller pinned [`TuneInputs`] (tests,
//!    CI determinism lanes, service configs that must not drift).
//! 2. [`TuneSource::Probe`] — an opt-in seeded in-process microbenchmark
//!    measures the ratio on the current host and quantizes it to the
//!    nearest power of two, so run-to-run timer noise on one host
//!    collapses onto the same bucket.
//! 3. [`TuneSource::Default`] — a built-in ratio, compute ≈ 40× fetch.
//!
//! The chosen values, the inputs and the source are recorded in
//! [`ResolvedConfig`] and carried in `CostReport::resolved_config`, so a
//! run's effective configuration is always reproducible from its report;
//! [`ResolvedConfig::deterministic_line`] renders it byte-stably for
//! ledgers and determinism diffs.

use crate::compute::ComputeMode;
use em_disk::Pipeline;

/// Default compute/fetch wall ratio (×16) when neither a probe nor
/// explicit inputs are supplied. 40:1 is what the `ComputeMode` ablation
/// of PR 4 measured on its compute-bound mixing kernel (v = 32, 1024 u64
/// per vp, 600 inner rounds, serial lane: compute phase 78 ms, fetch
/// 1.4–1.7 ms, rounded down) — the one workload that was ever measured for
/// this purpose, not a property of the repository's programs in general.
const DEFAULT_RATIO_X16: u32 = 40 * 16;

/// Widest `Threaded(n)` the tuner will pick: beyond eight in-group
/// workers, extra ones only add dispatch overhead.
const MAX_AUTO_WORKERS: usize = 8;

/// Upper bound on an auto-resolved cache capacity.
const MAX_AUTO_CACHE_BYTES: u64 = 64 << 20;

/// The three integers a knob resolution is a pure function of.
///
/// Kept as integers (the ratio in ×16 fixed point) so that equality,
/// hashing and the rendered [`ResolvedConfig::deterministic_line`] are
/// exact — no float formatting in any determinism-diffed artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuneInputs {
    /// Usable cores (`std::thread::available_parallelism`, or pinned).
    pub cores: u32,
    /// Compute-wall / fetch-wall ratio in ×16 fixed point (so 640 = 40:1).
    pub compute_per_fetch_x16: u32,
    /// The run's `v·μ+γ` working-set footprint in bytes.
    pub footprint_bytes: u64,
}

/// Where a resolution's [`TuneInputs`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuneSource {
    /// Built-in constants (40:1 ratio, host core count).
    Default,
    /// Ratio measured by the seeded in-process calibration probe.
    Probe,
    /// Inputs pinned verbatim by the caller.
    Explicit,
}

impl TuneSource {
    fn as_str(&self) -> &'static str {
        match self {
            TuneSource::Default => "default",
            TuneSource::Probe => "probe",
            TuneSource::Explicit => "explicit",
        }
    }
}

/// The concrete knob values an `Auto` resolution produced, plus the
/// inputs and source it produced them from.
///
/// Only knobs that were *requested* as `Auto` are `Some`; a knob the
/// caller set explicitly is untouched and reported as `None` here, so the
/// record reads as "what the tuner decided", never "what the run used"
/// (the latter is the simulator's own builder state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResolvedConfig {
    /// The compute mode chosen for a [`ComputeMode::Auto`] request.
    pub compute: Option<ComputeMode>,
    /// The pipeline chosen for a [`Pipeline::Auto`] request.
    pub pipeline: Option<Pipeline>,
    /// The cache capacity chosen for a `with_auto_cache` request.
    pub cache_bytes: Option<usize>,
    /// The inputs the choices are a pure function of.
    pub inputs: TuneInputs,
    /// Where the inputs came from.
    pub source: TuneSource,
}

impl ResolvedConfig {
    /// Render the resolution as one canonical, byte-stable line — integers
    /// only, fixed field order — suitable for service ledgers and CI
    /// determinism diffs.
    ///
    /// ```
    /// use em_core::{AutoTuner, TuneInputs};
    ///
    /// let tuner = AutoTuner::default()
    ///     .with_inputs(TuneInputs { cores: 4, compute_per_fetch_x16: 640, footprint_bytes: 1 << 16 });
    /// let rc = tuner.resolve(true, true, true, 1 << 16).unwrap();
    /// assert_eq!(
    ///     rc.deterministic_line(),
    ///     "compute=threaded(4) pipeline=stream(2) cache=131072 \
    ///      cores=4 ratio_x16=640 footprint=65536 source=explicit"
    /// );
    /// ```
    pub fn deterministic_line(&self) -> String {
        let compute = match self.compute {
            None => "-".to_string(),
            Some(ComputeMode::Serial) => "serial".to_string(),
            Some(ComputeMode::Threaded(n)) => format!("threaded({n})"),
            Some(ComputeMode::Auto) => "auto".to_string(),
        };
        let pipeline = match self.pipeline {
            None => "-".to_string(),
            Some(Pipeline::Off) => "off".to_string(),
            Some(Pipeline::Stream(n)) => format!("stream({n})"),
            Some(Pipeline::Auto) => "auto".to_string(),
        };
        let cache = match self.cache_bytes {
            None => "-".to_string(),
            Some(b) => b.to_string(),
        };
        format!(
            "compute={compute} pipeline={pipeline} cache={cache} cores={} ratio_x16={} \
             footprint={} source={}",
            self.inputs.cores,
            self.inputs.compute_per_fetch_x16,
            self.inputs.footprint_bytes,
            self.source.as_str(),
        )
    }
}

/// Resolves the simulators' `Auto` knob requests into concrete values.
///
/// Plain data — `Clone`, no threads, no I/O (a resolution runs at most
/// the opt-in probe). The default tuner takes the host core count and the
/// built-in 40:1 ratio; builders narrow it:
///
/// ```
/// use em_core::{AutoTuner, ComputeMode, TuneInputs};
/// use em_disk::Pipeline;
///
/// // Pinned inputs: resolution is a pure function, so this is what the
/// // CI determinism lanes use.
/// let tuner = AutoTuner::default()
///     .with_inputs(TuneInputs { cores: 1, compute_per_fetch_x16: 640, footprint_bytes: 4096 });
/// let rc = tuner.resolve(true, true, false, 4096).unwrap();
/// assert_eq!(rc.compute, Some(ComputeMode::Serial), "one core: stay serial");
/// assert_eq!(rc.pipeline, Some(Pipeline::Stream(2)));
/// assert_eq!(rc.cache_bytes, None, "cache was not requested as Auto");
/// ```
#[derive(Debug, Clone, Default)]
pub struct AutoTuner {
    /// Pinned inputs ([`TuneSource::Explicit`]); wins over everything.
    explicit: Option<TuneInputs>,
    /// Seed for the opt-in calibration probe ([`TuneSource::Probe`]).
    probe_seed: Option<u64>,
}

impl AutoTuner {
    /// Pin the inputs verbatim ([`TuneSource::Explicit`]): resolution
    /// becomes a pure function, independent of the host.
    pub fn with_inputs(mut self, inputs: TuneInputs) -> Self {
        self.explicit = Some(inputs);
        self
    }

    /// Measure the compute/fetch ratio with a seeded in-process
    /// microbenchmark at resolve time ([`TuneSource::Probe`]). The result
    /// is quantized to the nearest power of two, so repeated probes on
    /// one host land in the same bucket despite timer noise. Off by
    /// default; the CI determinism lanes use pinned inputs instead.
    pub fn with_probe(mut self, seed: u64) -> Self {
        self.probe_seed = Some(seed);
        self
    }

    /// Gather the inputs from the strongest configured source.
    fn inputs(&self, footprint_bytes: u64) -> (TuneInputs, TuneSource) {
        if let Some(inputs) = self.explicit {
            return (inputs, TuneSource::Explicit);
        }
        let cores = std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(1);
        if let Some(seed) = self.probe_seed {
            let ratio = probe_ratio_x16(seed);
            return (
                TuneInputs { cores, compute_per_fetch_x16: ratio, footprint_bytes },
                TuneSource::Probe,
            );
        }
        (
            TuneInputs { cores, compute_per_fetch_x16: DEFAULT_RATIO_X16, footprint_bytes },
            TuneSource::Default,
        )
    }

    /// Resolve the requested `Auto` knobs against a `v·μ+γ` footprint.
    ///
    /// Returns `None` when nothing was requested as `Auto` — the common
    /// case, which must stay allocation- and I/O-free. The policy
    /// (DESIGN.md §3.2.11):
    ///
    /// * **compute** — `Serial` on a single core or when compute fails to
    ///   dominate fetch at least 2:1 (pool dispatch would be pure
    ///   overhead); otherwise `Threaded(min(cores, 8))`.
    /// * **pipeline** — `Stream(2)` when compute dominates ≥ 8:1 (the
    ///   window only needs to hide a thin fetch phase); `Stream(4)` when
    ///   fetch is a larger fraction and deeper prefetch pays.
    /// * **cache** — twice the working-set footprint, clamped to 64 MiB,
    ///   and 0 for an empty footprint (the capacity sweep shows residency
    ///   at ≥ `v·μ+γ`; ×2 covers scratch message tracks).
    pub fn resolve(
        &self,
        compute_auto: bool,
        pipeline_auto: bool,
        cache_auto: bool,
        footprint_bytes: u64,
    ) -> Option<ResolvedConfig> {
        if !compute_auto && !pipeline_auto && !cache_auto {
            return None;
        }
        let (inputs, source) = self.inputs(footprint_bytes);
        let compute = compute_auto.then(|| {
            if inputs.cores <= 1 || inputs.compute_per_fetch_x16 < 2 * 16 {
                ComputeMode::Serial
            } else {
                ComputeMode::Threaded((inputs.cores as usize).min(MAX_AUTO_WORKERS))
            }
        });
        let pipeline = pipeline_auto.then_some(if inputs.compute_per_fetch_x16 >= 8 * 16 {
            Pipeline::Stream(2)
        } else {
            Pipeline::Stream(4)
        });
        let cache_bytes = cache_auto.then(|| {
            if inputs.footprint_bytes == 0 {
                0
            } else {
                inputs.footprint_bytes.saturating_mul(2).min(MAX_AUTO_CACHE_BYTES) as usize
            }
        });
        Some(ResolvedConfig { compute, pipeline, cache_bytes, inputs, source })
    }
}

/// Seeded calibration probe: time a fixed compute kernel (a
/// multiplicative mixing loop) against a fixed memory-backend block copy, and
/// return their wall ratio quantized to the nearest power of two (×16).
///
/// The quantization is the determinism story: raw timings jitter run to
/// run, but on one host the ratio stays inside one log₂ bucket, so
/// identically-seeded runs resolve identically (asserted in
/// `tests/reorg_modes.rs`).
fn probe_ratio_x16(seed: u64) -> u32 {
    const CHUNK: usize = 1 << 12;
    let mut data: Vec<u64> = (0..CHUNK as u64).map(|i| i ^ seed).collect();

    let t0 = std::time::Instant::now();
    for r in 0..48u64 {
        for x in data.iter_mut() {
            *x = x.wrapping_add(seed ^ r).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        }
    }
    let compute = t0.elapsed();

    // The fetch stand-in: block-sized memory copies, the memory-backend
    // floor of a context fetch.
    let mut dst = vec![0u8; CHUNK * 8];
    let src = vec![0x5Au8; CHUNK * 8];
    let t0 = std::time::Instant::now();
    for _ in 0..48 {
        dst.copy_from_slice(&src);
        std::hint::black_box(&dst);
    }
    let fetch = t0.elapsed();
    std::hint::black_box(data.as_mut_slice());
    quantize_ratio_x16(compute, fetch)
}

/// `compute / fetch` quantized to the nearest power of two (×16), floored
/// at 1:16 and capped at 4096:1 — far beyond any policy threshold.
fn quantize_ratio_x16(compute: std::time::Duration, fetch: std::time::Duration) -> u32 {
    let fetch = fetch.max(std::time::Duration::from_nanos(1));
    let raw = compute.as_secs_f64() / fetch.as_secs_f64();
    let quantized = 2f64.powf(raw.max(1.0 / 16.0).log2().round()).min(4096.0);
    (quantized * 16.0).round().max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(cores: u32, ratio_x16: u32, footprint: u64) -> TuneInputs {
        TuneInputs { cores, compute_per_fetch_x16: ratio_x16, footprint_bytes: footprint }
    }

    #[test]
    fn no_auto_requests_resolve_to_none() {
        let tuner = AutoTuner::default().with_inputs(inputs(8, 640, 1 << 20));
        assert!(tuner.resolve(false, false, false, 1 << 20).is_none());
    }

    #[test]
    fn policy_matches_the_documented_rules() {
        let t = |cores, ratio| {
            AutoTuner::default()
                .with_inputs(inputs(cores, ratio, 1 << 16))
                .resolve(true, true, true, 1 << 16)
                .unwrap()
        };
        // Single core or compute-light: serial.
        assert_eq!(t(1, 640).compute, Some(ComputeMode::Serial));
        assert_eq!(t(8, 16).compute, Some(ComputeMode::Serial), "1:1 ratio: pool is overhead");
        // Multi-core, compute-dominated: threaded, capped at 8.
        assert_eq!(t(4, 640).compute, Some(ComputeMode::Threaded(4)));
        assert_eq!(t(64, 640).compute, Some(ComputeMode::Threaded(8)), "cap at 8");
        // Pipeline depth from the ratio.
        assert_eq!(t(4, 640).pipeline, Some(Pipeline::Stream(2)), "thin fetch: shallow window");
        assert_eq!(t(4, 64).pipeline, Some(Pipeline::Stream(4)), "fat fetch: deeper prefetch");
        // Cache: 2× footprint.
        assert_eq!(t(4, 640).cache_bytes, Some(2 << 16));
    }

    #[test]
    fn cache_resolution_clamps_and_zeroes() {
        let t = |footprint: u64| {
            AutoTuner::default()
                .with_inputs(inputs(4, 640, footprint))
                .resolve(false, false, true, footprint)
                .unwrap()
                .cache_bytes
                .unwrap()
        };
        assert_eq!(t(0), 0, "empty footprint: no cache");
        assert_eq!(t(1 << 10), 2 << 10);
        assert_eq!(t(1 << 30), 64 << 20, "clamped to 64 MiB");
    }

    #[test]
    fn unrequested_knobs_stay_none() {
        let rc = AutoTuner::default()
            .with_inputs(inputs(4, 640, 4096))
            .resolve(true, false, false, 4096)
            .unwrap();
        assert!(rc.compute.is_some());
        assert_eq!(rc.pipeline, None);
        assert_eq!(rc.cache_bytes, None);
    }

    #[test]
    fn explicit_resolution_is_a_pure_function() {
        let tuner = AutoTuner::default().with_inputs(inputs(4, 640, 8192));
        let a = tuner.resolve(true, true, true, 8192).unwrap();
        let b = tuner.resolve(true, true, true, 8192).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.deterministic_line(), b.deterministic_line());
        assert_eq!(a.source, TuneSource::Explicit);
    }

    #[test]
    fn deterministic_line_is_integer_only_and_stable() {
        let rc = AutoTuner::default()
            .with_inputs(inputs(2, 640, 4096))
            .resolve(true, true, true, 4096)
            .unwrap();
        let line = rc.deterministic_line();
        assert_eq!(
            line,
            "compute=threaded(2) pipeline=stream(2) cache=8192 cores=2 ratio_x16=640 \
             footprint=4096 source=explicit"
        );
        assert!(!line.contains('.'), "no float formatting in a diffed artifact");
    }

    #[test]
    fn precedence_is_explicit_then_probe_then_default() {
        let resolve = |t: AutoTuner| t.resolve(true, false, false, 4096).unwrap();
        let pinned = inputs(4, 64, 4096);
        let rc = resolve(AutoTuner::default().with_probe(7).with_inputs(pinned));
        assert_eq!((rc.source, rc.inputs), (TuneSource::Explicit, pinned));
        assert_eq!(resolve(AutoTuner::default().with_probe(7)).source, TuneSource::Probe);
        let rc = resolve(AutoTuner::default());
        assert_eq!(rc.source, TuneSource::Default);
        assert_eq!(rc.inputs.compute_per_fetch_x16, DEFAULT_RATIO_X16);
    }

    #[test]
    fn probe_is_quantized_and_repeatable() {
        use std::time::Duration;
        // The quantiser on injected timings: exact power-of-two buckets,
        // a ±√2 band of jitter around a bucket's centre stays inside it,
        // and the floor, the cap and a zero denominator hold.
        let us = Duration::from_micros;
        assert_eq!(quantize_ratio_x16(us(800), us(100)), 8 * 16);
        assert_eq!(quantize_ratio_x16(us(800), us(72)), 8 * 16);
        assert_eq!(quantize_ratio_x16(us(800), us(140)), 8 * 16);
        assert_eq!(quantize_ratio_x16(us(800), us(142)), 4 * 16);
        assert_eq!(quantize_ratio_x16(us(100), us(100)), 16);
        assert_eq!(quantize_ratio_x16(us(1), us(1000)), 1);
        assert_eq!(quantize_ratio_x16(us(1_000_000), Duration::ZERO), 4096 * 16);

        // The probe itself: every reading is one of those buckets, and two
        // readings on one host agree to within one adjacent bucket. A
        // reading is the median of several probes, so one probe preempted
        // mid-loop on a loaded host does not move it.
        let reading = || {
            let mut probes: Vec<u32> = (0..9).map(|_| probe_ratio_x16(42)).collect();
            assert!(probes.iter().all(|p| p.is_power_of_two() && (1..=4096 * 16).contains(p)));
            probes.sort_unstable();
            probes[probes.len() / 2]
        };
        let (a, b) = (reading(), reading());
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(hi <= lo * 2, "probe buckets drifted: {a} vs {b}");
    }
}
