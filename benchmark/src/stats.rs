//! Small numeric helpers: the benchmark's own seeded generator, exact
//! quantiles over raw samples, and the pass/fail tally.

use std::time::Instant;

/// SplitMix64. The benchmark draws every input it chooses itself (request
/// mix, route endpoints, probe pairs, per-delta seeds) from this, so the
/// program under test only ever sees generated inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E9B5);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// ranges used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// Exact quantile over raw samples (linear interpolation between order
/// statistics, as Python's `statistics.quantiles(method="inclusive")`).
/// Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match s.get(lo + 1) {
        Some(hi) => s[lo] + (hi - s[lo]) * frac,
        None => s[lo],
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Of timings (lower is better) of a run's windows or operations: the
/// fastest. The virtual machine this was sized on shares its cores: a
/// neighbour slows a vCPU by 30–60 % in spells of seconds, and most of a
/// run can fall inside spells. The slow samples say nothing about the
/// program, and medians of them move with the share of the run the spells
/// took; the fastest window is what the program costs when the box lets
/// it run, and holds as long as one window of the run was quiet. 0 for
/// no samples.
pub fn quiet(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Of rates (higher is better): the highest.
pub fn quiet_rate(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// `f` over each consecutive window of `size` samples. A run shorter than
/// one window is one window; a last partial window is left out.
/// Percentiles are taken *inside* a window, over consecutive operations;
/// [`quiet`] then picks among the windows.
pub fn windows<T>(samples: &[T], size: usize, f: impl Fn(&[T]) -> f64) -> Vec<f64> {
    let size = size.min(samples.len()).max(1);
    samples.chunks_exact(size).map(f).collect()
}

/// Runs `f` and returns its result with the wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Operations attempted and failed, counting output checks as operations.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failed one is named on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }
}

/// Named values in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_quiet_window_ignores_a_spell() {
        // All of the run but one window inside slow spells.
        let mut ms = vec![9.0; 40];
        ms[28..32].fill(1.0);
        let worst = |w: &[f64]| quantile(w, 1.0);
        assert_eq!(quiet(&windows(&ms, 4, worst)), 1.0);
        assert_eq!(quiet(&windows(&ms, usize::MAX, worst)), 9.0);
        let per_s = |w: &[f64]| w.len() as f64 / w.iter().sum::<f64>();
        assert_eq!(quiet_rate(&windows(&ms, 4, per_s)), 1.0);
        assert_eq!(windows(&ms[..3], 8, |w| w.len() as f64), [3.0]);
        assert!(windows(&[] as &[f64], 8, worst).is_empty());
        assert_eq!((quiet(&[]), quiet_rate(&[])), (0.0, 0.0));
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert!((0..1000).all(|_| a.below(10) < 10 && (0.0..1.0).contains(&a.unit())));
    }
}
