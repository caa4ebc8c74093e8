//! Sample summaries: percentiles over timed samples with their sample count.

/// Samples per window of [`Samples::tail_quantile`]: a window's p99 rests
/// on ten samples.
const TAIL_WINDOW: usize = 1_000;

/// Parts a main loop's samples are cut into for [`Samples::quiet`].
pub const LOOP_PARTS: usize = 10;

/// A set of measured samples (durations in any one unit, or rates).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The `q`-quantile (`0.0..=1.0`), interpolating linearly between the two
    /// closest ranks (the "linear" method of NumPy). NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        quantile_sorted(&v, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The Harrell-Davis estimate of the `q`-quantile: a Beta-weighted mean
    /// of all order statistics. For a tail quantile of a few hundred samples
    /// it varies far less between runs than the one or two samples nearest
    /// the rank. NaN when empty.
    pub fn hd_quantile(&self, q: f64) -> f64 {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len() as f64;
        let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
        let mut prev = 0.0;
        let mut sum = 0.0;
        for (i, x) in v.iter().enumerate() {
            let cdf = beta_cdf(a, b, (i + 1) as f64 / n);
            sum += (cdf - prev) * x;
            prev = cdf;
        }
        if v.is_empty() {
            f64::NAN
        } else {
            sum
        }
    }

    /// A tail percentile: the median, over consecutive windows of
    /// `TAIL_WINDOW` samples in arrival order, of each window's
    /// `q`-quantile, which one burst of stalls cannot dominate. With fewer
    /// than two full windows, the Harrell-Davis estimate over all samples.
    pub fn tail_quantile(&self, q: f64) -> f64 {
        self.windowed_quantile(q, TAIL_WINDOW)
    }

    fn windowed_quantile(&self, q: f64, window: usize) -> f64 {
        if self.values.len() < 2 * window {
            return self.hd_quantile(q);
        }
        let mut per_window = Samples::new();
        for w in self.values.chunks_exact(window) {
            let mut v = w.to_vec();
            v.sort_by(f64::total_cmp);
            per_window.push(quantile_sorted(&v, q));
        }
        per_window.median()
    }

    /// The `q`-quantile of the least disturbed stretch of a run: the
    /// lower decile, over `parts` consecutive parts of the samples in
    /// arrival order, of each part's `q`-quantile (Harrell-Davis for parts
    /// of fewer than `TAIL_WINDOW` samples). On a shared host, neighbours
    /// slow whole stretches of seconds by a quarter or more, and a plain
    /// quantile moves with the share of the run they cover; a change in the
    /// program's own cost moves every part alike.
    pub fn quiet(&self, q: f64, parts: usize) -> f64 {
        quietest(&self.values, parts, |part| {
            let s = Samples {
                values: part.to_vec(),
            };
            if part.len() < TAIL_WINDOW {
                s.hd_quantile(q)
            } else {
                s.quantile(q)
            }
        })
    }
}

/// The lower decile, over `parts` consecutive parts of near-equal size of
/// `v`, of `figure` of each part. NaN when `v` is empty.
pub fn quietest<T>(v: &[T], parts: usize, figure: impl Fn(&[T]) -> f64) -> f64 {
    let parts = parts.clamp(1, v.len().max(1));
    let mut per_part = Samples::new();
    for i in 0..parts {
        let part = &v[i * v.len() / parts..(i + 1) * v.len() / parts];
        if !part.is_empty() {
            per_part.push(figure(part));
        }
    }
    per_part.quantile(0.1)
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection keeps the series in its accurate range.
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series: f64 = C[0] + (1..9).map(|i| C[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`: the CDF of a
/// Beta(a, b) variable at `x`.
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of `I_x(a, b)` (modified Lentz), which converges
/// quickly for `x < (a + 1) / (a + b + 2)`.
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..=500 {
        let m = m as f64;
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Linear-interpolated quantile of an ascending slice; NaN when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(vals: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in vals {
            s.push(v);
        }
        s
    }

    #[test]
    fn quantiles_on_known_inputs() {
        // 1..=100 in shuffled order.
        let vals: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let s = of(&vals);
        assert_eq!(s.len(), 100);
        assert_eq!(s.median(), 50.5);
        assert!((s.quantile(0.99) - 99.01).abs() < 1e-9);
        assert!((s.quantile(0.95) - 95.05).abs() < 1e-9);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
    }

    #[test]
    fn windowed_quantile_resists_one_burst() {
        // Three windows of 1..=100; a burst of huge values fills the tail of
        // the second one only.
        let mut vals: Vec<f64> = Vec::new();
        for w in 0..3 {
            for i in 1..=100 {
                vals.push(if w == 1 && i > 90 { 1e6 } else { i as f64 });
            }
        }
        let s = of(&vals);
        assert!((s.windowed_quantile(0.99, 100) - 99.01).abs() < 1e-9);
        assert!(s.quantile(0.99) > 1e5);
        // Fewer than two full windows: the Harrell-Davis estimate.
        let few = of(&vals[..150]);
        assert_eq!(few.windowed_quantile(0.99, 100), few.hd_quantile(0.99));
    }

    #[test]
    fn quiet_ignores_disturbed_stretches() {
        // Twenty parts of 1..=9; a neighbour adds 50 to every sample of the
        // first twelve.
        let mut vals: Vec<f64> = Vec::new();
        for part in 0..20 {
            for i in 1..=9 {
                vals.push(i as f64 + if part < 12 { 50.0 } else { 0.0 });
            }
        }
        let s = of(&vals);
        assert!((s.quiet(0.5, 20) - 5.0).abs() < 1e-9);
        assert!(s.median() > 50.0);
        // A uniformly slower program moves every part, so the figure too.
        let slower = of(&vals.iter().map(|v| v * 2.0).collect::<Vec<_>>());
        assert!((slower.quiet(0.5, 20) - 10.0).abs() < 1e-9);
        // One sample per part: the lower decile of the samples.
        let reps = of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((reps.quiet(0.5, 5) - 1.4).abs() < 1e-9);
        // More parts than samples, and no samples.
        assert!((of(&[3.0]).quiet(0.5, 10) - 3.0).abs() < 1e-9);
        assert!(Samples::new().quiet(0.5, 10).is_nan());
        // Unequal parts (2, 2 and 3 samples) cover every sample once.
        let s = of(&[1.0, 1.0, 5.0, 5.0, 9.0, 9.0, 9.0]);
        assert!((s.quiet(0.5, 3) - 1.8).abs() < 1e-9);
    }

    #[test]
    fn harrell_davis_on_known_inputs() {
        // Symmetric samples: the median estimate is the centre.
        assert!((of(&[1.0, 2.0, 3.0, 4.0, 5.0]).hd_quantile(0.5) - 3.0).abs() < 1e-9);
        // Constant samples: every quantile is the constant (weights sum to 1).
        assert!((of(&[7.0; 40]).hd_quantile(0.99) - 7.0).abs() < 1e-9);
        // Uniform 1..=200: p99 near rank 0.99 * 201 = 199, between the two
        // largest samples and below the maximum.
        let s = of(&(1..=200).map(f64::from).collect::<Vec<_>>());
        let p99 = s.hd_quantile(0.99);
        assert!((198.0..200.0).contains(&p99), "{p99}");
        assert!(s.hd_quantile(0.5) < s.hd_quantile(0.9) && s.hd_quantile(0.9) < p99);
        // The incomplete beta function at known points.
        assert!((beta_cdf(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!(Samples::new().hd_quantile(0.5).is_nan());
    }

    #[test]
    fn small_and_empty_sets() {
        assert!(Samples::new().median().is_nan());
        assert_eq!(of(&[7.0]).quantile(0.99), 7.0);
        assert_eq!(of(&[1.0, 3.0]).median(), 2.0);
        assert_eq!(of(&[4.0, 1.0, 3.0]).median(), 3.0);
    }
}
