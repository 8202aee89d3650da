//! Order statistics over latency samples.

/// Percentile rungs a tail may be reported at, lowest first.
pub const RUNGS: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples (any unit) with nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    xs: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, x: f64) {
        self.xs.push(x);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.xs.extend_from_slice(&other.xs);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.xs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    pub fn mean(&self) -> f64 {
        self.xs.iter().sum::<f64>() / self.xs.len().max(1) as f64
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.xs.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p` in `(0, 100]`; NaN when empty.
    pub fn pct(&mut self, p: f64) -> f64 {
        if self.xs.is_empty() {
            return f64::NAN;
        }
        self.sort();
        self.xs[rank(self.xs.len(), p) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.pct(50.0)
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (99.9% of 10 000) from rounding
    // up past their integer value.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize)
        .max(1)
        .min(n)
}

/// The highest rung of [`RUNGS`] with at least ten samples beyond it
/// among `n` samples; the median when even that has fewer.
pub fn tail_rung(n: usize) -> f64 {
    RUNGS
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= rank(n, p) + 10)
        .unwrap_or(50.0)
}

/// The highest rung of [`RUNGS`] up to `declared` that has at least ten
/// of `n` samples beyond it.
pub fn rung_for(n: usize, declared: f64) -> f64 {
    declared.min(tail_rung(n))
}

/// Rate, median and tail of one operation over a window.
#[derive(Clone, Copy, Debug)]
pub struct OpStats {
    pub per_s: f64,
    pub p50: f64,
    pub tail: f64,
}

impl OpStats {
    /// Whole-window statistics, for operations too slow to fill a second.
    pub fn whole(s: &mut Samples, per_s: f64, declared: f64) -> OpStats {
        let p = rung_for(s.len(), declared);
        OpStats {
            per_s,
            p50: s.median(),
            tail: s.pct(p),
        }
    }
}

/// Samples stamped with the second of the window they completed in.
#[derive(Clone, Debug, Default)]
pub struct Timed {
    seconds: Vec<Samples>,
}

impl Timed {
    pub fn push(&mut self, at_s: f64, x: f64) {
        let i = at_s as usize;
        if self.seconds.len() <= i {
            self.seconds.resize_with(i + 1, Samples::new);
        }
        self.seconds[i].push(x);
    }

    pub fn extend(&mut self, other: &Timed) {
        if self.seconds.len() < other.seconds.len() {
            self.seconds.resize_with(other.seconds.len(), Samples::new);
        }
        for (a, b) in self.seconds.iter_mut().zip(&other.seconds) {
            a.extend(b);
        }
    }

    pub fn len(&self) -> usize {
        self.seconds.iter().map(Samples::len).sum()
    }

    /// Every sample, unstamped.
    pub fn all(&self) -> Samples {
        let mut out = Samples::new();
        for s in &self.seconds {
            out.extend(s);
        }
        out
    }

    /// Rate, median and tail (at `declared`, or the highest rung its
    /// samples support) of each whole second of a `secs`-long window.
    pub fn seconds(&self, secs: f64, declared: f64) -> Vec<OpStats> {
        let whole = (secs as usize).min(self.seconds.len());
        self.seconds[..whole]
            .iter()
            .map(|s| {
                let mut s = s.clone();
                let p = rung_for(s.len(), declared);
                OpStats {
                    per_s: s.len() as f64,
                    p50: s.median(),
                    tail: s.pct(p),
                }
            })
            .collect()
    }

    /// Per-second rate, median and tail, each the calm quartile over the
    /// window's whole seconds (see [`OpStats::calm_of`]). A window
    /// shorter than a second falls back to whole-window statistics.
    pub fn per_second(&self, secs: f64, declared: f64) -> OpStats {
        let each = self.seconds(secs, declared);
        if each.is_empty() {
            return OpStats::whole(&mut self.all(), self.len() as f64 / secs, declared);
        }
        OpStats::calm_of(&each)
    }
}

impl OpStats {
    /// Field-wise calm quartile of several windows' statistics: the upper
    /// quartile of the rates, the lower quartile of the latencies.
    ///
    /// Other tenants of a shared machine only ever slow a window down,
    /// and on a small VM they do so for tens of seconds at a time, by up
    /// to half: a memory-bound loop there runs at one of two speeds, and
    /// the slow one can hold for most of a run. The median of a run's
    /// windows then follows whichever speed held longer; the calm quartile
    /// needs only a quarter of the windows at the fast speed. A change in
    /// the program moves every window, the calm ones too.
    pub fn calm_of(each: &[OpStats]) -> OpStats {
        let field = |f: fn(&OpStats) -> f64, p: f64| {
            let mut s = Samples::new();
            for o in each {
                s.push(f(o));
            }
            s.pct(p)
        };
        OpStats {
            per_s: field(|o| o.per_s, 75.0),
            p50: field(|o| o.p50, 25.0),
            tail: field(|o| o.tail, 25.0),
        }
    }
}

/// Median of a few values (set-up repetitions and the like).
pub fn median(xs: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &x in xs {
        s.push(x);
    }
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut s = Samples::new();
        for x in (1..=100).rev() {
            s.push(f64::from(x));
        }
        assert_eq!(s.pct(50.0), 50.0);
        assert_eq!(s.pct(99.0), 99.0);
        assert_eq!(s.pct(100.0), 100.0);
        assert_eq!(s.pct(0.1), 1.0);
        assert!(Samples::new().median().is_nan());
    }

    #[test]
    fn per_second_takes_calm_quartiles_over_whole_seconds() {
        let mut t = Timed::default();
        // Two calm seconds and two busy ones, then a partial second.
        for sec in 0..4 {
            let slow = if sec % 2 == 0 { 10.0 } else { 1.0 };
            for i in 0..100 {
                t.push(
                    sec as f64 + i as f64 / 100.0,
                    slow * (1.0 + i as f64 / 100.0),
                );
            }
        }
        t.push(4.5, 1000.0);
        assert_eq!(t.len(), 401);
        let s = t.per_second(4.6, 99.0);
        assert_eq!(s.per_s, 100.0);
        // Nearest rank 50 of 100 is the 50th sample, i = 49.
        assert_eq!(s.p50, 1.0 + 49.0 / 100.0);
        // 100 samples per second support p90, not p99.
        assert_eq!(s.tail, 1.0 + 89.0 / 100.0);
        assert_eq!(t.all().len(), 401);
    }

    #[test]
    fn tail_rung_keeps_ten_samples_beyond() {
        // p99.9 needs 10 000 samples (rank 9 990, ten beyond).
        assert_eq!(tail_rung(10_000), 99.9);
        assert_eq!(tail_rung(9_999), 99.0);
        // p99 needs 1 000.
        assert_eq!(tail_rung(1_000), 99.0);
        assert_eq!(tail_rung(999), 95.0);
        assert_eq!(tail_rung(200), 95.0);
        assert_eq!(tail_rung(199), 90.0);
        assert_eq!(tail_rung(100), 90.0);
        assert_eq!(tail_rung(99), 75.0);
        assert_eq!(tail_rung(40), 75.0);
        assert_eq!(tail_rung(39), 50.0);
        // Below twenty samples nothing qualifies; report the median.
        assert_eq!(tail_rung(20), 50.0);
        assert_eq!(tail_rung(3), 50.0);
        assert_eq!(tail_rung(0), 50.0);
        for n in 20..20_000 {
            let p = tail_rung(n);
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
        }
    }
}
