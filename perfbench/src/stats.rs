//! Sample statistics, failure accounting and the naming rules the
//! benchmark's metrics and workloads obey.

/// Percentiles offered as the tail figure, in tenths of a percent,
/// highest first. A run reports the highest one that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, so a tail figure never rests on
/// a handful of points.
pub const TAIL_LADDER: [u64; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    tail_rank(n).map(|(pm, _)| pm as f64 / 10.0)
}

/// The tail percentile (per mille) and its 1-based nearest rank.
fn tail_rank(n: usize) -> Option<(u64, usize)> {
    TAIL_LADDER.iter().find_map(|&pm| {
        let rank = (pm as usize * n).div_ceil(1000);
        (n > 0 && n - rank >= TAIL_MIN_BEYOND).then_some((pm, rank))
    })
}

/// Quartiles by the method of Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method), so the figures here match the
/// spread computed over BENCHMARK.json runs. Needs two or more samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let im = (i * (n + 1)) as i64;
        let j = (im / 4).clamp(1, n as i64 - 1);
        // As in CPython, the offset is taken after clamping `j`.
        let delta = (im - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Median of a sample; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// One metric's sample summary, as the per-workload table prints it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Samples taken.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First and third quartile (equal to the median for one sample).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// Summarises a non-empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let median = median(samples)?;
    let (q1, _, q3) = quartiles(samples).unwrap_or((median, median, median));
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = tail_rank(sorted.len()).map(|(pm, rank)| (pm as f64 / 10.0, sorted[rank - 1]));
    Some(Summary {
        n: samples.len(),
        median,
        q1,
        q3,
        tail,
    })
}

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with a checked, correct output.
    Ok,
    /// The library returned an error.
    Error,
    /// Completed, but an output check failed.
    WrongOutput,
    /// An exchange ended `Aborted` (settled, plaintext lost).
    Aborted,
    /// An exchange ended refunded; `planned` when the workload withheld
    /// settlement on purpose.
    Refunded {
        /// The workload asked for this refund.
        planned: bool,
    },
}

impl Outcome {
    /// Whether this outcome counts against `fail_ratio`.
    pub fn is_failure(self) -> bool {
        !matches!(self, Outcome::Ok | Outcome::Refunded { planned: true })
    }
}

/// Attempted/failed counters behind `fail_ratio`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (see [`Outcome::is_failure`]).
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation's outcome; `what` names it in the report.
    pub fn record(&mut self, outcome: Outcome, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if outcome.is_failure() {
            self.failed += 1;
            self.failures.push(format!("{outcome:?}: {}", what()));
        }
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A metric or workload name: starts with a letter or digit, at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
