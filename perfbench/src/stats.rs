//! Medians, tail percentiles and failure counting.

/// Percentiles a tail may be reported at, in tenths of a percent,
/// highest first (integers, so ranks come out exact).
pub const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie strictly beyond a percentile before it may be
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Smallest of `xs`; `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// The lower envelope of repeated, identical work: `reps[r][j]` is the
/// time piece `j` took in repetition `r`, and the result is the sum over
/// pieces of each piece's fastest time. Interference from other tenants
/// only ever slows a piece down, so each piece's minimum approaches its
/// undisturbed cost; short pieces give many chances to see it. `None`
/// when there are no repetitions or they do not have the same pieces.
pub fn envelope(reps: &[Vec<f64>]) -> Option<f64> {
    let first = reps.first()?;
    if first.is_empty() || reps.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|j| reps.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

/// The lower envelope of work spread over `width` workers. Each
/// repetition is its wall time and the times of its pieces (one worker
/// each); the worker time outside every piece, `wall × width − Σ pieces`
/// (serial stretches, idle workers at the end), is one more piece. The
/// result is the [`envelope`] of those pieces divided by `width`: the wall
/// time itself when every repetition is the same.
pub fn spread_envelope(reps: &[(f64, Vec<f64>)], width: usize) -> Option<f64> {
    let width = width.max(1) as f64;
    let pieces: Vec<Vec<f64>> = reps
        .iter()
        .map(|(wall, p)| {
            let mut p = p.clone();
            p.push(wall * width - p.iter().sum::<f64>());
            p
        })
        .collect();
    Some(envelope(&pieces)? / width)
}

/// `xs` as a space-separated list with four decimals, for notes.
pub fn list(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// A tail latency: the value at `pct`, with the sample count it came
/// from and how many samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. 90.0.
    pub pct: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly after the reported one.
    pub beyond: usize,
}

/// The highest percentile in [`TAIL_PERMILLE`] with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it (nearest-rank method).
/// `None` when even the median has too few samples beyond it: a tail
/// read off fewer samples would be noise.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_PERMILLE.iter().find_map(|&pm| {
        let rank = (pm * n).div_ceil(1000);
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct: pm as f64 / 10.0,
            value: v[rank - 1],
            samples: n,
            beyond,
        })
    })
}

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx with the expected output.
    Ok,
    /// The server answered with a status outside 2xx (refusals included).
    Status(u16),
    /// Connecting, sending or reading failed.
    Transport,
    /// The operation completed but its output differs from the reference.
    Mismatch,
}

/// Operations attempted and failed, by kind of failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailTally {
    /// Every operation counted, failed or not.
    pub attempted: u64,
    /// Non-2xx answers.
    pub status: u64,
    /// Transport errors.
    pub transport: u64,
    /// Output-check mismatches.
    pub mismatch: u64,
}

impl FailTally {
    /// Count one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Status(_) => self.status += 1,
            Outcome::Transport => self.transport += 1,
            Outcome::Mismatch => self.mismatch += 1,
        }
    }

    /// Turn an operation already counted as `Ok` into a mismatch (the
    /// output check runs after the timed section).
    pub fn demote_to_mismatch(&mut self) {
        self.mismatch += 1;
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &FailTally) {
        self.attempted += other.attempted;
        self.status += other.status;
        self.transport += other.transport;
        self.mismatch += other.mismatch;
    }

    /// Failed operations of every kind.
    pub fn failed(&self) -> u64 {
        self.status + self.transport + self.mismatch
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
