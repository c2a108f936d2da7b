//! Tail-percentile selection: the highest percentile with at least ten
//! samples ranked beyond it, and refusal when there are too few.

use perfbench::stats::{tail, TAIL_MIN_BEYOND};

fn samples(n: usize) -> Vec<f64> {
    // Shuffled on purpose: selection must sort.
    (0..n).map(|i| ((i * 7919) % n) as f64).collect()
}

#[test]
fn picks_the_highest_percentile_with_ten_samples_beyond() {
    for (n, pct) in [
        (20, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ] {
        let t = tail(&samples(n)).unwrap_or_else(|| panic!("{n} samples must give a tail"));
        assert_eq!(t.pct, pct, "{n} samples");
        assert_eq!(t.samples, n);
        assert!(t.beyond >= TAIL_MIN_BEYOND, "{n} samples: {t:?}");
        // Nearest rank: exactly `beyond` samples are larger.
        let larger = samples(n).iter().filter(|&&x| x > t.value).count();
        assert_eq!(larger, t.beyond, "{n} samples: {t:?}");
    }
}

#[test]
fn refuses_when_even_the_median_has_too_few_beyond() {
    for n in [0, 1, 10, 19] {
        assert!(tail(&samples(n)).is_none(), "{n} samples must be refused");
    }
}
