//! The lower envelope of repeated work: the sum of each piece's fastest
//! time, and refusal when the repetitions do not line up.

use perfbench::stats::{envelope, spread_envelope};

#[test]
fn sums_each_pieces_fastest_time() {
    let reps = vec![
        vec![3.0, 1.0, 5.0],
        vec![2.0, 4.0, 5.0],
        vec![9.0, 1.5, 4.0],
    ];
    assert_eq!(envelope(&reps), Some(2.0 + 1.0 + 4.0));
}

#[test]
fn one_repetition_is_its_own_total() {
    assert_eq!(envelope(&[vec![0.25, 0.5]]), Some(0.75));
}

#[test]
fn never_exceeds_the_fastest_whole_repetition() {
    let reps = vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![1.2, 1.1]];
    let fastest = reps
        .iter()
        .map(|r| r.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    assert!(envelope(&reps).unwrap() <= fastest);
}

#[test]
fn refuses_empty_or_ragged_repetitions() {
    assert_eq!(envelope(&[]), None);
    assert_eq!(envelope(&[vec![]]), None);
    assert_eq!(envelope(&[vec![1.0, 2.0], vec![1.0]]), None);
}

#[test]
fn spread_envelope_of_identical_repetitions_is_their_wall() {
    // Two workers: cells of 3 and 1 s on one, 2 s on the other, 4 s wall.
    let rep = (4.0, vec![3.0, 2.0, 1.0]);
    let got = spread_envelope(&[rep.clone(), rep], 2).unwrap();
    assert!((got - 4.0).abs() < 1e-12);
}

#[test]
fn spread_envelope_keeps_the_fastest_of_cells_and_of_idle_time() {
    // Idle worker time: 2 × 5 − 7 = 3 s, then 2 × 4 − 7.5 = 0.5 s.
    let reps = vec![(5.0, vec![4.0, 3.0]), (4.0, vec![5.0, 2.5])];
    let got = spread_envelope(&reps, 2).unwrap();
    assert!((got - (4.0 + 2.5 + 0.5) / 2.0).abs() < 1e-12);
    assert_eq!(spread_envelope(&[], 2), None);
}
