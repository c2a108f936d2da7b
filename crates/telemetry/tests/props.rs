#![allow(clippy::unwrap_used)] // test/bench code: panics are failures, not bugs

//! Property tests: NDJSON round-trips for randomized field values (every
//! event kind, including values the codec cannot carry exactly), and
//! counter-registry monotonicity over arbitrary event sequences.

use mlpsim_telemetry::{exact_share, Event, EventSink, Json, NdjsonSink, Registry, StallLedger};
use proptest::prelude::*;

/// Builds one event of each shape class from randomized scalars: unsigned,
/// signed, boolean, float, and string fields all get exercised.
fn sample_events(
    cycle: u64,
    line: u64,
    live: u64,
    delta: i64,
    cost: f64,
    flag: bool,
    name: String,
) -> Vec<Event> {
    vec![
        Event::MshrAlloc {
            cycle,
            line,
            demand: flag,
            live,
            demand_live: live / 2,
            slot: live % 32,
        },
        Event::MshrRelease {
            cycle,
            line,
            demand: flag,
            live,
            cost,
            slot: live % 32,
        },
        Event::Stall { cycle, len: live },
        Event::StallSpan {
            begin: cycle,
            end: cycle + live,
            line,
            set: line % 1024,
            cost_q: (live % 8) as u8,
            policy: name.clone(),
            n_begin: live % 32 + 1,
        },
        Event::StallAttrib {
            cycle,
            line,
            set: line % 1024,
            cost_q: (live % 8) as u8,
            policy: name.clone(),
            cycles: live,
        },
        Event::Serviced {
            line,
            cycle,
            cost,
            cost_q: (live % 8) as u8,
        },
        Event::PselUpdate {
            unit: name.clone(),
            index: line % 1024,
            delta,
            value: live,
            msb: flag,
            saturated: !flag,
            seq: cycle,
        },
        Event::RunStart {
            label: name.clone(),
            policy: name,
            cycle,
        },
        Event::Sample {
            instructions: cycle,
            cycle,
            ipc: cost,
            mpki: cost / 2.0,
            avg_cost_q: cost / 3.0,
        },
    ]
}

/// Characters covering every branch of the string encoder: plain ASCII,
/// the two-character escapes, other control characters (`\u00XX`), DEL,
/// and multi-byte UTF-8.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '-', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}',
    '\u{7f}', 'é', 'λ', '漢', '🚀',
];

fn text(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| ALPHABET[i % ALPHABET.len()])
        .collect()
}

/// `x`, or one of the values a float field may hold that plain ranges
/// never produce.
fn float_of(special: usize, x: f64) -> f64 {
    match special {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => x * 1e290,
        5 => x * 1e-300,
        _ => x,
    }
}

/// One event of kind `Event::kinds()[kind]`, its fields drawn from the
/// given scalars, so a strategy over `kind` reaches every variant.
fn event_of(kind: usize, a: u64, b: u64, d: i64, x: f64, flag: bool, s: String) -> Event {
    let q = (a % 256) as u8;
    match kind {
        0 => Event::RunStart {
            label: s.clone(),
            policy: s,
            cycle: a,
        },
        1 => Event::RunEnd {
            label: s.clone(),
            policy: s,
            cycle: a,
            instructions: b,
            l2_misses: a / 3,
            peak_mlp: b % 33,
            mem_stall_cycles: b / 7,
        },
        2 => Event::MshrAlloc {
            cycle: a,
            line: b,
            demand: flag,
            live: a % 33,
            demand_live: b % 33,
            slot: a % 32,
        },
        3 => Event::MshrMerge {
            cycle: a,
            line: b,
            promoted: flag,
            live: b % 33,
        },
        4 => Event::MshrRelease {
            cycle: a,
            line: b,
            demand: flag,
            live: a % 33,
            cost: x,
            slot: b % 32,
        },
        5 => Event::CacheHit {
            level: q,
            set: a % 4096,
            line: b,
            seq: a,
        },
        6 => Event::CacheMiss {
            level: q,
            set: b % 4096,
            line: a,
            seq: b,
        },
        7 => Event::CacheVictim {
            level: q,
            set: a % 4096,
            way: b % 16,
            rank: a % 16,
            cost_q: q,
            line: b,
            dirty: flag,
            seq: a,
        },
        8 => Event::Serviced {
            line: a,
            cycle: b,
            cost: x,
            cost_q: q,
        },
        9 => Event::Stall { cycle: a, len: b },
        10 => Event::StallSpan {
            begin: a,
            end: b,
            line: a,
            set: b % 4096,
            cost_q: q,
            policy: s,
            n_begin: a % 33,
        },
        11 => Event::StallAttrib {
            cycle: a,
            line: b,
            set: a % 4096,
            cost_q: q,
            policy: s,
            cycles: b,
        },
        12 => Event::Sample {
            instructions: a,
            cycle: b,
            ipc: x,
            mpki: -x,
            avg_cost_q: x / 3.0,
        },
        13 => Event::PselUpdate {
            unit: s,
            index: a % 4096,
            delta: d,
            value: b,
            msb: flag,
            saturated: !flag,
            seq: a,
        },
        14 => Event::PselFlip {
            unit: s,
            index: b % 4096,
            msb: flag,
            value: a,
            seq: b,
        },
        15 => Event::LeaderDivergence {
            unit: s.clone(),
            side: s,
            line: a,
            cost_q: q,
            seq: b,
        },
        16 => Event::Snapshot {
            events: a,
            counts: vec![(s, b), ("cache_miss".into(), a)],
        },
        17 => Event::TraceGen {
            bench: s,
            accesses: a,
            seed: b,
        },
        18 => Event::TraceSummary {
            bench: s,
            accesses: a,
            unique_lines: b,
        },
        19 => Event::PlanCell {
            bench: s.clone(),
            policy: "lin(4)".into(),
            est_miss_rate: x,
            band: x / 7.0,
            delta: -x,
            pruned: flag,
            reason: s,
        },
        _ => Event::PlanSummary {
            cells: a,
            pruned: b,
            simulated: a / 2,
            margin: x,
        },
    }
}

#[test]
fn event_of_reaches_every_kind() {
    for (i, kind) in Event::kinds().iter().enumerate() {
        assert_eq!(event_of(i, 1, 2, -3, 0.5, true, "x".into()).kind(), *kind);
    }
}

proptest! {
    // ~100 cases per event kind.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn every_line_re_encodes_unchanged_through_the_parser(
        ints in (0usize..21, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u32..64),
        rest in (i64::MIN..i64::MAX, 0usize..10, -1e12f64..1e12, prop::bool::ANY),
        picks in prop::collection::vec(0usize..64, 0..16),
    ) {
        let ((kind, a, b, shift), (d, special, x, flag)) = (ints, rest);
        // Any value, exact or not: integers past 2^53, NaN and infinities
        // (which encode as null), escapes and non-ASCII text.
        let ev = event_of(kind, a >> shift, b, d >> shift, float_of(special, x), flag, text(&picks));
        let line = ev.to_ndjson_line();
        let doc = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        prop_assert_eq!(doc.to_string_compact(), line);
    }

    #[test]
    fn every_kind_round_trips_through_from_json(
        ints in (0usize..21, 0u64..=(1u64 << 53), 0u64..=(1u64 << 53), 0u32..54),
        rest in (-(1i64 << 53)..(1i64 << 53), 3usize..10, -1e12f64..1e12, prop::bool::ANY),
        picks in prop::collection::vec(0usize..64, 0..16),
    ) {
        let ((kind, a, b, shift), (d, special, x, flag)) = (ints, rest);
        // Values the codec carries exactly: integers within f64's 53-bit
        // mantissa and finite floats.
        let ev = event_of(kind, a >> shift, b, d >> shift, float_of(special, x), flag, text(&picks));
        let line = ev.to_ndjson_line();
        let doc = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let back = Event::from_json(&doc).unwrap_or_else(|e| panic!("{line}: {e}"));
        prop_assert_eq!(&back, &ev, "round trip changed the event");
    }
}

proptest! {
    #[test]
    fn ndjson_round_trip_preserves_every_field(
        // Numbers ride in JSON as f64, exact up to 2^53 (see json.rs);
        // cycles and line addresses in this simulator stay far below that.
        cycle in 0u64..(1u64 << 53),
        line in 0u64..(1u64 << 53),
        live in 0u64..1024,
        delta in -7i64..8,
        // Costs are cycle counts: finite, non-negative, representable.
        cost in 0.0f64..1e9,
        flag in prop::bool::ANY,
        name in "[a-z0-9-]{1,12}",
    ) {
        for ev in sample_events(cycle, line, live, delta, cost, flag, name) {
            let line_text = ev.to_ndjson_line();
            let back = Event::parse_line(&line_text)
                .unwrap_or_else(|e| panic!("{line_text}: {e}"));
            prop_assert_eq!(&back, &ev, "round trip changed the event");
        }
    }

    #[test]
    fn registry_counters_grow_monotonically(
        cycles in prop::collection::vec(0u64..1_000_000, 1..60),
    ) {
        let mut reg = Registry::new();
        let mut last_seen = 0u64;
        let mut last_total = 0u64;
        for (i, &c) in cycles.iter().enumerate() {
            // Alternate kinds so several counters are in play.
            let ev = if i % 3 == 0 {
                Event::Stall { cycle: c, len: 200 }
            } else if i % 3 == 1 {
                Event::MshrAlloc { cycle: c, line: c, demand: true, live: 1, demand_live: 1, slot: 0 }
            } else {
                Event::MshrRelease { cycle: c, line: c, demand: true, live: 0, cost: 4.0, slot: 0 }
            };
            reg.observe(&ev);
            prop_assert!(reg.events_seen() > last_seen, "events_seen must strictly grow");
            last_seen = reg.events_seen();
            let total: u64 = reg.counters().map(|(_, v)| v).sum();
            prop_assert!(total >= last_total, "per-kind counters must never decrease");
            last_total = total;
        }
        prop_assert_eq!(reg.events_seen(), cycles.len() as u64);
    }

    #[test]
    fn ndjson_sink_output_is_parseable_with_any_snapshot_interval(
        n_events in 1usize..40,
        every in 1u64..10,
    ) {
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut sink = NdjsonSink::new(&mut buf).with_snapshot_every(every);
            for i in 0..n_events {
                sink.record(Event::Stall { cycle: i as u64, len: 150 + i as u64 });
            }
        }
        let text = String::from_utf8(buf).expect("NDJSON is UTF-8");
        let mut stalls = 0u64;
        let mut final_snapshot_total = None;
        for line in text.lines() {
            let ev = Event::parse_line(line).expect("every line parses");
            match ev {
                Event::Stall { .. } => stalls += 1,
                Event::Snapshot { events, .. } => final_snapshot_total = Some(events),
            _ => {}
            }
        }
        prop_assert_eq!(stalls as usize, n_events);
        // The drop-time snapshot always reports the exact event total.
        prop_assert_eq!(final_snapshot_total, Some(n_events as u64));
    }

    #[test]
    fn exact_share_partitions_any_delta(
        delta in 0u64..5_000_000,
        n in 1u64..64,
    ) {
        // The 1/N apportionment is integer-exact: shares sum to delta,
        // and no share deviates from delta/n by more than one cycle.
        let shares: Vec<u64> = (0..n).map(|i| exact_share(delta, n, i)).collect();
        prop_assert_eq!(shares.iter().sum::<u64>(), delta);
        for &s in &shares {
            prop_assert!(s == delta / n || s == delta / n + 1);
        }
    }

    #[test]
    fn ledger_fold_conserves_attributed_cycles(
        charges in prop::collection::vec((0u64..64, 0u8..8, 0u64..500), 0..50),
    ) {
        let events: Vec<Event> = charges
            .iter()
            .map(|&(set, cost_q, cycles)| Event::StallAttrib {
                cycle: 0,
                line: set * 64,
                set,
                cost_q,
                policy: if cost_q % 2 == 0 { "lin".into() } else { "lru".into() },
                cycles,
            })
            .collect();
        let ledger = StallLedger::from_events(&events);
        prop_assert_eq!(ledger.total(), charges.iter().map(|c| c.2).sum::<u64>());
        // Roll-ups conserve the same total.
        prop_assert_eq!(ledger.cost_q_totals().iter().sum::<u64>(), ledger.total());
        prop_assert_eq!(
            ledger.policy_totals().iter().map(|(_, v)| v).sum::<u64>(),
            ledger.total()
        );
    }
}
