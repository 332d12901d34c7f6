//! The streamed snapshot is canonical JSON, and the parser survives it
//! mangled.
//!
//! `MetricsSnapshot::to_json` writes straight through `JsonWriter`, so no
//! tree is there to compare against. Instead: over random registries — names
//! that need escaping, counters at the integer limits, all-zero scopes,
//! non-finite series values — parsing the streamed text and printing the
//! tree again gives the same bytes, pretty and compact. Then truncations,
//! byte flips and random bytes go to `JsonValue::parse`, which must never
//! panic and must place every error at an offset inside the input.

use metrics_lite::{MetricsRegistry, MetricsSnapshot, Stage, StageSample, TimeSeries};
use simclock::{SimDuration, SimTime};
use stdshim::JsonValue;
use testkit::Gen;

/// Plain, escaped, control and non-ASCII characters.
const NAME_CHARS: &str = "ab/_-.\"\\\n\t\r\u{1}\u{1f}\u{7f}é€𝄞 ";

fn name(g: &mut Gen) -> String {
    g.string(NAME_CHARS, 0..8)
}

fn series_value(g: &mut Gen) -> f64 {
    *g.pick(&[
        0.0,
        -0.0,
        1.5,
        1e300,
        -2.25e-7,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ])
}

/// A registry of random counters, scopes and series, snapshotted, plus an
/// empty series (a registry only holds series it has sampled).
fn random_snapshot(g: &mut Gen) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    for _ in 0..g.usize_in(0..6) {
        let v = *g.pick(&[0, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX]);
        reg.counter(&name(g)).store(v);
    }
    for _ in 0..g.usize_in(0..6) {
        let set = if g.bool() {
            reg.fn_stage_set(&name(g))
        } else {
            reg.stage_set(&name(g))
        };
        for _ in 0..g.usize_in(1..4) {
            let mut sample = StageSample::new();
            // Sometimes no stage at all: the scope's object is `{}`.
            if g.bool() {
                for &stage in &Stage::ALL {
                    if g.bool() {
                        sample.set(stage, SimDuration::from_nanos(g.u64_in(1..1 << 40)));
                    }
                }
            }
            set.record(&sample);
        }
    }
    for _ in 0..g.usize_in(0..4) {
        let series = name(g);
        let mut at = 0;
        for _ in 0..g.usize_in(1..5) {
            at += g.u64_in(0..90);
            reg.sample_series(&series, SimTime::from_secs(at), series_value(g));
        }
    }
    let mut snap = reg.snapshot();
    if g.bool() {
        snap.series.push((name(g), TimeSeries::new()));
    }
    snap
}

#[test]
fn streamed_snapshots_are_canonical_json() {
    testkit::check(64, |g| {
        let snap = random_snapshot(g);
        let pretty = snap.to_json().to_pretty_string();
        let tree = JsonValue::parse(&pretty).unwrap_or_else(|e| panic!("{e}\n{pretty}"));
        assert_eq!(tree.to_pretty_string(), pretty);
        assert_eq!(snap.to_json().to_string(), tree.to_string());
        for (scope, stages) in &snap.stages {
            if stages.iter().all(|(_, h)| h.count == 0) {
                let object = tree.get("stages").and_then(|s| s.get(scope));
                assert_eq!(object, Some(&JsonValue::Object(Vec::new())), "{scope:?}");
            }
        }
    });
}

fn assert_parse_is_total(input: &str) {
    if let Err(e) = JsonValue::parse(input) {
        assert!(
            e.offset <= input.len(),
            "{e} past the end of a {}-byte input",
            input.len()
        );
    }
}

/// Fixed seed, well under a second in a debug build.
#[test]
fn parse_survives_mangled_snapshots() {
    testkit::check(1, |g| {
        // A few kilobytes: every truncation is quadratic in the length.
        let mut text = String::new();
        while !(1_500..4_000).contains(&text.len()) {
            text = random_snapshot(g).to_json().to_pretty_string();
        }
        // Every truncation, at each character boundary.
        for (at, _) in text.char_indices() {
            assert_parse_is_total(&text[..at]);
        }
        // Byte flips; a flip that breaks UTF-8 becomes U+FFFD.
        for _ in 0..2_000 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..g.usize_in(1..4) {
                let at = g.usize_in(0..bytes.len());
                bytes[at] = g.next_u64() as u8;
            }
            assert_parse_is_total(&String::from_utf8_lossy(&bytes));
        }
        // Random bytes, and random JSON punctuation.
        for _ in 0..2_000 {
            let bytes = g.vec(0..48, |g| g.next_u64() as u8);
            assert_parse_is_total(&String::from_utf8_lossy(&bytes));
            assert_parse_is_total(&g.string("{}[],:\"\\/ubfnrt0123456789.eE+-null ", 0..48));
        }
    });
}
