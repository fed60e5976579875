//! The observability layer's determinism contract, end to end: telemetry
//! must never change campaign results, and the non-timing event stream
//! must be bit-identical at any thread count. Also exercises the JSONL
//! file sink round trip and the per-round replay table against a real
//! campaign.

use std::sync::Arc;

use hfl::baselines::DifuzzRtlFuzzer;
use hfl::campaign::{run_campaign, CampaignConfig, CampaignResult, CampaignSpec};
use hfl::fuzzer::{HflConfig, HflFuzzer};
use hfl::obs::{read_jsonl, replay_rounds, Event, JsonlSink, RingSink, SinkHandle};
use hfl_dut::CoreKind;

fn config() -> CampaignConfig {
    CampaignConfig::quick(40).with_batch(4)
}

fn run_with_ring(threads: usize) -> (CampaignResult, Vec<Event>) {
    let ring = Arc::new(RingSink::new(100_000));
    let mut fuzzer = DifuzzRtlFuzzer::new(7, 12);
    let spec = CampaignSpec::builder(CoreKind::Rocket, config())
        .threads(threads)
        .sink(SinkHandle::new(ring.clone()))
        .build()
        .expect("valid spec");
    let result = run_campaign(&mut fuzzer, &spec).expect("campaign runs");
    (result, ring.events())
}

/// The event stream minus wall-clock events — the part under the
/// determinism contract.
fn non_timing(events: &[Event]) -> Vec<Event> {
    events.iter().filter(|e| !e.is_timing()).cloned().collect()
}

#[test]
fn event_stream_is_bit_identical_at_any_thread_count() {
    let (r1, e1) = run_with_ring(1);
    let (r2, e2) = run_with_ring(2);
    let (r8, e8) = run_with_ring(8);

    for (result, label) in [(&r2, "2"), (&r8, "8")] {
        assert_eq!(r1.curve, result.curve, "curve changed at {label} threads");
        assert_eq!(r1.signatures, result.signatures);
        assert_eq!(r1.first_detection, result.first_detection);
        assert_eq!(r1.instructions_executed, result.instructions_executed);
    }
    let n1 = non_timing(&e1);
    assert_eq!(n1, non_timing(&e2), "event stream changed at 2 threads");
    assert_eq!(n1, non_timing(&e8), "event stream changed at 8 threads");
    // Timing events exist but are excluded from the comparison — exactly
    // one PoolOccupancy per round, at every thread count.
    let rounds = e1
        .iter()
        .filter(|e| matches!(e, Event::RoundEnd { .. }))
        .count();
    for events in [&e1, &e2, &e8] {
        let timing = events.iter().filter(|e| e.is_timing()).count();
        assert_eq!(timing, rounds);
    }
}

#[test]
fn telemetry_does_not_change_results() {
    // A silent (default NullSink) campaign and a fully-instrumented one
    // must agree on everything the determinism contract covers — for the
    // learning fuzzer too, whose PredictorEval path must observe without
    // perturbing the models.
    let run = |sink: Option<SinkHandle>| {
        let mut cfg = HflConfig::small().with_seed(3);
        cfg.generator.hidden = 16;
        cfg.predictor.hidden = 16;
        cfg.test_len = 6;
        let mut hfl = HflFuzzer::new(cfg);
        let mut builder = CampaignSpec::builder(CoreKind::Rocket, config());
        if let Some(sink) = sink {
            builder = builder.sink(sink);
        }
        let spec = builder.build().expect("valid spec");
        run_campaign(&mut hfl, &spec).expect("campaign runs")
    };
    let silent = run(None);
    let ring = Arc::new(RingSink::new(100_000));
    let observed = run(Some(SinkHandle::new(ring.clone())));

    assert_eq!(silent.curve, observed.curve);
    assert_eq!(silent.signatures, observed.signatures);
    assert_eq!(silent.first_detection, observed.first_detection);
    assert_eq!(silent.instructions_executed, observed.instructions_executed);
    // The observed run actually produced learner telemetry.
    let events = ring.events();
    assert!(events.iter().any(|e| matches!(e, Event::PpoUpdate { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::PredictorEval { .. })));
}

#[test]
fn jsonl_log_replays_the_coverage_curve() {
    let path = std::env::temp_dir().join(format!("hfl-obs-test-{}.jsonl", std::process::id()));
    let sink = SinkHandle::new(Arc::new(JsonlSink::create(&path).expect("create log")));
    let mut fuzzer = DifuzzRtlFuzzer::new(11, 12);
    let spec = CampaignSpec::builder(CoreKind::Rocket, config())
        .threads(2)
        .sink(sink)
        .build()
        .expect("valid spec");
    let result = run_campaign(&mut fuzzer, &spec).expect("campaign runs");

    let events = read_jsonl(&path).expect("log parses");
    std::fs::remove_file(&path).ok();
    assert!(!events.is_empty());

    // Per-case events cover the whole campaign in order.
    let cases: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::CaseExecuted { case, .. } => Some(*case),
            _ => None,
        })
        .collect();
    assert_eq!(cases, (1..=40).collect::<Vec<u64>>());

    // The replayed table reconstructs the campaign's own curve at every
    // sample boundary (sample_every = 1 for quick(40), so every curve
    // sample lands on a case; rounds end every `batch` cases).
    let rows = replay_rounds(&events);
    assert_eq!(rows.len(), 10, "40 cases / batch 4");
    let end = rows.last().expect("non-empty");
    let (c, l, f) = result.final_counts();
    assert_eq!(
        (end.cases, end.condition, end.line, end.fsm),
        (40, c as u64, l as u64, f as u64)
    );
    assert_eq!(end.unique_signatures, result.unique_signatures as u64);
    assert_eq!(end.retired, result.instructions_executed);
    for row in &rows {
        let sample = result
            .curve
            .iter()
            .find(|s| s.cases == row.cases)
            .expect("round boundary is a curve sample");
        assert_eq!(
            (row.condition, row.line, row.fsm),
            (
                sample.condition as u64,
                sample.line as u64,
                sample.fsm as u64
            ),
            "replay diverged at {} cases",
            row.cases
        );
    }

    // Metrics snapshot rode along on the result.
    for phase in [
        "phase.generate.seconds",
        "phase.execute.seconds",
        "phase.difftest.seconds",
        "phase.train.seconds",
    ] {
        let hist = result
            .metrics
            .histogram(phase)
            .unwrap_or_else(|| panic!("{phase} missing"));
        assert_eq!(hist.count, 10, "{phase}: one observation per round");
        assert!(hist.sum >= 0.0 && hist.sum.is_finite());
    }
    assert_eq!(result.metrics.counter("campaign.cases"), 40);
    assert_eq!(result.metrics.counter("campaign.rounds"), 10);
}

/// The predecode cache surfaces lifetime hit/miss counters on the
/// metrics snapshot. At one thread the worker schedule is fixed, so the
/// split itself is deterministic — and whatever the schedule, the totals
/// must account for exactly one cache lookup per executed case.
#[test]
fn predecode_cache_metrics_ride_on_the_snapshot() {
    let run = || {
        let mut fuzzer = DifuzzRtlFuzzer::new(5, 12);
        let spec = CampaignSpec::builder(CoreKind::Rocket, config())
            .threads(1)
            .build()
            .expect("valid spec");
        let result = run_campaign(&mut fuzzer, &spec).expect("campaign runs");
        (
            result.metrics.counter("sim.predecode.hits"),
            result.metrics.counter("sim.predecode.misses"),
        )
    };
    let (hits, misses) = run();
    assert_eq!(hits + misses, 40, "one cache lookup per executed case");
    assert!(misses >= 1, "first sight of a body must miss");
    assert_eq!((hits, misses), run(), "split is deterministic at 1 thread");
}

/// Guard for interpreter changes: a pinned campaign spec must replay the
/// checked-in golden non-timing JSONL stream byte for byte. The golden
/// file was produced by the original per-step fetch+decode interpreters,
/// so any engine swap (predecode, dispatch, batching) that perturbs a
/// single event — coverage gained, retired counts, mismatch signatures —
/// fails here before it can corrupt a campaign.
///
/// Regenerate deliberately with `HFL_UPDATE_GOLDEN=1 cargo test -p hfl
/// --test observability golden_event_stream`.
#[test]
fn golden_event_stream_replays_byte_for_byte() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/campaign_events.jsonl"
    );
    let ring = Arc::new(RingSink::new(100_000));
    let mut fuzzer = DifuzzRtlFuzzer::new(1311, 10);
    let spec = CampaignSpec::builder(CoreKind::Cva6, CampaignConfig::quick(30).with_batch(6))
        .threads(2)
        .sink(SinkHandle::new(ring.clone()))
        .build()
        .expect("valid spec");
    run_campaign(&mut fuzzer, &spec).expect("campaign runs");
    let got: String = non_timing(&ring.events())
        .iter()
        .map(|e| e.to_json() + "\n")
        .collect();
    if std::env::var("HFL_UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).expect("write golden stream");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden stream exists (see test docs)");
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    assert_eq!(
        got_lines.len(),
        want_lines.len(),
        "event count diverged from the golden stream"
    );
    for (i, (g, w)) in got_lines.iter().zip(&want_lines).enumerate() {
        assert_eq!(g, w, "golden stream diverged at event {i}");
    }
}

/// Guard for learner changes: the campaign golden above is driven by
/// DifuzzRTL, so no learner float reaches it. This one runs HFL (hidden 16,
/// coverage predictor and screening on) long enough that every learner
/// trains many times: each `ppo_update` event carries the generator's
/// `mean_ratio`/`approx_kl` and the critic's `td_loss` as shortest
/// round-trip floats, and every generated body depends on all three
/// models (screening reads the coverage predictor). A single changed bit
/// in any forward, backward or optimiser step diverges the stream. The
/// gates call the platform libm's `expf` and `tanhf`, so a libm whose
/// results differ in the last bit diverges it too.
///
/// Regenerate deliberately with `HFL_UPDATE_GOLDEN=1 cargo test -p hfl
/// --test observability hfl_golden_event_stream`.
#[test]
fn hfl_golden_event_stream_replays_byte_for_byte() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/hfl_events.jsonl"
    );
    let ring = Arc::new(RingSink::new(100_000));
    let mut cfg = HflConfig::small().with_seed(1313);
    cfg.generator.hidden = 16;
    cfg.predictor.hidden = 16;
    let body_cap = cfg.body_cap as u64;
    let mut hfl = HflFuzzer::new(cfg);
    // A step budget under the body cap: once the body outgrows it, every
    // extension runs past the budget and rolls back, so episodes close by
    // the eight-rollback rule.
    let mut config = CampaignConfig::quick(300);
    config.run = config.run.with_max_steps(100);
    let spec = CampaignSpec::builder(CoreKind::Rocket, config)
        .sink(SinkHandle::new(ring.clone()))
        .build()
        .expect("valid spec");
    run_campaign(&mut hfl, &spec).expect("campaign runs");
    let events = non_timing(&ring.events());

    // The stream exercises what it guards: learner updates, predictor
    // evaluations, and an episode closed by eight rollbacks in a row (an
    // episode count that rises while the body is still under the cap).
    let mut last_body = 0;
    let mut episodes = 0;
    let mut rollback_closes = 0;
    for e in &events {
        match e {
            Event::CaseExecuted { body_len, .. } => last_body = *body_len,
            Event::PpoUpdate { episode, .. } => {
                if *episode > episodes && last_body < body_cap {
                    rollback_closes += 1;
                }
                episodes = *episode;
            }
            _ => {}
        }
    }
    let updates = events
        .iter()
        .filter(|e| matches!(e, Event::PpoUpdate { .. }))
        .count();
    assert!(updates >= 50, "only {updates} ppo_update events");
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::PredictorEval { .. })));
    assert!(rollback_closes >= 1, "no episode closed by rollbacks");

    let got: String = events.iter().map(|e| e.to_json() + "\n").collect();
    if std::env::var("HFL_UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).expect("write golden stream");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden stream exists (see test docs)");
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    for (i, (g, w)) in got_lines.iter().zip(&want_lines).enumerate() {
        assert_eq!(g, w, "HFL golden stream diverged at event {i}");
    }
    assert_eq!(
        got_lines.len(),
        want_lines.len(),
        "event count diverged from the HFL golden stream"
    );
}
