//! The pass-through fuzzer adapter and the recording event sink: the
//! benchmark's view of the round engine, taken only at public calls.

use std::io::{Read, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hfl::baselines::{ComposeError, Feedback, Fuzzer, TestBody};
use hfl::fuzzer::{HflConfig, HflStats};
use hfl::obs::{Event, EventSink, SinkHandle};
use hfl_nn::persist::PersistError;

use crate::learners::Shadow;
use crate::reference::{slowdown, Reference};
use crate::replay::Replayer;

/// A workload's fuzzer, with what the learner accounting needs to know
/// about it.
pub trait Subject: Fuzzer {
    /// HFL's configuration and counters; `None` for fuzzers without
    /// learners.
    fn hfl(&self) -> Option<(HflConfig, HflStats)> {
        None
    }
}

/// Which of the fuzzer's two round-boundary calls a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `try_next_round`: generation (and screening) of one round.
    Generator,
    /// `feedback`: the learner's update for one case.
    Learner,
}

/// One timed call into the wrapped fuzzer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One round as the adapter saw it start.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub start: Instant,
    /// Cases the round produced.
    pub cases: usize,
    /// Timed seconds of the round's reference slice.
    pub slice: f64,
    /// Seconds of the whole slice, warming pass included.
    pub slice_total: f64,
}

/// What a traced adapter records and runs besides the wrapped calls.
pub struct Trace {
    pub spans: Vec<Span>,
    pub bodies: Vec<TestBody>,
    /// Bodies `..replayed` have been replayed.
    replayed: usize,
    pub replayer: Replayer,
    /// HFL's learners, repeated after each `feedback`.
    pub shadow: Option<Shadow>,
    /// The adapter's own time between the wrapped calls: body copies, the
    /// replay and the shadow learners. It is charged to no layer.
    pub own_time: Duration,
    /// When the adapter last returned to the campaign.
    loop_end: Option<Instant>,
}

impl Trace {
    pub fn new(replayer: Replayer, shadow: Option<Shadow>) -> Trace {
        Trace {
            spans: Vec::new(),
            bodies: Vec::new(),
            replayed: 0,
            replayer,
            shadow,
            own_time: Duration::ZERO,
            loop_end: None,
        }
    }

    /// Charges the time since `since` to the adapter and marks the return
    /// to the campaign.
    fn exit(&mut self, since: Instant) {
        let now = Instant::now();
        self.own_time += now - since;
        self.loop_end = Some(now);
    }

    /// Replays every body not replayed yet.
    fn catch_up(&mut self) {
        for body in &self.bodies[self.replayed..] {
            self.replayer.replay(body);
        }
        self.replayed = self.bodies.len();
    }
}

/// Wraps a fuzzer without changing what it does. In both modes it stamps
/// the start of every round (the 64-case epoch clock) and runs one
/// reference slice there, before generation starts. Traced, it also
/// records a span around every `try_next_round` and `feedback` call,
/// keeps every body, replays the previous round's bodies at each round
/// start, and repeats HFL's learner calls after each `feedback`.
pub struct Probe<F> {
    pub inner: F,
    reference: Reference,
    pub rounds: Vec<Round>,
    pub trace: Option<Trace>,
}

impl<F: Subject> Probe<F> {
    pub fn new(inner: F, trace: Option<Trace>) -> Probe<F> {
        Probe {
            inner,
            reference: Reference::default(),
            rounds: Vec::new(),
            trace,
        }
    }

    /// Replays the last round's bodies; call once the campaign is done.
    /// This replay runs after the round loop, so it is not own time.
    pub fn finish(&mut self) {
        if let Some(trace) = self.trace.as_mut() {
            trace.catch_up();
        }
    }

    /// Summed span time of one layer, in seconds.
    pub fn layer_seconds(&self, layer: Layer) -> f64 {
        self.trace
            .as_ref()
            .map_or(&[][..], |t| &t.spans)
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::seconds)
            .sum()
    }

    /// From the first round's start to the adapter's last return: the
    /// round loop of a traced campaign.
    pub fn loop_seconds(&self) -> f64 {
        match (
            self.rounds.first(),
            self.trace.as_ref().and_then(|t| t.loop_end),
        ) {
            (Some(first), Some(end)) => (end - first.start).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// The adapter's own seconds inside the round loop: whole reference
    /// slices, and in a traced run the copies, replay and shadow learners.
    pub fn own_seconds(&self) -> f64 {
        let slices: f64 = self.rounds.iter().map(|r| r.slice_total).sum();
        slices
            + self
                .trace
                .as_ref()
                .map_or(0.0, |t| t.own_time.as_secs_f64())
    }

    /// The host's slowdown over all reference slices.
    pub fn slowdown(&self) -> f64 {
        slowdown(self.rounds.iter().map(|r| r.slice).sum(), self.rounds.len())
    }

    /// Corrected milliseconds of each complete block of `block` cases, cut
    /// at round starts (the last block ends at `end`): the block's wall
    /// time less its reference slices, divided by their slowdown.
    pub fn block_ms(&self, block: usize, end: Instant) -> Vec<f64> {
        let mut blocks = Vec::new();
        let mut open: Option<Vec<Round>> = None;
        let mut emitted = 0usize;
        for round in &self.rounds {
            if emitted.is_multiple_of(block) {
                if let Some(rounds) = open.take() {
                    blocks.push(corrected_ms(&rounds, round.start));
                }
                open = Some(Vec::new());
            }
            if let Some(rounds) = open.as_mut() {
                rounds.push(*round);
            }
            emitted += round.cases;
        }
        if let Some(rounds) = open.filter(|_| emitted.is_multiple_of(block)) {
            blocks.push(corrected_ms(&rounds, end));
        }
        blocks
    }
}

/// The rounds of one block ending at `end`, corrected.
fn corrected_ms(rounds: &[Round], end: Instant) -> f64 {
    let slices: f64 = rounds.iter().map(|r| r.slice_total).sum();
    let timed: f64 = rounds.iter().map(|r| r.slice).sum();
    ((end - rounds[0].start).as_secs_f64() - slices) / slowdown(timed, rounds.len()) * 1e3
}

impl<F: Subject> Fuzzer for Probe<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_case(&mut self) -> TestBody {
        self.inner.next_case()
    }

    fn try_next_round(&mut self, n: usize) -> Result<Vec<TestBody>, ComposeError> {
        let round_start = Instant::now();
        let (slice, slice_total) = self.reference.slice();
        if let Some(trace) = self.trace.as_mut() {
            let replay_start = Instant::now();
            trace.catch_up();
            trace.own_time += replay_start.elapsed();
        }
        let start = Instant::now();
        let round = self.inner.try_next_round(n);
        let end = Instant::now();
        self.rounds.push(Round {
            start: round_start,
            cases: round.as_ref().map_or(0, Vec::len),
            slice,
            slice_total,
        });
        if let Some(trace) = self.trace.as_mut() {
            trace.spans.push(Span {
                layer: Layer::Generator,
                start,
                end,
            });
            if let Ok(bodies) = &round {
                trace.bodies.extend(bodies.iter().cloned());
            }
            trace.exit(end);
        }
        round
    }

    fn feedback(&mut self, body: &TestBody, feedback: Feedback) {
        let Some(trace) = self.trace.as_mut() else {
            self.inner.feedback(body, feedback);
            return;
        };
        let terminated = feedback.terminated;
        let bits = feedback.case_bits.clone();
        let before = self.inner.hfl();
        let start = Instant::now();
        self.inner.feedback(body, feedback);
        let end = Instant::now();
        trace.spans.push(Span {
            layer: Layer::Learner,
            start,
            end,
        });
        if let (Some(shadow), Some((_, before)), Some((_, after))) =
            (trace.shadow.as_mut(), before, self.inner.hfl())
        {
            shadow.follow(
                body,
                terminated,
                bits.as_deref().map(Vec::as_slice),
                before,
                after,
            );
        }
        trace.exit(end);
    }

    // The wrapped fuzzer keeps its null sink: HFL runs an extra predictor
    // forward pass per case whenever a live sink is attached, which would
    // charge telemetry work to the learner span.
    fn attach_sink(&mut self, _sink: SinkHandle) {}

    fn save_state(&self, w: &mut dyn Write) -> Result<(), PersistError> {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut dyn Read) -> Result<(), PersistError> {
        self.inner.load_state(r)
    }
}

/// What the campaign reported for one executed case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseRecord {
    pub case: u64,
    pub body_len: u64,
    pub retired: u64,
    pub mismatches: u64,
}

/// Keeps every `CaseExecuted` event in memory.
#[derive(Debug, Default)]
pub struct CaseRecorder {
    cases: Mutex<Vec<CaseRecord>>,
}

impl CaseRecorder {
    pub fn take(&self) -> Vec<CaseRecord> {
        std::mem::take(&mut *self.cases.lock().expect("case recorder lock"))
    }
}

impl EventSink for CaseRecorder {
    fn emit(&self, event: &Event) {
        if let Event::CaseExecuted {
            case,
            body_len,
            retired,
            mismatches,
            ..
        } = event
        {
            self.cases
                .lock()
                .expect("case recorder lock")
                .push(CaseRecord {
                    case: *case,
                    body_len: *body_len,
                    retired: *retired,
                    mismatches: *mismatches,
                });
        }
    }
}
