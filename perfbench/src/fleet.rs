//! The `fleet_dist` workload: the distributed fleet over in-process
//! worker threads, timed at its epoch events and corrected by a reference
//! slice at every epoch start and by the time stolen from its vCPUs.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hfl::fleet::{FleetConfig, FleetResult, FleetSample, FleetSpec};
use hfl::obs::{Event, EventSink, SinkHandle};
use hfl::{run_fleet_dist, DistConfig, FuzzerKind, MemberSpec, ThreadLauncher};
use hfl::{CoverageSample, Signature};
use hfl_dut::CoreKind;

use crate::reference::{Reference, UNDISTURBED_SLICE_SECONDS};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, quantile, ratio, stolen_seconds, unstolen_share};
use crate::{time_setups, Args, EPOCH_CASES, MIN_RUNS};

/// Epochs of one fleet run.
pub const EPOCHS: u64 = 100;
/// vCPUs the fleet keeps busy: one per member's worker thread.
const BUSY_VCPUS: f64 = 2.0;
/// The quantile over repeats that stands for one epoch's time: between
/// the lower quartile, which spreads more from run to run, and the
/// median, which a stall lasting half the repeats moves. See
/// `perfbench/README.md`.
const EPOCH_QUANTILE: f64 = 0.35;
/// Fleet set-ups timed after each repeat; their median counts.
const FLEET_SETUPS_PER_REPEAT: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Start,
    Member,
    End,
}

/// Timestamps the coordinator's epoch events, and runs a reference slice
/// on the coordinator's thread at each epoch start.
#[derive(Default)]
struct EpochClock {
    state: Mutex<ClockState>,
}

#[derive(Default)]
struct ClockState {
    reference: Reference,
    marks: Vec<(Instant, Mark, u64)>,
    /// Timed and whole seconds of the slice that opened each epoch.
    slices: Vec<(f64, f64)>,
}

impl EventSink for EpochClock {
    fn emit(&self, event: &Event) {
        let (mark, epoch) = match event {
            Event::EpochStart { epoch, .. } => (Mark::Start, *epoch),
            Event::MemberProgress { epoch, .. } => (Mark::Member, *epoch),
            Event::EpochEnd { epoch, .. } => (Mark::End, *epoch),
            _ => return,
        };
        let now = Instant::now();
        let mut state = self.state.lock().expect("epoch clock lock");
        state.marks.push((now, mark, epoch));
        if mark == Mark::Start {
            let slice = state.reference.slice();
            state.slices.push(slice);
        }
    }
}

/// The two members: the scenario policy and TheHuzz, on Rocket.
fn members(seed: u64) -> [MemberSpec; 2] {
    [
        MemberSpec::new(FuzzerKind::Scenario, seed, CoreKind::Rocket),
        MemberSpec::new(FuzzerKind::TheHuzz, seed.wrapping_add(1), CoreKind::Rocket),
    ]
}

/// Everything a fleet computes that must repeat exactly per seed.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    merged: Vec<FleetSample>,
    members: Vec<MemberPrint>,
    corpus_entries: usize,
    budgets: Vec<u64>,
    completed: bool,
}

#[derive(Debug, PartialEq)]
struct MemberPrint {
    cases: u64,
    curve: Vec<CoverageSample>,
    first_detection: Vec<(Signature, u64)>,
    instructions_executed: u64,
    aborted_cases: u64,
}

impl Fingerprint {
    fn of(result: &FleetResult) -> Fingerprint {
        Fingerprint {
            merged: result.merged_curve.clone(),
            members: result
                .members
                .iter()
                .map(|m| MemberPrint {
                    cases: m.cases,
                    curve: m.curve.clone(),
                    first_detection: m.first_detection.clone(),
                    instructions_executed: m.instructions_executed,
                    aborted_cases: m.aborted_cases,
                })
                .collect(),
            corpus_entries: result.corpus.len(),
            budgets: result.budgets.clone(),
            completed: result.completed,
        }
    }
}

struct FleetRun {
    result: FleetResult,
    wall: f64,
    /// Seconds the hypervisor took from the vCPUs while the fleet ran.
    stolen: f64,
    clock: ClockState,
}

impl FleetRun {
    fn cases(&self) -> u64 {
        self.result.members.iter().map(|m| m.cases).sum()
    }

    fn raw_cases_per_s(&self) -> f64 {
        ratio(self.cases() as f64, self.wall)
    }

    /// How much the host was slowed down while this fleet ran, from the
    /// median slice: three threads share the two vCPUs, and a slice that
    /// a worker preempts reads milliseconds. The fleet's time grows as
    /// the slice's, not as its 1.75th power like a campaign's: over two
    /// sets of ten seeds, the fitted powers were 1.33 and 1.05.
    fn slowdown(&self) -> f64 {
        let timed: Vec<f64> = self.clock.slices.iter().map(|s| s.0).collect();
        median(&timed) / UNDISTURBED_SLICE_SECONDS
    }

    /// The share of the wall time for which the host ran the fleet's
    /// vCPUs. A slice is rarely running when the hypervisor takes a vCPU
    /// away, so the slowdown leaves stolen time out.
    fn unstolen(&self) -> f64 {
        unstolen_share(self.stolen, self.wall, BUSY_VCPUS)
    }

    /// Cases per second corrected to the undisturbed host: the wall time
    /// less the slices, less its stolen share, divided by the slowdown.
    fn cases_per_s(&self) -> f64 {
        let slices: f64 = self.clock.slices.iter().map(|s| s.1).sum();
        ratio(
            self.cases() as f64,
            (self.wall - slices) * self.unstolen() / self.slowdown(),
        )
    }

    /// Per-epoch `(start → first member result folded, that → end)` in
    /// ms of host time, less the epoch's slice.
    fn phases(&self) -> Vec<(f64, f64)> {
        let marks = &self.clock.marks;
        let at = |mark: Mark, epoch: u64| {
            marks
                .iter()
                .find(|(_, m, e)| *m == mark && *e == epoch)
                .map(|(t, _, _)| *t)
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        (0..EPOCHS)
            .zip(&self.clock.slices)
            .filter_map(|(epoch, &(_, slice))| {
                let start = at(Mark::Start, epoch)?;
                let member = at(Mark::Member, epoch)?;
                let end = at(Mark::End, epoch)?;
                Some((ms(member - start) - slice * 1e3, ms(end - member)))
            })
            .collect()
    }
}

fn run_fleet(seed: u64, epochs: u64, cases_per_epoch: u64) -> Result<FleetRun, String> {
    let clock = Arc::new(EpochClock::default());
    let spec = FleetSpec::builder(FleetConfig::quick(epochs, cases_per_epoch))
        .threads(1)
        .sink(SinkHandle::new(clock.clone()))
        .build()
        .map_err(|e| e.to_string())?;
    let stolen = stolen_seconds();
    let start = Instant::now();
    let result = run_fleet_dist(
        &members(seed),
        &spec,
        &DistConfig::default(),
        &mut ThreadLauncher::new(),
    )
    .map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    let stolen = stolen_seconds() - stolen;
    let clock = std::mem::take(&mut *clock.state.lock().expect("epoch clock lock"));
    Ok(FleetRun {
        result,
        wall,
        stolen,
        clock,
    })
}

/// Keeps whichever of `slot` and `run` was least slowed down by the host.
fn keep_least_disturbed(slot: &mut Option<FleetRun>, run: FleetRun) {
    if slot
        .as_ref()
        .is_none_or(|kept| run.slowdown() < kept.slowdown())
    {
        *slot = Some(run);
    }
}

/// Time metrics are corrected as the campaigns' are, by slices on the
/// coordinator's thread: the slice reads the host alone, so it does not
/// matter that the members run on other threads.
pub fn measure(args: &Args) -> Report {
    let mut report = Report::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reference: Option<Fingerprint> = None;
    let mut setups = Vec::new();
    let mut peak_rss = None;
    let (mut rates, mut raw_rates, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut steal_shares = Vec::new();
    // Each repeat's corrected epoch times, in epoch order.
    let mut epoch_runs: Vec<Vec<f64>> = Vec::new();
    let mut kept: Option<FleetRun> = None;
    let mut repeats = 0;
    while repeats < MIN_RUNS || Instant::now() < deadline {
        repeats += 1;
        // The coordinator's epoch events are the fleet's only trace points,
        // and the clock that reads them is attached in both modes, so one
        // run serves `--trace 0` and `--trace 1` alike.
        match run_fleet(args.seed, EPOCHS, EPOCH_CASES) {
            Ok(run) => {
                crate::check_same(
                    &mut report,
                    &mut reference,
                    Fingerprint::of(&run.result),
                    "fleet run",
                );
                eprintln!(
                    "fleet: {:.1} cases/s corrected, {:.1} raw, host slowdown {:.3}, steal {:.3}",
                    run.cases_per_s(),
                    run.raw_cases_per_s(),
                    run.slowdown(),
                    1.0 - run.unstolen()
                );
                peak_rss.get_or_insert_with(peak_rss_mb);
                rates.push(run.cases_per_s());
                raw_rates.push(run.raw_cases_per_s());
                slowdowns.push(run.slowdown());
                steal_shares.push(1.0 - run.unstolen());
                let scale = run.unstolen() / run.slowdown();
                let epochs: Vec<f64> = run
                    .phases()
                    .iter()
                    .map(|(members, close)| (members + close) * scale)
                    .collect();
                report.attempted += 1;
                if epochs.len() == EPOCHS as usize {
                    epoch_runs.push(epochs);
                } else {
                    report.fail(format!(
                        "fleet run timed {} of {EPOCHS} epochs: epoch events are missing",
                        epochs.len()
                    ));
                }
                keep_least_disturbed(&mut kept, run);
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("fleet failed: {e}"));
            }
        }
        // Set-up: coordinator construction, worker launch and handshake,
        // and one one-case grant per member.
        let mut setup_errors = Vec::new();
        setups.push(median(&time_setups(FLEET_SETUPS_PER_REPEAT, || {
            if let Err(e) = run_fleet(args.seed, 1, 2) {
                setup_errors.push(e);
            }
        })));
        for e in setup_errors {
            report.attempted += 1;
            report.fail(format!("set-up fleet failed: {e}"));
        }
    }
    // Every repeat runs the same epochs. An epoch's time varies by about
    // 15% from repeat to repeat, in CPU time as much as in wall time, and
    // a passing stall of the host (a stolen vCPU, a preempted worker)
    // lengthens it in some repeats only. Its time is its EPOCH_QUANTILE
    // over the repeats; the percentiles are over those epochs.
    let epochs: Vec<f64> = (0..EPOCHS as usize)
        .map(|i| {
            let times: Vec<f64> = epoch_runs.iter().map(|run| run[i]).collect();
            quantile(&times, EPOCH_QUANTILE)
        })
        .collect();
    let Some(run) = kept else {
        return report;
    };
    let r = &run.result;
    let (condition, line, fsm) = r.final_counts();
    let cases: u64 = r.members.iter().map(|m| m.cases).sum();
    let aborted: u64 = r.members.iter().map(|m| m.aborted_cases).sum();
    report.set("cases_per_s", median(&rates));
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss.unwrap_or_default());
    report.set("completed_share", 1.0 - ratio(aborted as f64, cases as f64));
    report.set("epoch_ms_p50", median(&epochs));
    report.set("epoch_ms_p90", quantile(&epochs, 0.9));
    report.set("cond_points", condition as f64);
    report.set("line_points", line as f64);
    report.set("fsm_points", fsm as f64);
    report.set(
        "signatures",
        r.merged_curve.last().map_or(0, |s| s.unique_signatures) as f64,
    );
    report.set("epoch.samples", (epoch_runs.len() * epochs.len()) as f64);
    report.set("host.slowdown", median(&slowdowns));
    report.set("host.steal_share", median(&steal_shares));
    report.set("host.raw_cases_per_s", median(&raw_rates));
    let phases = run.phases();
    let seconds = |name: &str| r.metrics.histogram(name).map_or(0.0, |h| h.sum);
    let members: Vec<f64> = phases.iter().map(|p| p.0).collect();
    let close: Vec<f64> = phases.iter().map(|p| p.1).collect();
    report.set("fleet.members_ms_p50", median(&members));
    report.set("fleet.close_ms_p50", median(&close));
    report.set("fleet.sync_s", seconds("fleet.sync.seconds"));
    report.set("fleet.distill_s", seconds("fleet.distill.seconds"));
    report.set("fleet.schedule_s", seconds("fleet.schedule.seconds"));
    report.set("fleet.corpus_entries", r.corpus.len() as f64);
    let steps: u64 = r.members.iter().map(|m| m.instructions_executed).sum();
    report.set(
        "traffic.dut_steps_per_case",
        ratio(steps as f64, cases as f64),
    );
    // Traced and untraced runs are one and the same, so the tracing
    // overhead is 0 by construction.
    report.set("trace.untraced_cases_per_s", median(&rates));
    report.set("trace.traced_cases_per_s", median(&rates));
    report.set("trace.overhead_share", 0.0);
    report
}
