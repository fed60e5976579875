//! The repository benchmark: one workload per process, end-to-end metrics
//! from an untraced run (`--trace 0`), per-layer metrics from a traced run
//! (`--trace 1`). Every layer is timed from outside, at calls into public
//! functions; see `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hfl_rocket --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--workload all` runs the four workloads one after another, each in a
//! process of its own.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod fleet;
mod learners;
mod probe;
mod reference;
mod replay;
mod report;
mod stats;

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfl::baselines::{CascadeFuzzer, GoldenFuzzFuzzer, InterleaveFuzzer};
use hfl::campaign::{run_campaign, CampaignConfig, CampaignResult, CampaignSpec, RunConfig};
use hfl::difftest::Signature;
use hfl::fuzzer::{HflConfig, HflFuzzer, HflStats};
use hfl::harness::Executor;
use hfl::obs::SinkHandle;
use hfl::{CoverageSample, ExecPool};
use hfl_dut::CoreKind;

use crate::learners::Shadow;
use crate::probe::{CaseRecord, CaseRecorder, Layer, Probe, Subject, Trace};
use crate::reference::{slowdown, Reference};
use crate::replay::Replayer;
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, quantile, ratio, stolen_seconds, unstolen_share};

/// Cases per epoch: the fleet's epoch budget, and the block size the
/// campaign workloads' epoch times are cut at.
pub const EPOCH_CASES: u64 = 64;
/// Campaign set-ups timed after each repeat; the fastest counts.
const SETUPS_PER_REPEAT: usize = 15;
/// A run repeats its campaign (or fleet) at least this many times, even
/// past its time budget. Peak memory is read after the first repeat's
/// campaign, before set-ups and later repeats add allocator arenas.
pub const MIN_RUNS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HflRocket,
    CascadeCva6,
    GoldenfuzzMhart,
    FleetDist,
}

impl Workload {
    const ALL: [&'static str; 4] = [
        "hfl_rocket",
        "cascade_cva6",
        "goldenfuzz_mhart",
        "fleet_dist",
    ];

    fn parse(name: &str) -> Option<Workload> {
        match name {
            "hfl_rocket" => Some(Workload::HflRocket),
            "cascade_cva6" => Some(Workload::CascadeCva6),
            "goldenfuzz_mhart" => Some(Workload::GoldenfuzzMhart),
            "fleet_dist" => Some(Workload::FleetDist),
            _ => None,
        }
    }

    fn core(self) -> CoreKind {
        match self {
            Workload::HflRocket | Workload::FleetDist => CoreKind::Rocket,
            Workload::CascadeCva6 | Workload::GoldenfuzzMhart => CoreKind::Cva6,
        }
    }

    fn mhart(self) -> bool {
        self == Workload::GoldenfuzzMhart
    }

    /// Cases of one campaign: a whole number of epochs, sized so that a
    /// campaign takes two to three seconds on one core.
    fn cases(self) -> u64 {
        EPOCH_CASES
            * match self {
                Workload::HflRocket => 4,
                Workload::CascadeCva6 => 100,
                Workload::GoldenfuzzMhart => 30,
                Workload::FleetDist => fleet::EPOCHS,
            }
    }

    fn config(self) -> CampaignConfig {
        let batch = if self == Workload::HflRocket { 1 } else { 8 };
        CampaignConfig {
            cases: self.cases(),
            sample_every: EPOCH_CASES,
            run: RunConfig::quick().with_batch(batch),
        }
    }

    fn executor(self) -> Executor {
        Executor::builder(self.core())
            .max_steps(self.config().max_steps())
            .mhart(self.mhart())
            .build()
    }
}

pub struct Args {
    /// `None` runs every workload, each in a process of its own.
    workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag)?.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
        })
    };
    let name = value("--workload")?.ok_or("--workload is required")?;
    let workload = match name {
        "all" => None,
        _ => Some(Workload::parse(name).ok_or_else(|| {
            format!(
                "unknown workload {name:?} (all, {})",
                Workload::ALL.join(", ")
            )
        })?),
    };
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 1)?,
        seconds: number("--seconds", 10)?.max(1) as f64,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let Some(workload) = args.workload else {
        std::process::exit(run_all(&args));
    };
    let report = match workload {
        Workload::HflRocket => measure_campaign(&args, workload, |seed| {
            HflFuzzer::new(HflConfig::small().with_seed(seed))
        }),
        Workload::CascadeCva6 => {
            measure_campaign(&args, workload, |seed| CascadeFuzzer::new(seed, 100))
        }
        Workload::GoldenfuzzMhart => measure_campaign(&args, workload, |seed| {
            InterleaveFuzzer::new(seed ^ 0x5eed, GoldenFuzzFuzzer::new(seed, 16))
        }),
        Workload::FleetDist => fleet::measure(&args),
    };
    report.print(args.trace);
}

/// Runs every workload in a child process of its own, one after another,
/// passing each one's output through; the last line is one JSON object
/// holding every workload's result line. Returns the exit code.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return 1;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut results = Vec::new();
    for name in Workload::ALL {
        println!("== {name}");
        let output = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match output {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            Ok(out) => {
                eprintln!("perfbench: {name} exited with {}", out.status);
                return 1;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                return 1;
            }
        };
        let (lines, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
        println!("{lines}");
        // The result line opens with its flat fields, then `"metrics"`.
        let head = last
            .find(", \"metrics\"")
            .and_then(|end| hfl::json::Fields::parse(&format!("{}}}", &last[..end])));
        let Some(head) = head else {
            eprintln!("perfbench: {name} printed no result line");
            return 1;
        };
        correct &= head.get("correct").and_then(|v| v.as_bool()) == Some(true);
        attempted += head.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += head.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        results.push(format!("\"{name}\": {last}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        results.join(", ")
    );
    0
}

impl Subject for HflFuzzer {
    fn hfl(&self) -> Option<(HflConfig, HflStats)> {
        Some((*self.config(), self.stats()))
    }
}

impl Subject for CascadeFuzzer {}

impl Subject for InterleaveFuzzer<GoldenFuzzFuzzer> {}

/// Everything a campaign computes that must repeat exactly per seed.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    curve: Vec<CoverageSample>,
    signatures: Vec<Signature>,
    first_detection: Vec<(Signature, u64)>,
    instructions_executed: u64,
    total_mismatches: u64,
    aborted_cases: u64,
    completed: bool,
}

impl Fingerprint {
    fn of(result: &CampaignResult) -> Fingerprint {
        Fingerprint {
            curve: result.curve.clone(),
            signatures: result.signatures.clone(),
            first_detection: result.first_detection.clone(),
            instructions_executed: result.instructions_executed,
            total_mismatches: result.total_mismatches,
            aborted_cases: result.aborted_cases,
            completed: result.completed,
        }
    }
}

struct CampaignRun<F> {
    result: CampaignResult,
    probe: Probe<F>,
    wall: f64,
    /// Seconds the hypervisor took from the vCPUs while the campaign ran.
    stolen: f64,
    end: Instant,
    cases: Vec<CaseRecord>,
}

impl<F: Subject> CampaignRun<F> {
    fn raw_cases_per_s(&self) -> f64 {
        ratio(self.result.throughput.cases as f64, self.wall)
    }

    /// How much the host was slowed down while this campaign ran.
    fn slowdown(&self) -> f64 {
        self.probe.slowdown()
    }

    /// The share of the wall time for which the host ran the campaign's
    /// one busy vCPU. A slice is rarely running when the hypervisor takes
    /// a vCPU away, so the slowdown leaves stolen time out.
    fn unstolen(&self) -> f64 {
        unstolen_share(self.stolen, self.wall, 1.0)
    }

    /// Cases per second of host time corrected to the undisturbed host:
    /// the wall time less the adapter's own time (the reference slices,
    /// and when traced the replay and shadow learners), less its stolen
    /// share, divided by the slices' slowdown.
    fn cases_per_s(&self) -> f64 {
        ratio(
            self.result.throughput.cases as f64,
            (self.wall - self.probe.own_seconds()) * self.unstolen() / self.slowdown(),
        )
    }
}

fn run_once<F: Subject>(w: Workload, fuzzer: F, traced: bool) -> Result<CampaignRun<F>, String> {
    let recorder = Arc::new(CaseRecorder::default());
    let mut builder = CampaignSpec::builder(w.core(), w.config())
        .threads(1)
        .mhart(w.mhart());
    if traced {
        builder = builder.sink(SinkHandle::new(recorder.clone()));
    }
    let spec = builder.build().map_err(|e| e.to_string())?;
    let trace = traced.then(|| {
        let replayer = Replayer::new(
            w.core(),
            w.mhart(),
            w.config().max_steps(),
            w == Workload::GoldenfuzzMhart,
        );
        Trace::new(replayer, fuzzer.hfl().map(|(cfg, _)| Shadow::new(cfg)))
    });
    let mut probe = Probe::new(fuzzer, trace);
    let stolen = stolen_seconds();
    let start = Instant::now();
    let result = run_campaign(&mut probe, &spec).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let stolen = stolen_seconds() - stolen;
    probe.finish();
    Ok(CampaignRun {
        result,
        probe,
        wall: (end - start).as_secs_f64(),
        stolen,
        end,
        cases: recorder.take(),
    })
}

/// Seconds of each of `n` calls of `setup`.
pub fn time_setups(n: usize, mut setup: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            setup();
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// The fastest of `SETUPS_PER_REPEAT` set-ups, corrected to the
/// undisturbed host by reference slices run just before and just after
/// them. A set-up takes about a millisecond, so the fastest one is the
/// one that no interrupt or page-fault storm hit.
fn corrected_setup(reference: &mut Reference, setup: impl FnMut()) -> f64 {
    let (before, _) = reference.slice();
    let fastest = time_setups(SETUPS_PER_REPEAT, setup)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let (after, _) = reference.slice();
    fastest / slowdown(before + after, 2)
}

/// Checks a run against the first one of this process; a difference is a
/// failed operation.
fn check_same<T: PartialEq + std::fmt::Debug>(
    report: &mut Report,
    reference: &mut Option<T>,
    print: T,
    what: &str,
) {
    report.attempted += 1;
    match reference {
        None => *reference = Some(print),
        Some(first) if *first == print => {}
        Some(_) => report.fail(format!("{what} differs from the first run of this seed")),
    }
}

/// Keeps whichever of `slot` and `run` was least slowed down by the host.
fn keep_least_disturbed<F: Subject>(slot: &mut Option<CampaignRun<F>>, run: CampaignRun<F>) {
    if slot
        .as_ref()
        .is_none_or(|kept| run.slowdown() < kept.slowdown())
    {
        *slot = Some(run);
    }
}

fn measure_campaign<F: Subject>(args: &Args, w: Workload, make: impl Fn(u64) -> F) -> Report {
    let mut report = Report::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reference: Option<Fingerprint> = None;
    let mut slices = Reference::default();
    let (mut rates, mut raw_rates, mut slowdowns, mut traced_rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut steal_shares = Vec::new();
    let mut epochs = Vec::new();
    let mut setups = Vec::new();
    let mut peak_rss = None;
    let mut last: Option<CampaignResult> = None;
    let mut traced_run: Option<CampaignRun<F>> = None;
    let mut repeats = 0;
    while repeats < MIN_RUNS || Instant::now() < deadline {
        repeats += 1;
        // A traced repeat follows each untraced one, so tracing overhead
        // is measured under the same machine conditions.
        for traced in [false, true].into_iter().take(1 + usize::from(args.trace)) {
            match run_once(w, make(args.seed), traced) {
                Ok(run) => {
                    check_same(
                        &mut report,
                        &mut reference,
                        Fingerprint::of(&run.result),
                        if traced {
                            "traced campaign"
                        } else {
                            "campaign"
                        },
                    );
                    eprintln!(
                        "{} campaign: {:.1} cases/s corrected, {:.1} raw, host slowdown {:.3}, steal {:.3}",
                        if traced { "traced" } else { "untraced" },
                        run.cases_per_s(),
                        run.raw_cases_per_s(),
                        run.slowdown(),
                        1.0 - run.unstolen()
                    );
                    if traced {
                        traced_rates.push(run.cases_per_s());
                        keep_least_disturbed(&mut traced_run, run);
                    } else {
                        peak_rss.get_or_insert_with(peak_rss_mb);
                        rates.push(run.cases_per_s());
                        raw_rates.push(run.raw_cases_per_s());
                        slowdowns.push(run.slowdown());
                        steal_shares.push(1.0 - run.unstolen());
                        let unstolen = run.unstolen();
                        epochs.extend(
                            run.probe
                                .block_ms(EPOCH_CASES as usize, run.end)
                                .into_iter()
                                .map(|ms| ms * unstolen),
                        );
                        last = Some(run.result);
                    }
                }
                Err(e) => {
                    report.attempted += 1;
                    report.fail(format!("campaign failed: {e}"));
                }
            }
        }
        setups.push(corrected_setup(&mut slices, || {
            black_box(make(args.seed));
            black_box(ExecPool::new(w.executor(), 1));
        }));
    }
    let Some(result) = last else {
        return report;
    };
    let (condition, line, fsm) = result.final_counts();
    report.set("cases_per_s", median(&rates));
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss.unwrap_or_default());
    report.set(
        "completed_share",
        1.0 - ratio(result.aborted_cases as f64, result.throughput.cases as f64),
    );
    report.set("epoch_ms_p50", median(&epochs));
    report.set("epoch_ms_p90", quantile(&epochs, 0.9));
    report.set("cond_points", condition as f64);
    report.set("line_points", line as f64);
    report.set("fsm_points", fsm as f64);
    report.set("signatures", result.unique_signatures as f64);
    report.set("epoch.samples", epochs.len() as f64);
    report.set("host.slowdown", median(&slowdowns));
    report.set("host.steal_share", median(&steal_shares));
    report.set("host.raw_cases_per_s", median(&raw_rates));
    if let Some(traced) = traced_run {
        report.set("trace.untraced_cases_per_s", median(&rates));
        report.set("trace.traced_cases_per_s", median(&traced_rates));
        report.set(
            "trace.overhead_share",
            1.0 - ratio(median(&traced_rates), median(&rates)),
        );
        layer_metrics(traced, &mut report);
    }
    report
}

/// Per-layer metrics of a traced campaign: its round-boundary spans, the
/// replay of its bodies and its shadow learners, all taken during the
/// same campaign.
fn layer_metrics<F: Subject>(run: CampaignRun<F>, report: &mut Report) {
    let cases = run.result.throughput.cases as f64;
    // The campaign's own time: wall time less the adapter's.
    let wall = run.wall - run.probe.own_seconds();
    let gen = run.probe.layer_seconds(Layer::Generator);
    let learn = run.probe.layer_seconds(Layer::Learner);
    let exec = run.result.throughput.exec_seconds;
    let campaign_self = run.probe.loop_seconds() - gen - learn - exec - run.probe.own_seconds();
    let us = |seconds: f64| 1e6 * ratio(seconds, cases);
    report.set("generator.us_per_case", us(gen));
    report.set("generator.share", ratio(gen, wall));
    report.set("learner.us_per_case", us(learn));
    report.set("learner.share", ratio(learn, wall));
    report.set("exec.us_per_case", us(exec));
    report.set("exec.share", ratio(exec, wall));
    report.set("exec.occupancy", run.result.throughput.pool_occupancy);
    report.set("campaign.self_us_per_case", us(campaign_self));
    report.set(
        "unaccounted.wall_share",
        1.0 - ratio(gen + learn + exec + campaign_self, wall),
    );

    let Some(mut trace) = run.probe.trace else {
        return;
    };
    let r = trace.replayer.finish(&run.cases);
    let n = r.cases as f64;
    report.attempted += r.cases;
    for failure in &r.failures {
        report.fail(failure.clone());
    }
    let totals = [
        ("replayed cases", n, cases),
        (
            "summed DUT steps vs instructions_executed",
            r.dut_steps as f64,
            run.result.instructions_executed as f64,
        ),
        (
            "summed mismatches vs total_mismatches",
            r.mismatches as f64,
            run.result.total_mismatches as f64,
        ),
        (
            "predecode hits vs sim.predecode.hits",
            r.hits as f64,
            run.result.metrics.counter("sim.predecode.hits") as f64,
        ),
    ];
    for (what, replayed, campaign) in totals {
        report.attempted += 1;
        if replayed != campaign {
            report.fail(format!("{what}: replay {replayed}, campaign {campaign}"));
        }
    }
    let per_case = |seconds: f64| 1e6 * ratio(seconds, n);
    report.set("predecode.us_per_case", per_case(r.predecode_s));
    report.set(
        "predecode.hit_rate",
        ratio(r.hits as f64, (r.hits + r.misses) as f64),
    );
    report.set("dut.us_per_case", per_case(r.dut_s));
    report.set("dut.steps_per_s", ratio(r.dut_steps as f64, r.dut_s));
    report.set("grm.us_per_case", per_case(r.grm_s));
    report.set("grm.steps_per_s", ratio(r.grm_steps as f64, r.grm_s));
    report.set(
        "grm_legacy.steps_per_s",
        ratio(r.legacy_steps as f64, r.legacy_s),
    );
    report.set("mhart.us_per_case", per_case(r.mhart_s));
    report.set(
        "mhart.sched_steps_per_s",
        ratio(r.sched_steps as f64, r.mhart_s),
    );
    report.set("difftest.us_per_case", per_case(r.difftest_s));
    report.set(
        "difftest.mismatches_per_case",
        ratio(r.mismatches as f64, n),
    );
    report.set(
        "unaccounted.exec_share",
        1.0 - ratio(per_case(r.exec_seconds()), us(exec)),
    );
    report.set("traffic.body_len_mean", ratio(r.body_len as f64, n));
    report.set("traffic.dut_steps_per_case", ratio(r.dut_steps as f64, n));
    report.set("traffic.mhart_share", ratio(r.mhart_cases as f64, n));

    if let Some(shadow) = trace.shadow {
        let (c, p, v) = (shadow.covpred, shadow.ppo, shadow.critic);
        report.set("covpred.us_per_call", c.us_per_call());
        report.set("ppo.us_per_call", p.us_per_call());
        report.set("critic.us_per_call", v.us_per_call());
        report.set(
            "learner.accounted_share",
            ratio(c.seconds + p.seconds + v.seconds, learn),
        );
    }
}
