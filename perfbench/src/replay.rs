//! Re-executes a campaign's bodies one layer call at a time, the way a
//! pool worker runs them, timing each layer and checking that every case
//! reproduces what the campaign reported. The traced adapter replays each
//! round's bodies as soon as the round's feedback is done, so the replay
//! runs under the same host load as the campaign it is compared with.

use std::time::Instant;

use hfl::baselines::TestBody;
use hfl::difftest::compare;
use hfl::predecode::PredecodeCache;
use hfl_dut::{CoreKind, Dut, MhartMachine};
use hfl_grm::Cpu;

use crate::probe::CaseRecord;

/// GoldenFuzz's candidate dry runs stop after this many GRM steps.
const GOLDENFUZZ_DRY_RUN_STEPS: u64 = 256;

/// Summed layer times and counts over one replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub cases: u64,
    pub body_len: u64,
    pub mhart_cases: u64,
    pub predecode_s: f64,
    pub dut_s: f64,
    pub grm_s: f64,
    pub mhart_s: f64,
    pub difftest_s: f64,
    pub legacy_s: f64,
    pub dut_steps: u64,
    pub grm_steps: u64,
    pub sched_steps: u64,
    pub legacy_steps: u64,
    pub mismatches: u64,
    pub hits: u64,
    pub misses: u64,
    /// Cases whose length, steps or mismatch count differ from the
    /// campaign's.
    pub failures: Vec<String>,
}

impl Replay {
    /// The layers that make up one pool execution, in seconds.
    pub fn exec_seconds(&self) -> f64 {
        self.predecode_s + self.dut_s + self.grm_s + self.mhart_s + self.difftest_s
    }
}

/// Replays bodies in campaign order on a predecode cache and simulators of
/// its own.
pub struct Replayer {
    max_steps: u64,
    legacy: bool,
    cache: PredecodeCache,
    dut: Dut,
    machine: Option<MhartMachine>,
    totals: Replay,
    /// `(body length, DUT steps, mismatches)` of every replayed case.
    cases: Vec<(u64, u64, u64)>,
}

impl Replayer {
    /// A replayer for `core`; `mhart` selects the two-hart system
    /// executor. `legacy` also times the decode-per-step GRM (`Cpu::run`)
    /// on every body, as GoldenFuzz's candidate scoring runs it.
    pub fn new(core: CoreKind, mhart: bool, max_steps: u64, legacy: bool) -> Replayer {
        Replayer {
            max_steps,
            legacy,
            cache: PredecodeCache::default(),
            dut: Dut::new(core),
            machine: mhart.then(|| MhartMachine::new(hfl_dut::quirks_for(core))),
            totals: Replay::default(),
            cases: Vec::new(),
        }
    }

    /// Replays the campaign's next case.
    pub fn replay(&mut self, body: &TestBody) {
        let max_steps = self.max_steps;
        let out = &mut self.totals;
        let t0 = Instant::now();
        let prepared = self.cache.prepare(body);
        let t1 = Instant::now();
        out.predecode_s += (t1 - t0).as_secs_f64();
        let (steps, mismatches) = if let Some(machine) = self.machine.as_mut() {
            let result = machine.run(&prepared.program, body.sched_seed().unwrap_or(0), max_steps);
            let t2 = Instant::now();
            let mut mismatches = 0;
            for (d, r) in result.harts.iter().zip(&result.reference) {
                mismatches += compare(&r.trace, r.halt, &r.arch, &d.trace, d.halt, &d.arch).len();
            }
            out.mhart_s += (t2 - t1).as_secs_f64();
            out.difftest_s += t2.elapsed().as_secs_f64();
            out.sched_steps += result.scheduled_steps;
            (result.harts.iter().map(|h| h.steps).sum(), mismatches)
        } else {
            let d = self
                .dut
                .run_predecoded(&prepared.program, &prepared.image, max_steps);
            let t2 = Instant::now();
            let mut grm = Cpu::new();
            grm.load_program(&prepared.program);
            let run = grm.run_predecoded(&prepared.image, max_steps);
            let arch = grm.arch_snapshot();
            let trace = std::mem::take(&mut grm.trace);
            let t3 = Instant::now();
            let mismatches = compare(&trace, run.reason, &arch, &d.trace, d.halt, &d.arch).len();
            out.dut_s += (t2 - t1).as_secs_f64();
            out.grm_s += (t3 - t2).as_secs_f64();
            out.difftest_s += t3.elapsed().as_secs_f64();
            out.grm_steps += run.steps;
            (d.steps, mismatches)
        };
        let mismatches = mismatches as u64;
        if self.legacy {
            let t = Instant::now();
            let mut cpu = Cpu::new();
            cpu.load_program(&prepared.program);
            out.legacy_steps += cpu.run(GOLDENFUZZ_DRY_RUN_STEPS).steps;
            out.legacy_s += t.elapsed().as_secs_f64();
        }
        out.cases += 1;
        out.body_len += body.len() as u64;
        out.mhart_cases += u64::from(body.sched_seed().is_some());
        out.dut_steps += steps;
        out.mismatches += mismatches;
        self.cases.push((body.len() as u64, steps, mismatches));
    }

    /// The totals, with every replayed case checked against what the
    /// campaign reported for it.
    pub fn finish(&mut self, recorded: &[CaseRecord]) -> Replay {
        let mut out = std::mem::take(&mut self.totals);
        for (i, &(body_len, steps, mismatches)) in self.cases.iter().enumerate() {
            match recorded.get(i) {
                Some(r)
                    if r.case == i as u64 + 1
                        && r.body_len == body_len
                        && r.retired == steps
                        && r.mismatches == mismatches => {}
                other => out.failures.push(format!(
                    "case {}: replay gave {steps} steps / {mismatches} mismatches, campaign reported {other:?}",
                    i + 1
                )),
            }
        }
        out.hits = self.cache.hits();
        out.misses = self.cache.misses();
        out
    }
}
