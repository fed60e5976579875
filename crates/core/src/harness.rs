//! The execution harness: runs a test case on both the DUT and the GRM
//! and performs differential testing.

use hfl_dut::{CoreKind, Dut, DutResult, MhartMachine};
use hfl_grm::cpu::HaltReason;
use hfl_grm::{ArchSnapshot, Cpu, Program, Trace};
use hfl_riscv::Instruction;

use crate::baselines::TestBody;
use crate::difftest::{compare, Mismatch};
use crate::predecode::{PredecodeCache, PreparedCase};

/// Default per-test step budget (generated tests are short; the budget
/// exists to bound accidental loops).
pub const DEFAULT_MAX_STEPS: u64 = 20_000;

/// The outcome of running one test case through the harness.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The DUT execution (trace, coverage, cycles, crash state).
    pub dut: DutResult,
    /// The golden model's trace.
    pub grm_trace: Trace,
    /// The golden model's halt reason.
    pub grm_halt: HaltReason,
    /// The golden model's final architectural state.
    pub grm_arch: ArchSnapshot,
    /// Differential-testing mismatches (at most one trace divergence plus
    /// final-state differences).
    pub mismatches: Vec<Mismatch>,
    /// Per-phase wall-clock of this case (telemetry only: never part of a
    /// determinism comparison).
    pub timing: CaseTiming,
}

/// Wall-clock split of one case across the harness's three phases. The
/// campaign runner aggregates these into its `Metrics` registry
/// (`phase.difftest.seconds` in particular is unobservable from outside
/// the harness, since difftest runs inside the pool workers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CaseTiming {
    /// Seconds the DUT simulation took.
    pub dut_seconds: f64,
    /// Seconds the golden-model run took.
    pub grm_seconds: f64,
    /// Seconds trace/state comparison took.
    pub difftest_seconds: f64,
}

/// Configures and builds an [`Executor`].
///
/// # Examples
///
/// ```
/// use hfl::harness::Executor;
/// use hfl_dut::CoreKind;
///
/// let executor = Executor::builder(CoreKind::Rocket)
///     .max_steps(5_000)
///     .build();
/// assert_eq!(executor.core(), CoreKind::Rocket);
/// ```
#[derive(Debug, Clone)]
pub struct ExecutorBuilder {
    kind: CoreKind,
    max_steps: u64,
    quirks: Option<hfl_grm::cpu::Quirks>,
    mhart: bool,
}

impl ExecutorBuilder {
    /// Overrides the per-test step budget (default
    /// [`DEFAULT_MAX_STEPS`]).
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> ExecutorBuilder {
        self.max_steps = max_steps;
        self
    }

    /// Gives the DUT an explicit defect configuration instead of the
    /// core's full catalogue (used by the per-bug detection experiments).
    #[must_use]
    pub fn quirks(mut self, quirks: hfl_grm::cpu::Quirks) -> ExecutorBuilder {
        self.quirks = Some(quirks);
        self
    }

    /// Switches the executor to the two-hart system configuration
    /// ([`hfl_dut::mhart`]): every case runs SPMD on both harts under the
    /// interleaving its `sched_seed` selects (single-hart bodies run with
    /// seed 0), and coverage comes from the system-level point database.
    #[must_use]
    pub fn mhart(mut self, mhart: bool) -> ExecutorBuilder {
        self.mhart = mhart;
        self
    }

    /// Builds the executor.
    #[must_use]
    pub fn build(self) -> Executor {
        let mhart = self.mhart.then(|| {
            MhartMachine::new(
                self.quirks
                    .clone()
                    .unwrap_or_else(|| hfl_dut::quirks_for(self.kind)),
            )
        });
        Executor {
            dut: Dut::new(self.kind),
            mhart,
            max_steps: self.max_steps,
            quirks: self.quirks,
            cache: PredecodeCache::default(),
        }
    }
}

/// Runs programs on a `(DUT, GRM)` pair for one core.
///
/// Executors are `Clone`: `hfl::exec::ExecPool` clones one prototype per
/// worker thread. Every run starts the DUT from reset, so clones are
/// behaviourally identical to the prototype.
///
/// # Examples
///
/// ```
/// use hfl::harness::Executor;
/// use hfl_dut::CoreKind;
/// use hfl_riscv::{Instruction, Opcode, Reg};
///
/// let mut executor = Executor::builder(CoreKind::Rocket).build();
/// let result = executor.run_case(&[
///     Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1),
/// ]);
/// assert_eq!(result.grm_arch.x[10], 1);
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    dut: Dut,
    /// The two-hart system machine, when the executor runs in mhart mode.
    mhart: Option<MhartMachine>,
    max_steps: u64,
    quirks: Option<hfl_grm::cpu::Quirks>,
    /// Worker-local predecode cache: lock-free, and invisible to results
    /// (lookups compare full bodies — including any `sched_seed` — so
    /// stale hits cannot occur).
    cache: PredecodeCache,
}

impl Executor {
    /// Starts building an executor for one core.
    #[must_use]
    pub fn builder(kind: CoreKind) -> ExecutorBuilder {
        ExecutorBuilder {
            kind,
            max_steps: DEFAULT_MAX_STEPS,
            quirks: None,
            mhart: false,
        }
    }

    /// The core under test.
    #[must_use]
    pub fn core(&self) -> CoreKind {
        self.dut.kind()
    }

    /// Whether the executor runs the two-hart system configuration.
    #[must_use]
    pub fn is_mhart(&self) -> bool {
        self.mhart.is_some()
    }

    /// The coverage-point database (the system-level one in mhart mode).
    #[must_use]
    pub fn coverage_map(&self) -> &hfl_dut::CoverageMap {
        match &self.mhart {
            Some(machine) => machine.coverage_map(),
            None => self.dut.coverage_map(),
        }
    }

    /// Runs one test body — the single execution path every campaign and
    /// pool worker goes through, whichever representation the fuzzer
    /// emitted. The body's lowering (assemble + predecode) is served from
    /// the executor's [`PredecodeCache`], so re-executions of the same
    /// body (screening, minimisation, triage) skip it entirely.
    pub fn run(&mut self, body: &TestBody) -> CaseResult {
        let prepared = self.cache.prepare(body);
        if self.mhart.is_some() {
            return self.run_mhart(&prepared, body.sched_seed().unwrap_or(0));
        }
        self.run_prepared(&prepared)
    }

    /// Runs a test-case body given as instructions.
    pub fn run_case(&mut self, body: &[Instruction]) -> CaseResult {
        self.run(&TestBody::Asm(body.to_vec()))
    }

    /// `(hits, misses)` of this executor's predecode cache since
    /// construction.
    #[must_use]
    pub fn predecode_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Runs an assembled program on both sides and diffs the executions
    /// (one-shot predecode, bypassing the cache).
    pub fn run_program(&mut self, program: &Program) -> CaseResult {
        self.run_prepared(&PreparedCase::new(program.clone()))
    }

    /// Runs one case on the two-hart system machine and folds the per-hart
    /// outcomes into the single-hart [`CaseResult`] shape the rest of the
    /// pipeline (pools, campaigns, coverage batching) consumes: hart 0
    /// fills the scalar trace/state fields, coverage is the system-level
    /// snapshot, and `mismatches` merges the per-hart difftests.
    fn run_mhart(&mut self, prepared: &PreparedCase, sched_seed: u64) -> CaseResult {
        let machine = self.mhart.as_mut().expect("mhart mode");
        let dut_started = std::time::Instant::now();
        let result = machine.run(&prepared.program, sched_seed, self.max_steps);
        let diff_started = std::time::Instant::now();
        let mut mismatches = Vec::new();
        for (hart, (d, r)) in result.harts.iter().zip(&result.reference).enumerate() {
            let mut found = compare(&r.trace, r.halt, &r.arch, &d.trace, d.halt, &d.arch);
            for m in &mut found {
                m.detail = format!("hart {hart}: {}", m.detail);
            }
            mismatches.extend(found);
        }
        let done = std::time::Instant::now();
        let [dut0, _] = &result.harts[..] else {
            unreachable!("two harts");
        };
        let [ref0, _] = &result.reference[..] else {
            unreachable!("two harts");
        };
        CaseResult {
            dut: DutResult {
                halt: dut0.halt,
                steps: result.harts.iter().map(|h| h.steps).sum(),
                cycles: result.scheduled_steps,
                trace: dut0.trace.clone(),
                arch: dut0.arch.clone(),
                coverage: result.coverage,
            },
            grm_trace: ref0.trace.clone(),
            grm_halt: ref0.halt,
            grm_arch: ref0.arch.clone(),
            mismatches,
            timing: CaseTiming {
                dut_seconds: (diff_started - dut_started).as_secs_f64(),
                grm_seconds: 0.0,
                difftest_seconds: (done - diff_started).as_secs_f64(),
            },
        }
    }

    /// Runs a prepared (assembled + predecoded) case on both sides and
    /// diffs the executions.
    fn run_prepared(&mut self, prepared: &PreparedCase) -> CaseResult {
        let program: &Program = &prepared.program;
        let image = &*prepared.image;
        let dut_started = std::time::Instant::now();
        let dut = match &self.quirks {
            Some(q) => {
                self.dut
                    .run_predecoded_with_quirks(program, image, self.max_steps, q.clone())
            }
            None => self.dut.run_predecoded(program, image, self.max_steps),
        };
        let grm_started = std::time::Instant::now();
        let mut grm = Cpu::new();
        grm.load_program(program);
        let grm_run = grm.run_predecoded(image, self.max_steps);
        let grm_arch = grm.arch_snapshot();
        let grm_trace = std::mem::take(&mut grm.trace);
        let diff_started = std::time::Instant::now();
        let mismatches = compare(
            &grm_trace,
            grm_run.reason,
            &grm_arch,
            &dut.trace,
            dut.halt,
            &dut.arch,
        );
        let done = std::time::Instant::now();
        CaseResult {
            dut,
            grm_trace,
            grm_halt: grm_run.reason,
            grm_arch,
            mismatches,
            timing: CaseTiming {
                dut_seconds: (grm_started - dut_started).as_secs_f64(),
                grm_seconds: (diff_started - grm_started).as_secs_f64(),
                difftest_seconds: (done - diff_started).as_secs_f64(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_riscv::vocab::mem_map;
    use hfl_riscv::{Csr, Opcode, Reg};

    #[test]
    fn clean_program_produces_no_mismatch_on_rocket() {
        let mut ex = Executor::builder(CoreKind::Rocket).build();
        let result = ex.run_case(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 7),
            Instruction::r(Opcode::Add, Reg::X11, Reg::X10, Reg::X10),
            Instruction::s(Opcode::Sd, Reg::X11, 0, Reg::X5),
        ]);
        assert!(result.mismatches.is_empty(), "{:?}", result.mismatches);
        assert_eq!(result.dut.arch.x[11], 14);
        assert_eq!(result.grm_arch.x[11], 14);
    }

    #[test]
    fn rocket_k2_sc_bug_is_detected() {
        let mut ex = Executor::builder(CoreKind::Rocket).build();
        let result = ex.run_case(&[Instruction::new(Opcode::ScW, 11, 5, 10, 0, 0, Csr::FFLAGS)]);
        assert!(!result.mismatches.is_empty(), "sc divergence must surface");
    }

    #[test]
    fn cva6_v1_crash_is_detected_as_crash_mismatch() {
        let mut ex = Executor::builder(CoreKind::Cva6).build();
        let program = Program::assemble(&[Instruction::NOP]);
        let body_off = (program.body_pc() - mem_map::CODE_BASE) as i64;
        let result = ex.run_case(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 0x13),
            Instruction::s(Opcode::Sw, Reg::X10, body_off, Reg::X6),
        ]);
        assert!(result
            .mismatches
            .iter()
            .any(|m| m.kind == crate::difftest::MismatchKind::Crash));
    }

    #[test]
    fn raw_words_run_and_illegal_words_trap_identically() {
        let mut ex = Executor::builder(CoreKind::Boom).build();
        // A valid addi plus garbage; both sides trap on the garbage the
        // same way, so no mismatch arises from it.
        let addi = Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 3).encode();
        let result = ex.run(&TestBody::Words(vec![addi, 0xFFFF_FFFF]));
        assert_eq!(result.grm_arch.x[10], 3);
        assert!(result
            .grm_trace
            .iter()
            .any(|e| e.trap.is_some_and(|t| t.cause == 2)));
    }

    #[test]
    fn coverage_accumulates_across_cases() {
        let mut ex = Executor::builder(CoreKind::Rocket).build();
        let a = ex.run_case(&[Instruction::NOP]);
        let b = ex.run_case(&[Instruction::r(Opcode::Div, Reg::X1, Reg::X2, Reg::X3)]);
        let mut cumulative = a.dut.coverage.clone();
        assert!(cumulative.would_grow(&b.dut.coverage));
        cumulative.union_with(&b.dut.coverage);
        assert!(cumulative.count() > a.dut.coverage.count());
    }

    #[test]
    fn run_dispatches_on_the_body_representation() {
        let mut ex = Executor::builder(CoreKind::Rocket).build();
        let inst = Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 9);
        let asm = ex.run(&TestBody::Asm(vec![inst]));
        let words = ex.run(&TestBody::Words(vec![inst.encode()]));
        assert_eq!(asm.grm_arch.x[10], 9);
        assert_eq!(asm.grm_arch, words.grm_arch);
        assert_eq!(asm.dut.coverage, words.dut.coverage);
    }

    #[test]
    fn cloned_executor_behaves_identically() {
        let mut a = Executor::builder(CoreKind::Rocket).max_steps(5_000).build();
        a.run_case(&[Instruction::r(Opcode::Div, Reg::X1, Reg::X2, Reg::X3)]);
        let mut b = a.clone();
        let body = TestBody::Asm(vec![Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 4)]);
        let ra = a.run(&body);
        let rb = b.run(&body);
        assert_eq!(ra.dut.coverage, rb.dut.coverage);
        assert_eq!(ra.dut.arch, rb.dut.arch);
        assert_eq!(ra.mismatches.len(), rb.mismatches.len());
    }

    #[test]
    fn case_timing_is_populated_and_finite() {
        let mut ex = Executor::builder(CoreKind::Rocket).build();
        let result = ex.run_case(&[Instruction::r(Opcode::Div, Reg::X1, Reg::X2, Reg::X3)]);
        let t = result.timing;
        for v in [t.dut_seconds, t.grm_seconds, t.difftest_seconds] {
            assert!(v.is_finite() && v >= 0.0, "{t:?}");
        }
        assert!(t.dut_seconds > 0.0, "the DUT phase cannot be free: {t:?}");
    }
}
