//! The fleet orchestrator: N member campaigns sharing one corpus, one
//! merged coverage view and one case budget.
//!
//! HFL's headline result is per-campaign sample efficiency; production
//! fuzzing runs *many* campaigns — different strategies, seeds and cores
//! — whose discoveries should compound instead of being recomputed. The
//! fleet layer turns the single-campaign runner into that multi-tenant
//! system:
//!
//! - [`run_fleet`] drives each [`FleetMember`] through **epochs**. Within
//!   an epoch every member runs its granted slice of the fleet's
//!   per-epoch case budget through the same round engine as
//!   [`crate::campaign::run_campaign`], so member accounting is identical
//!   to standalone-campaign accounting.
//! - Cases that grew a member's cumulative coverage are harvested into a
//!   shared [`GlobalCorpus`], deduplicated by coverage signature (full
//!   snapshot comparison on hash collision) and distilled to a minimal
//!   covering set between epochs — the INSTILLER-style pruning that keeps
//!   the store small and diverse.
//! - A budget scheduler reallocates the next epoch's cases toward members
//!   with the best marginal-coverage rate (largest-remainder
//!   apportionment over `rate + 1` weights with a per-member floor, so no
//!   member starves and every case is assigned).
//! - The merged coverage curve unions member bitmaps **per core** in
//!   member-index order — a commutative, associative bitmap union whose
//!   result depends only on the members' cumulative sets.
//!
//! All of this is one epoch engine, shared with
//! [`crate::fleet_dist::run_fleet_dist`]: the two entry points differ
//! only in the member runner that executes the slices (inline here, on
//! workers there).
//!
//! # Determinism contract
//!
//! Everything the fleet reports outside of wall-clock metrics is a
//! function of member indices and case counts, never of time or thread
//! interleaving: members run their epoch slices in member order against
//! per-member pools (which already guarantee thread-count-independent
//! results), corpus insertion happens in member order, distillation and
//! scheduling are deterministic algorithms with index tie-breaks. The
//! fleet's event stream ([`Event::EpochStart`], [`Event::MemberProgress`],
//! [`Event::CorpusSync`], [`Event::BudgetRealloc`], [`Event::EpochEnd`])
//! and merged curve are therefore bit-identical at any thread count.
//! Wall-clock lives only in the `fleet.sync.seconds`,
//! `fleet.distill.seconds` and `fleet.schedule.seconds` histograms.
//!
//! # Crash safety
//!
//! With a [`CheckpointPolicy`], the fleet writes one atomic snapshot
//! (`fleet.ckpt`, reusing the versioned checksummed container) covering
//! every member's campaign state and fuzzer, the shared corpus, the
//! merged curve, the budget vector and the metrics registry. Snapshots
//! land on epoch boundaries only; resuming via
//! [`FleetSpecBuilder::resume_from`] reproduces the uninterrupted fleet
//! bit for bit.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hfl_dut::{CoreKind, CoverageKind, CoverageMap, CoverageSnapshot};
use hfl_nn::persist::{
    corrupt, read_string, read_u32, read_u64, read_usize, write_string, write_u32, write_u64,
    write_usize, Codec, SnapshotReader, SnapshotWriter,
};
use hfl_nn::PersistError;

use crate::baselines::Fuzzer;
use crate::campaign::{
    core_index, read_metrics, run_round, write_metrics, CampaignConfig, CampaignState,
    CheckpointPolicy, CoverageSample, HarvestedCase, RunConfig, RunError, SpecError,
};
use crate::control::StopHandle;
use crate::corpus::GlobalCorpus;
use crate::difftest::Signature;
use crate::exec::ExecPool;
use crate::harness::Executor;
use crate::obs::{Event, Metrics, MetricsSnapshot, SinkHandle};

const FLEET_CHECKPOINT_KIND: &str = "fleet";
/// Default bound on the shared corpus.
const DEFAULT_CORPUS_CAPACITY: usize = 256;

/// Budget and batching parameters of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of epochs to run.
    pub epochs: u64,
    /// Total cases the scheduler apportions across members each epoch.
    pub cases_per_epoch: u64,
    /// Shared execution parameters, applied to every member's round
    /// engine (see [`RunConfig`]).
    pub run: RunConfig,
}

impl FleetConfig {
    /// A quick fleet (tests and default bench settings).
    #[must_use]
    pub fn quick(epochs: u64, cases_per_epoch: u64) -> FleetConfig {
        FleetConfig {
            epochs,
            cases_per_epoch,
            run: RunConfig::quick(),
        }
    }

    /// Sets the per-round batch size (builder style).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> FleetConfig {
        self.run = self.run.with_batch(batch);
        self
    }
}

/// One member campaign of a fleet: a display name, the core it fuzzes
/// and its fuzzing strategy.
pub struct FleetMember {
    name: String,
    core: CoreKind,
    fuzzer: Box<dyn Fuzzer>,
}

impl FleetMember {
    /// Wraps a fuzzer as a fleet member. Names identify harvested corpus
    /// entries (`"<name>-case-<index>"`) and should be unique within the
    /// fleet.
    #[must_use]
    pub fn new(name: impl Into<String>, core: CoreKind, fuzzer: Box<dyn Fuzzer>) -> FleetMember {
        FleetMember {
            name: name.into(),
            core,
            fuzzer,
        }
    }

    /// The member's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The core this member fuzzes.
    #[must_use]
    pub fn core(&self) -> CoreKind {
        self.core
    }

    /// The member's fuzzer.
    #[must_use]
    pub fn fuzzer(&self) -> &dyn Fuzzer {
        self.fuzzer.as_ref()
    }
}

impl fmt::Debug for FleetMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetMember")
            .field("name", &self.name)
            .field("core", &self.core)
            .field("fuzzer", &self.fuzzer.name())
            .finish()
    }
}

/// Everything that defines one fleet run except the members themselves
/// (members carry non-cloneable fuzzer state and are passed to
/// [`run_fleet`] directly). Built and validated by [`FleetSpec::builder`].
///
/// # Examples
///
/// ```
/// use hfl::fleet::{FleetConfig, FleetSpec};
///
/// let spec = FleetSpec::builder(FleetConfig::quick(3, 30))
///     .corpus_capacity(64)
///     .build()
///     .expect("a valid spec");
/// assert_eq!(spec.config().epochs, 3);
/// ```
#[derive(Debug, Clone)]
pub struct FleetSpec {
    config: FleetConfig,
    sink: SinkHandle,
    checkpoint: Option<CheckpointPolicy>,
    resume_from: Option<PathBuf>,
    corpus_capacity: usize,
    control: Option<StopHandle>,
}

impl FleetSpec {
    /// Starts building a spec for one fleet budget.
    #[must_use]
    pub fn builder(config: FleetConfig) -> FleetSpecBuilder {
        FleetSpecBuilder {
            config,
            sink: SinkHandle::null(),
            checkpoint: None,
            resume_from: None,
            corpus_capacity: DEFAULT_CORPUS_CAPACITY,
            control: None,
        }
    }

    /// Budget and batching parameters.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Worker threads in each member's execution pool.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.config.run.threads
    }

    /// The telemetry sink handle (receives fleet-level events only).
    #[must_use]
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// The checkpoint policy, if checkpointing is enabled
    /// (`every_rounds` counts epochs here).
    #[must_use]
    pub fn checkpoint(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }

    /// The snapshot this fleet resumes from, if any.
    #[must_use]
    pub fn resume_from(&self) -> Option<&Path> {
        self.resume_from.as_deref()
    }

    /// Capacity bound of the shared corpus.
    #[must_use]
    pub fn corpus_capacity(&self) -> usize {
        self.corpus_capacity
    }

    /// The control handle attached to this spec, if any.
    #[must_use]
    pub fn control(&self) -> Option<&StopHandle> {
        self.control.as_ref()
    }

    /// Whether a graceful stop was requested through the spec's control
    /// handle. Checked at epoch boundaries: the fleet finishes the
    /// current epoch, checkpoints (if enabled) and returns with
    /// `completed = false`.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.control
            .as_ref()
            .is_some_and(StopHandle::stop_requested)
    }

    /// Claims a pending checkpoint-now request from the control handle
    /// (the runner calls this once per epoch boundary).
    pub(crate) fn take_checkpoint_request(&self) -> bool {
        self.control
            .as_ref()
            .is_some_and(StopHandle::take_checkpoint_request)
    }
}

/// Builds a validated [`FleetSpec`].
#[derive(Debug, Clone)]
pub struct FleetSpecBuilder {
    config: FleetConfig,
    sink: SinkHandle,
    checkpoint: Option<CheckpointPolicy>,
    resume_from: Option<PathBuf>,
    corpus_capacity: usize,
    control: Option<StopHandle>,
}

impl FleetSpecBuilder {
    /// Sets each member pool's worker-thread count (must be at least 1;
    /// affects wall-clock only, never results). Shorthand for setting
    /// [`RunConfig::threads`] on the config.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> FleetSpecBuilder {
        self.config.run.threads = threads;
        self
    }

    /// Attaches a telemetry sink for the fleet-level event stream.
    #[must_use]
    pub fn sink(mut self, sink: SinkHandle) -> FleetSpecBuilder {
        self.sink = sink;
        self
    }

    /// Enables periodic checkpointing; the policy's `every_rounds`
    /// counts **epochs** for a fleet, and the snapshot file is
    /// `fleet.ckpt` inside the policy's directory.
    #[must_use]
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> FleetSpecBuilder {
        self.checkpoint = Some(policy);
        self
    }

    /// Resumes the fleet from a snapshot written by a previous run of the
    /// **same** spec and member line-up (thread count may differ — it
    /// never affects results).
    #[must_use]
    pub fn resume_from(mut self, snapshot: impl Into<PathBuf>) -> FleetSpecBuilder {
        self.resume_from = Some(snapshot.into());
        self
    }

    /// Bounds the shared corpus (entries beyond this are evicted
    /// smallest-coverage-first).
    #[must_use]
    pub fn corpus_capacity(mut self, capacity: usize) -> FleetSpecBuilder {
        self.corpus_capacity = capacity;
        self
    }

    /// Installs a control handle: requesting a stop on it makes the
    /// fleet finish its current epoch, checkpoint and return; requesting
    /// a checkpoint snapshots at the next epoch boundary.
    #[must_use]
    pub fn control(mut self, control: StopHandle) -> FleetSpecBuilder {
        self.control = Some(control);
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    /// Returns the first [`SpecError`] among: zero epochs, zero per-epoch
    /// budget, zero step budget, zero batch, zero threads, zero corpus
    /// capacity, or a checkpoint interval of zero epochs.
    pub fn build(self) -> Result<FleetSpec, SpecError> {
        if self.config.epochs == 0 {
            return Err(SpecError::ZeroEpochs);
        }
        if self.config.cases_per_epoch == 0 {
            return Err(SpecError::ZeroCasesPerEpoch);
        }
        self.config.run.validate()?;
        if self.corpus_capacity == 0 {
            return Err(SpecError::ZeroCorpusCapacity);
        }
        if let Some(checkpoint) = &self.checkpoint {
            if checkpoint.every_rounds() == 0 {
                return Err(SpecError::ZeroCheckpointInterval);
            }
        }
        Ok(FleetSpec {
            config: self.config,
            sink: self.sink,
            checkpoint: self.checkpoint,
            resume_from: self.resume_from,
            corpus_capacity: self.corpus_capacity,
            control: self.control,
        })
    }
}

/// One sample of the fleet's merged coverage curve (one per epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSample {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Total cases executed fleet-wide through this epoch.
    pub cases: u64,
    /// Merged condition-coverage points (per-core union, summed over
    /// cores).
    pub condition: usize,
    /// Merged line-coverage points.
    pub line: usize,
    /// Merged FSM-coverage points.
    pub fsm: usize,
    /// Unique mismatch signatures across all members.
    pub unique_signatures: usize,
}

/// One member's final accounting, identical in meaning to the matching
/// `CampaignResult` fields.
#[derive(Debug, Clone)]
pub struct MemberResult {
    /// The member's display name.
    pub name: String,
    /// The member's fuzzer name.
    pub fuzzer: String,
    /// The core the member fuzzed.
    pub core: CoreKind,
    /// Cases the member executed.
    pub cases: u64,
    /// The member's coverage curve (one sample per epoch).
    pub curve: Vec<CoverageSample>,
    /// The member's cumulative coverage at the end of the run.
    pub cumulative: CoverageSnapshot,
    /// Unique mismatch signatures the member found.
    pub unique_signatures: usize,
    /// The deduped signatures, sorted.
    pub signatures: Vec<Signature>,
    /// First member-local case index at which each signature appeared.
    pub first_detection: Vec<(Signature, u64)>,
    /// Instructions the member's DUT retired.
    pub instructions_executed: u64,
    /// Cases abandoned by fault containment.
    pub aborted_cases: u64,
}

/// The outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-member accounting, in member order.
    pub members: Vec<MemberResult>,
    /// The merged coverage curve (one sample per completed epoch).
    pub merged_curve: Vec<FleetSample>,
    /// The shared corpus as distilled at the last epoch boundary.
    pub corpus: GlobalCorpus,
    /// The budget vector the scheduler would apply to the next epoch.
    pub budgets: Vec<u64>,
    /// Counter/histogram snapshot (includes `fleet.sync.seconds`,
    /// `fleet.distill.seconds`, `fleet.schedule.seconds`). Never part of
    /// determinism comparisons.
    pub metrics: MetricsSnapshot,
    /// Whether the full epoch budget ran (false when a stop flag ended
    /// the fleet early; the final checkpoint then allows resuming).
    pub completed: bool,
    /// The telemetry sink's sticky I/O error, if it hit one.
    pub sink_error: Option<String>,
}

impl FleetResult {
    /// Final merged counts per metric `(condition, line, fsm)`.
    #[must_use]
    pub fn final_counts(&self) -> (usize, usize, usize) {
        self.merged_curve
            .last()
            .map_or((0, 0, 0), |s| (s.condition, s.line, s.fsm))
    }
}

/// Largest-remainder apportionment of `total` cases over members
/// weighted by `rate + 1` (the `+ 1` keeps zero-rate members schedulable
/// and makes the uniform-rate case an even split). Every member first
/// receives a floor of `(total / (4 n)).max(1)` cases so exploration
/// never starves; the remainder is split proportionally, ties broken
/// toward the lowest member index. The result always sums to `total`.
#[must_use]
pub(crate) fn reallocate(total: u64, rates_milli: &[u64]) -> Vec<u64> {
    let n = rates_milli.len() as u64;
    debug_assert!(n > 0 && total >= n, "validated by FleetEngine::start");
    let min_each = (total / (4 * n)).max(1);
    let pool = total - min_each * n;
    let weights: Vec<u128> = rates_milli.iter().map(|&r| u128::from(r) + 1).collect();
    let weight_sum: u128 = weights.iter().sum();
    let mut budgets: Vec<u64> = weights
        .iter()
        .map(|w| min_each + (u128::from(pool) * w / weight_sum) as u64)
        .collect();
    let assigned: u64 = budgets.iter().sum::<u64>() - min_each * n;
    let leftover = (pool - assigned) as usize;
    let mut order: Vec<usize> = (0..rates_milli.len()).collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(u128::from(pool) * weights[i] % weight_sum),
            i,
        )
    });
    for &i in order.iter().take(leftover) {
        budgets[i] += 1;
    }
    budgets
}

/// A fleet member's identity as the checkpoint (and the wire protocol)
/// sees it: core, display name and fuzzer name. The in-process fleet
/// derives these from live [`FleetMember`]s, the distributed
/// coordinator from `MemberSpec`s — both describe the same line-up, so
/// their checkpoints are interchangeable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MemberIdent {
    pub(crate) core: CoreKind,
    pub(crate) name: String,
    pub(crate) fuzzer: String,
}

/// One member's contribution to an epoch close.
pub(crate) struct MemberReport {
    /// Cases granted to the reported slice (the denominator of the
    /// member's marginal rate).
    pub(crate) granted: u64,
    /// The member's cumulative coverage count when that slice began.
    pub(crate) covered_before: usize,
    /// The slice's coverage-gaining cases, bound for the shared corpus.
    pub(crate) harvest: Vec<HarvestedCase>,
}

/// Where a fleet's member slices run: inline ([`run_fleet`]) or on
/// workers (`crate::fleet_dist`'s coordinator). A runner decides only
/// where slices execute and which members report at each close;
/// everything the fleet reports is decided by the [`FleetEngine`].
pub(crate) trait MemberRunner {
    /// The coverage map member `index`'s counts are taken against.
    fn coverage_map(&self, index: usize) -> &CoverageMap;

    /// Runs epoch `epoch` with `budgets[i]` cases granted to member `i`
    /// and returns, in member order, each member's report for this
    /// close (`None` for a member that does not report). The states of
    /// reporting members come back advanced. An error ends the fleet
    /// without closing the epoch.
    fn run_epoch(
        &mut self,
        epoch: u64,
        budgets: &[u64],
        states: &mut [CampaignState],
        metrics: &mut Metrics,
    ) -> Result<Vec<Option<MemberReport>>, RunError>;

    /// Every member's `Fuzzer::save_state` bytes, for a snapshot.
    fn fuzzer_blobs(&self) -> Result<Cow<'_, [Vec<u8>]>, RunError>;

    /// Installs the fuzzer states read from a resume snapshot.
    fn load_fuzzers(&mut self, blobs: Vec<Vec<u8>>) -> Result<(), RunError>;
}

/// Runs one member's epoch slice of `budget` cases through the shared
/// round engine and returns the cases that grew its coverage. The slice
/// is a one-off campaign whose `cases` and `sample_every` both equal the
/// member's cumulative target, so the round engine stops exactly at the
/// epoch boundary and samples the member's curve exactly once there.
/// The in-process runner and `crate::fleet_dist::run_worker` both call
/// this, so their slices are the same computation.
pub(crate) fn run_member_slice(
    fuzzer: &mut dyn Fuzzer,
    pool: &mut ExecPool,
    run: RunConfig,
    budget: u64,
    metrics: &mut Metrics,
    state: &mut CampaignState,
) -> Result<Vec<HarvestedCase>, RunError> {
    let target = state.executed + budget;
    let slice = CampaignConfig {
        cases: target,
        sample_every: target,
        run,
    };
    // Member fuzzers run silent: the fleet log holds fleet events only.
    let silent = SinkHandle::null();
    let mut harvest = Vec::new();
    while state.executed < target {
        run_round(
            fuzzer,
            pool,
            &slice,
            run.threads,
            &silent,
            metrics,
            state,
            Some(&mut harvest),
        )?;
    }
    Ok(harvest)
}

/// The in-process runner: the live members, one [`ExecPool`] each,
/// slices run inline in member order.
struct LocalRunner<'m> {
    members: &'m mut [FleetMember],
    pools: Vec<ExecPool>,
    run: RunConfig,
}

impl MemberRunner for LocalRunner<'_> {
    fn coverage_map(&self, index: usize) -> &CoverageMap {
        self.pools[index].coverage_map()
    }

    fn run_epoch(
        &mut self,
        _epoch: u64,
        budgets: &[u64],
        states: &mut [CampaignState],
        metrics: &mut Metrics,
    ) -> Result<Vec<Option<MemberReport>>, RunError> {
        let slices = self.members.iter_mut().zip(&mut self.pools);
        let mut reports = Vec::with_capacity(budgets.len());
        for ((member, pool), (state, &budget)) in slices.zip(states.iter_mut().zip(budgets)) {
            let covered_before = state.cumulative.count();
            let harvest = run_member_slice(
                member.fuzzer.as_mut(),
                pool,
                self.run,
                budget,
                metrics,
                state,
            )?;
            reports.push(Some(MemberReport {
                granted: budget,
                covered_before,
                harvest,
            }));
        }
        Ok(reports)
    }

    fn fuzzer_blobs(&self) -> Result<Cow<'_, [Vec<u8>]>, RunError> {
        self.members
            .iter()
            .map(|member| {
                let mut blob = Vec::new();
                member.fuzzer.save_state(&mut blob)?;
                Ok(blob)
            })
            .collect::<Result<_, RunError>>()
            .map(Cow::Owned)
    }

    fn load_fuzzers(&mut self, blobs: Vec<Vec<u8>>) -> Result<(), RunError> {
        for (member, blob) in self.members.iter_mut().zip(&blobs) {
            member.fuzzer.load_state(&mut blob.as_slice())?;
        }
        Ok(())
    }
}

/// The fleet's one epoch engine, behind both [`run_fleet`] and
/// `crate::fleet_dist::run_fleet_dist`. It owns the member states, the
/// shared corpus, the budgets, the merged curve, the epoch counter and
/// the metrics; it folds every close's reports in member-index order,
/// emits every fleet event and writes every snapshot. A
/// [`MemberRunner`] only runs the slices.
pub(crate) struct FleetEngine<'s> {
    spec: &'s FleetSpec,
    idents: Vec<MemberIdent>,
    states: Vec<CampaignState>,
    corpus: GlobalCorpus,
    budgets: Vec<u64>,
    merged_curve: Vec<FleetSample>,
    epoch: u64,
    metrics: Metrics,
}

impl<'s> FleetEngine<'s> {
    /// Validates the line-up against the budget, then starts fresh or
    /// resumes from the spec's snapshot (handing the snapshot's fuzzer
    /// states to `runner`).
    pub(crate) fn start(
        spec: &'s FleetSpec,
        idents: Vec<MemberIdent>,
        runner: &mut dyn MemberRunner,
    ) -> Result<FleetEngine<'s>, RunError> {
        let cfg = spec.config();
        if idents.is_empty() {
            return Err(RunError::NoMembers);
        }
        if cfg.cases_per_epoch < idents.len() as u64 {
            return Err(RunError::BudgetTooSmall {
                members: idents.len(),
                cases_per_epoch: cfg.cases_per_epoch,
            });
        }
        let mut engine = FleetEngine {
            spec,
            states: (0..idents.len())
                .map(|index| CampaignState::fresh(runner.coverage_map(index).len()))
                .collect(),
            corpus: GlobalCorpus::new(spec.corpus_capacity()),
            // The first epoch has no rates to differentiate: every
            // member gets the even largest-remainder split.
            budgets: reallocate(cfg.cases_per_epoch, &vec![0; idents.len()]),
            merged_curve: Vec::new(),
            epoch: 0,
            metrics: Metrics::new(),
            idents,
        };
        if let Some(snapshot) = spec.resume_from() {
            let fuzzer_blobs = engine.restore(snapshot)?;
            runner.load_fuzzers(fuzzer_blobs)?;
        }
        Ok(engine)
    }

    /// Runs epochs until the budget is spent or a stop is requested,
    /// writing the periodic and operator-requested snapshots.
    pub(crate) fn run_epochs(&mut self, runner: &mut dyn MemberRunner) -> Result<(), RunError> {
        let spec = self.spec;
        let sink = spec.sink();
        let epochs = spec.config().epochs;
        while self.epoch < epochs && !spec.stop_requested() {
            if sink.enabled() {
                sink.emit(&Event::EpochStart {
                    epoch: self.epoch,
                    members: self.idents.len() as u64,
                    planned: self.budgets.iter().sum(),
                });
            }
            let reports = runner.run_epoch(
                self.epoch,
                &self.budgets,
                &mut self.states,
                &mut self.metrics,
            )?;
            self.close_epoch(runner, reports);
            // Periodic (and operator-requested) checkpoints land on epoch
            // boundaries, where every member sits at a round boundary with
            // empty pending queues. The checkpoint-now request is claimed
            // even without a policy so a stale request cannot linger.
            let requested = spec.take_checkpoint_request();
            if let Some(policy) = spec.checkpoint() {
                let periodic = self.epoch.is_multiple_of(policy.every_rounds());
                if (periodic || requested) && self.epoch < epochs {
                    self.write_checkpoint(policy, runner)?;
                }
            }
        }
        Ok(())
    }

    /// Closes the current epoch: folds `reports` in member-index order
    /// (never arrival order) into the corpus and the marginal rates,
    /// distills the corpus, reallocates the budgets and appends the
    /// merged sample. A member without a report scores a zero rate —
    /// the scheduler's floor still grants it cases — and gets no
    /// `member_progress` event.
    fn close_epoch(&mut self, runner: &dyn MemberRunner, reports: Vec<Option<MemberReport>>) {
        let spec = self.spec;
        let sink = spec.sink();
        let epoch = self.epoch;
        let stats_before = self.corpus.stats();
        let mut rates = vec![0u64; self.idents.len()];
        let mut sync_seconds = 0.0f64;
        for (index, report) in reports.into_iter().enumerate() {
            let Some(report) = report else {
                continue;
            };
            let sync_started = Instant::now();
            let name = &self.idents[index].name;
            for case in report.harvest {
                self.corpus.insert(
                    format!("{name}-case-{}", case.case),
                    case.body,
                    case.coverage,
                );
            }
            sync_seconds += sync_started.elapsed().as_secs_f64();
            let state = &self.states[index];
            let gained = (state.cumulative.count() - report.covered_before) as u64;
            rates[index] = gained * 1000 / report.granted.max(1);
            self.metrics.inc("fleet.cases", report.granted);
            if sink.enabled() {
                let map = runner.coverage_map(index);
                sink.emit(&Event::MemberProgress {
                    epoch,
                    member: index as u64,
                    executed: state.executed,
                    condition: state.cumulative.count_of(map, CoverageKind::Condition) as u64,
                    line: state.cumulative.count_of(map, CoverageKind::Line) as u64,
                    fsm: state.cumulative.count_of(map, CoverageKind::Fsm) as u64,
                    unique_signatures: state.signatures.unique() as u64,
                });
            }
        }
        self.metrics.observe("fleet.sync.seconds", sync_seconds);

        let distill_started = Instant::now();
        let (distilled_from, distilled_to) = self.corpus.distill();
        self.metrics
            .observe_duration("fleet.distill.seconds", distill_started.elapsed());
        let stats_after = self.corpus.stats();
        if sink.enabled() {
            sink.emit(&Event::CorpusSync {
                epoch,
                inserted: stats_after.inserted - stats_before.inserted,
                duplicates: stats_after.duplicates - stats_before.duplicates,
                evicted: stats_after.evicted - stats_before.evicted,
                distilled_from: distilled_from as u64,
                distilled_to: distilled_to as u64,
            });
        }

        let schedule_started = Instant::now();
        self.budgets = reallocate(spec.config().cases_per_epoch, &rates);
        self.metrics
            .observe_duration("fleet.schedule.seconds", schedule_started.elapsed());
        if sink.enabled() {
            for (index, (&cases, &rate_milli)) in self.budgets.iter().zip(&rates).enumerate() {
                sink.emit(&Event::BudgetRealloc {
                    epoch,
                    member: index as u64,
                    cases,
                    rate_milli,
                });
            }
        }

        let sample = self.merged_sample(runner);
        self.merged_curve.push(sample);
        if sink.enabled() {
            sink.emit(&Event::EpochEnd {
                epoch,
                executed: sample.cases,
                condition: sample.condition as u64,
                line: sample.line as u64,
                fsm: sample.fsm as u64,
                unique_signatures: sample.unique_signatures as u64,
            });
        }
        self.metrics.inc("fleet.epochs", 1);
        self.epoch += 1;
    }

    /// The merged coverage sample of the current epoch: member
    /// cumulative bitmaps are unioned per core in member-index order
    /// (union is commutative and associative, so the grouping is only an
    /// implementation convenience), counted against the first map of
    /// each core, and signatures are deduplicated across all members.
    fn merged_sample(&self, runner: &dyn MemberRunner) -> FleetSample {
        let mut groups: Vec<(CoreKind, usize, CoverageSnapshot)> = Vec::new();
        for (index, (ident, state)) in self.idents.iter().zip(&self.states).enumerate() {
            match groups.iter_mut().find(|(core, _, _)| *core == ident.core) {
                Some((_, _, union)) => union.union_with(&state.cumulative),
                None => groups.push((ident.core, index, state.cumulative.clone())),
            }
        }
        let (mut condition, mut line, mut fsm) = (0usize, 0usize, 0usize);
        for (_, map_index, union) in &groups {
            let map = runner.coverage_map(*map_index);
            condition += union.count_of(map, CoverageKind::Condition);
            line += union.count_of(map, CoverageKind::Line);
            fsm += union.count_of(map, CoverageKind::Fsm);
        }
        let mut signatures: BTreeSet<Signature> = BTreeSet::new();
        for state in &self.states {
            signatures.extend(state.signatures.sorted_signatures());
        }
        FleetSample {
            epoch: self.epoch,
            cases: self.states.iter().map(|s| s.executed).sum(),
            condition,
            line,
            fsm,
            unique_signatures: signatures.len(),
        }
    }

    /// Writes one atomic fleet snapshot (see `DESIGN.md` for the
    /// layout). Fuzzers go in as the runner's serialised blobs — the
    /// form the distributed coordinator holds them in — so in-process
    /// and distributed snapshots of one fleet state are byte-identical.
    fn write_checkpoint(
        &self,
        policy: &CheckpointPolicy,
        runner: &dyn MemberRunner,
    ) -> Result<(), RunError> {
        let fuzzer_blobs = runner.fuzzer_blobs()?;
        std::fs::create_dir_all(policy.dir()).map_err(PersistError::Io)?;
        let spec = self.spec;
        let cfg = spec.config();
        let mut snap = SnapshotWriter::new(FLEET_CHECKPOINT_KIND);
        snap.section("spec", |w| {
            write_u64(w, cfg.epochs)?;
            write_u64(w, cfg.cases_per_epoch)?;
            write_u64(w, cfg.run.max_steps)?;
            write_u64(w, cfg.run.batch as u64)?;
            write_usize(w, spec.corpus_capacity())?;
            write_usize(w, self.idents.len())?;
            for ident in &self.idents {
                write_u32(w, core_index(ident.core))?;
                write_string(w, &ident.name)?;
                write_string(w, &ident.fuzzer)?;
            }
            Ok(())
        })?;
        snap.section("progress", |w| {
            write_u64(w, self.epoch)?;
            write_usize(w, self.budgets.len())?;
            for budget in &self.budgets {
                write_u64(w, *budget)?;
            }
            Ok(())
        })?;
        snap.section("corpus", |w| self.corpus.save(w))?;
        snap.section("merged", |w| {
            write_usize(w, self.merged_curve.len())?;
            for sample in &self.merged_curve {
                write_u64(w, sample.epoch)?;
                write_u64(w, sample.cases)?;
                write_u64(w, sample.condition as u64)?;
                write_u64(w, sample.line as u64)?;
                write_u64(w, sample.fsm as u64)?;
                write_u64(w, sample.unique_signatures as u64)?;
            }
            Ok(())
        })?;
        for (index, (state, blob)) in self.states.iter().zip(fuzzer_blobs.iter()).enumerate() {
            snap.section(&format!("member{index}"), |w| {
                state.save(w)?;
                w.extend_from_slice(blob);
                Ok(())
            })?;
        }
        snap.section("metrics", |w| write_metrics(w, &self.metrics.snapshot()))?;
        snap.write_atomic(&policy.fleet_snapshot_path())?;
        Ok(())
    }

    /// Writes the final (or graceful-shutdown) snapshot when the spec
    /// enables checkpointing.
    pub(crate) fn write_final_checkpoint(&self, runner: &dyn MemberRunner) -> Result<(), RunError> {
        match self.spec.checkpoint() {
            Some(policy) => self.write_checkpoint(policy, runner),
            None => Ok(()),
        }
    }

    /// Restores the engine from a fleet snapshot after validating it
    /// against the spec and the member line-up. Returns the members'
    /// fuzzer states, still serialised (the distributed coordinator
    /// ships them to workers as-is).
    fn restore(&mut self, path: &Path) -> Result<Vec<Vec<u8>>, RunError> {
        let snap = SnapshotReader::read_path(path)?;
        snap.expect_kind(FLEET_CHECKPOINT_KIND)?;
        let cfg = self.spec.config();

        let mut r = snap.section("spec")?;
        if read_u64(&mut r)? != cfg.epochs
            || read_u64(&mut r)? != cfg.cases_per_epoch
            || read_u64(&mut r)? != cfg.run.max_steps
            || read_u64(&mut r)? != cfg.run.batch as u64
            || read_usize(&mut r, 1 << 24, "corpus capacity")? != self.spec.corpus_capacity()
            || read_usize(&mut r, 1 << 16, "member count")? != self.idents.len()
        {
            return Err(corrupt("checkpoint was taken under a different fleet spec").into());
        }
        for ident in &self.idents {
            if read_u32(&mut r)? != core_index(ident.core)
                || read_string(&mut r)? != ident.name
                || read_string(&mut r)? != ident.fuzzer
            {
                return Err(corrupt(format!(
                    "checkpoint member line-up does not include {:?} ({})",
                    ident.name, ident.fuzzer
                ))
                .into());
            }
        }

        let mut r = snap.section("progress")?;
        self.epoch = read_u64(&mut r)?;
        let n = read_usize(&mut r, 1 << 16, "budget count")?;
        if n != self.idents.len() {
            return Err(corrupt("checkpoint budget vector does not match the members").into());
        }
        self.budgets = (0..n)
            .map(|_| read_u64(&mut r))
            .collect::<Result<_, PersistError>>()?;

        let mut r = snap.section("corpus")?;
        self.corpus = GlobalCorpus::load(&mut r)?;

        let mut r = snap.section("merged")?;
        let samples = read_usize(&mut r, 1 << 24, "merged curve length")?;
        self.merged_curve = (0..samples)
            .map(|_| {
                Ok(FleetSample {
                    epoch: read_u64(&mut r)?,
                    cases: read_u64(&mut r)?,
                    condition: read_u64(&mut r)? as usize,
                    line: read_u64(&mut r)? as usize,
                    fsm: read_u64(&mut r)? as usize,
                    unique_signatures: read_u64(&mut r)? as usize,
                })
            })
            .collect::<Result<_, PersistError>>()?;

        let mut fuzzer_blobs = Vec::with_capacity(self.states.len());
        for (index, state) in self.states.iter_mut().enumerate() {
            let mut r = snap.section(&format!("member{index}"))?;
            *state = CampaignState::load(&mut r, state.cumulative.len())?;
            // The rest of the section is the fuzzer's own state, kept
            // serialised until someone needs the live fuzzer.
            fuzzer_blobs.push(r.to_vec());
        }

        let mut r = snap.section("metrics")?;
        self.metrics = read_metrics(&mut r)?;
        Ok(fuzzer_blobs)
    }

    /// Flushes the sink and builds the run's [`FleetResult`].
    pub(crate) fn into_result(self) -> FleetResult {
        let sink = self.spec.sink();
        sink.flush();
        let sink_error = sink.take_error().map(|e| e.to_string());
        let members = self
            .idents
            .into_iter()
            .zip(self.states)
            .map(|(ident, state)| MemberResult {
                name: ident.name,
                fuzzer: ident.fuzzer,
                core: ident.core,
                cases: state.executed,
                unique_signatures: state.signatures.unique(),
                signatures: state.signatures.sorted_signatures(),
                curve: state.curve,
                cumulative: state.cumulative,
                first_detection: state.first_detection,
                instructions_executed: state.instructions_executed,
                aborted_cases: state.aborted_cases,
            })
            .collect();
        FleetResult {
            members,
            merged_curve: self.merged_curve,
            corpus: self.corpus,
            budgets: self.budgets,
            metrics: self.metrics.snapshot(),
            completed: self.epoch >= self.spec.config().epochs,
            sink_error,
        }
    }
}

/// Runs one fleet: every member campaign advances through shared epochs
/// with corpus sync, deterministic coverage merging and marginal-rate
/// budget scheduling (see the module docs).
///
/// # Errors
/// Returns [`RunError`] when the member slice is empty, the per-epoch
/// budget cannot cover the members, a checkpoint cannot be written, or a
/// resume snapshot is corrupt or does not match the spec/members. The
/// fuzzing loop itself never errors: faulty cases are contained per
/// member exactly as in a standalone campaign.
pub fn run_fleet(members: &mut [FleetMember], spec: &FleetSpec) -> Result<FleetResult, RunError> {
    let idents = members
        .iter()
        .map(|member| MemberIdent {
            core: member.core,
            name: member.name.clone(),
            fuzzer: member.fuzzer.name().to_owned(),
        })
        .collect();
    let run = spec.config().run;
    let pools = members
        .iter()
        .map(|member| {
            let executor = Executor::builder(member.core)
                .max_steps(run.max_steps)
                .build();
            ExecPool::new(executor, run.threads)
        })
        .collect();
    let mut runner = LocalRunner {
        members,
        pools,
        run,
    };
    let mut engine = FleetEngine::start(spec, idents, &mut runner)?;
    engine.run_epochs(&mut runner)?;
    engine.write_final_checkpoint(&runner)?;
    Ok(engine.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::DifuzzRtlFuzzer;

    #[test]
    fn reallocate_assigns_the_whole_budget_deterministically() {
        for (total, rates) in [
            (30u64, vec![0u64, 0, 0]),
            (30, vec![1000, 0, 0]),
            (31, vec![7, 7, 7]),
            (100, vec![0, 1, 2, 3, 4]),
            (5, vec![9999, 0, 0, 0, 1]),
        ] {
            let budgets = reallocate(total, &rates);
            assert_eq!(budgets.len(), rates.len());
            assert_eq!(budgets.iter().sum::<u64>(), total, "{rates:?}");
            assert!(budgets.iter().all(|&b| b >= 1), "{budgets:?}");
            assert_eq!(budgets, reallocate(total, &rates), "must be a pure fn");
        }
    }

    #[test]
    fn reallocate_favours_higher_rates_and_floors_the_rest() {
        let budgets = reallocate(40, &[3000, 1000, 0, 0]);
        assert!(budgets[0] > budgets[1], "{budgets:?}");
        assert!(budgets[1] > budgets[2], "{budgets:?}");
        // Floor: total/(4·n) = 2 cases each minimum.
        assert!(budgets[2] >= 2 && budgets[3] >= 2, "{budgets:?}");
        // Equal rates tie toward the lowest index on odd remainders.
        let even = reallocate(31, &[5, 5, 5]);
        assert_eq!(even, vec![11, 10, 10]);
    }

    #[test]
    fn a_zero_rate_member_keeps_its_floor_forever() {
        // A member that finds nothing for many consecutive epochs must
        // still receive the per-member floor every epoch — the budget
        // accounting can slow a cold member down but never starve it,
        // because a zero next-epoch budget would divide by zero in the
        // rate computation and permanently freeze the member's rate.
        let total = 40u64;
        let floor = (total / (4 * 4)).max(1);
        let mut rates = vec![0u64, 0, 0, 0];
        for _ in 0..50 {
            let budgets = reallocate(total, &rates);
            assert!(budgets[3] >= floor, "{budgets:?}");
            assert_eq!(budgets.iter().sum::<u64>(), total);
            // Members 0–2 keep producing, member 3 never does: feed the
            // resulting rates back like the fleet engine would.
            rates = vec![
                5000 * 1000 / budgets[0],
                3000 * 1000 / budgets[1],
                1000 * 1000 / budgets[2],
                0,
            ];
        }
    }

    #[test]
    fn the_floor_holds_even_when_budget_barely_covers_members() {
        // total == members: everyone gets exactly 1 (the .max(1) floor),
        // leaving no pool to apportion.
        assert_eq!(reallocate(3, &[0, 9999, 0]), vec![1, 1, 1]);
        // One member: the whole budget, whatever the rate.
        assert_eq!(reallocate(17, &[0]), vec![17]);
    }

    #[test]
    fn fleet_spec_builder_validates() {
        let ok = FleetConfig::quick(2, 10);
        assert!(FleetSpec::builder(ok).build().is_ok());
        let check =
            |config: FleetConfig, expected: SpecError| match FleetSpec::builder(config).build() {
                Err(err) => assert_eq!(err.to_string(), expected.to_string()),
                Ok(_) => panic!("expected {expected}"),
            };
        check(FleetConfig { epochs: 0, ..ok }, SpecError::ZeroEpochs);
        check(
            FleetConfig {
                cases_per_epoch: 0,
                ..ok
            },
            SpecError::ZeroCasesPerEpoch,
        );
        check(
            FleetConfig {
                run: ok.run.with_max_steps(0),
                ..ok
            },
            SpecError::ZeroMaxSteps,
        );
        check(
            FleetConfig {
                run: RunConfig { batch: 0, ..ok.run },
                ..ok
            },
            SpecError::ZeroBatch,
        );
        assert!(matches!(
            FleetSpec::builder(ok).threads(0).build(),
            Err(SpecError::ZeroThreads)
        ));
        assert!(matches!(
            FleetSpec::builder(ok).corpus_capacity(0).build(),
            Err(SpecError::ZeroCorpusCapacity)
        ));
        assert!(matches!(
            FleetSpec::builder(ok)
                .checkpoint(CheckpointPolicy::new("/tmp/unused", 0))
                .build(),
            Err(SpecError::ZeroCheckpointInterval)
        ));
    }

    #[test]
    fn run_fleet_rejects_empty_and_starved_fleets() {
        let spec = FleetSpec::builder(FleetConfig::quick(1, 10))
            .build()
            .unwrap();
        assert!(matches!(
            run_fleet(&mut [], &spec),
            Err(RunError::NoMembers)
        ));
        let tight = FleetSpec::builder(FleetConfig::quick(1, 1))
            .build()
            .unwrap();
        let mut members = vec![
            FleetMember::new("a", CoreKind::Rocket, Box::new(DifuzzRtlFuzzer::new(1, 8))),
            FleetMember::new("b", CoreKind::Rocket, Box::new(DifuzzRtlFuzzer::new(2, 8))),
        ];
        let err = run_fleet(&mut members, &tight).expect_err("budget too small");
        assert!(err.to_string().contains("cannot cover"), "{err}");
    }

    /// A runner that follows a script instead of running slices. Member
    /// `a` reports at every close; member `b`'s epoch-0 slice reports
    /// late, at epoch 1's close, as a straggling worker's would.
    struct ScriptedRunner {
        map: CoverageMap,
        budgets_seen: Vec<Vec<u64>>,
    }

    impl ScriptedRunner {
        /// Advances `state` by a slice of `granted` cases whose one
        /// harvested case covered `points`.
        fn report(state: &mut CampaignState, granted: u64, points: &[usize]) -> MemberReport {
            let covered_before = state.cumulative.count();
            state.executed += granted;
            let mut own = vec![0u64; state.cumulative.words().len()];
            for &point in points {
                own[point / 64] |= 1 << (point % 64);
            }
            let coverage = CoverageSnapshot::from_words(state.cumulative.len(), own).unwrap();
            state.cumulative.union_with(&coverage);
            MemberReport {
                granted,
                covered_before,
                harvest: vec![HarvestedCase {
                    case: state.executed,
                    body: vec![hfl_riscv::Instruction::NOP],
                    coverage,
                }],
            }
        }
    }

    impl MemberRunner for ScriptedRunner {
        fn coverage_map(&self, _index: usize) -> &CoverageMap {
            &self.map
        }

        fn run_epoch(
            &mut self,
            epoch: u64,
            budgets: &[u64],
            states: &mut [CampaignState],
            _metrics: &mut Metrics,
        ) -> Result<Vec<Option<MemberReport>>, RunError> {
            self.budgets_seen.push(budgets.to_vec());
            let (a, b) = states.split_at_mut(1);
            Ok(match epoch {
                0 => vec![
                    Some(Self::report(&mut a[0], budgets[0], &[0, 1, 2, 3])),
                    None,
                ],
                _ => vec![
                    Some(Self::report(&mut a[0], budgets[0], &[4])),
                    Some(Self::report(&mut b[0], self.budgets_seen[0][1], &[8, 9])),
                ],
            })
        }

        fn fuzzer_blobs(&self) -> Result<Cow<'_, [Vec<u8>]>, RunError> {
            Ok(Cow::Owned(vec![Vec::new(); 2]))
        }

        fn load_fuzzers(&mut self, _blobs: Vec<Vec<u8>>) -> Result<(), RunError> {
            Ok(())
        }
    }

    #[test]
    fn a_non_reporting_member_scores_zero_and_its_late_result_folds_later() {
        use crate::obs::RingSink;
        use std::sync::Arc;

        let mut map = CoverageMap::new();
        for point in 0..16 {
            map.register(CoverageKind::Condition, &format!("c{point}"));
        }
        let mut runner = ScriptedRunner {
            map,
            budgets_seen: Vec::new(),
        };
        let ring = Arc::new(RingSink::new(256));
        let spec = FleetSpec::builder(FleetConfig::quick(2, 20))
            .sink(SinkHandle::new(ring.clone()))
            .build()
            .unwrap();
        let idents = ["a", "b"]
            .map(|name| MemberIdent {
                core: CoreKind::Rocket,
                name: name.to_owned(),
                fuzzer: String::from("scripted"),
            })
            .to_vec();
        let mut engine = FleetEngine::start(&spec, idents, &mut runner).unwrap();
        engine.run_epochs(&mut runner).unwrap();
        let result = engine.into_result();
        let events = ring.events();

        assert_eq!(runner.budgets_seen[0], vec![10, 10]);
        let progress: Vec<(u64, u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::MemberProgress {
                    epoch,
                    member,
                    executed,
                    ..
                } => Some((*epoch, *member, *executed)),
                _ => None,
            })
            .collect();
        // No member_progress for b at epoch 0; its epoch-0 slice of 10
        // cases shows up at epoch 1's close.
        assert_eq!(progress, vec![(0, 0, 10), (1, 0, 28), (1, 1, 10)]);

        let reallocs: Vec<(u64, u64, u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::BudgetRealloc {
                    epoch,
                    member,
                    cases,
                    rate_milli,
                } => Some((*epoch, *member, *cases, *rate_milli)),
                _ => None,
            })
            .collect();
        // Epoch 0: a gained 4 points on 10 cases; b scores 0 and keeps
        // the floor of 20 / (4 * 2) = 2 cases.
        assert_eq!(reallocs[0], (0, 0, 18, 400));
        assert_eq!(reallocs[1], (0, 1, 2, 0));
        // Epoch 1: b's late result is rated against the 10 cases it was
        // granted at epoch 0, not against its epoch-1 budget.
        assert_eq!(reallocs[2].3, 1000 / 18);
        assert_eq!(reallocs[3].3, 2 * 1000 / 10);

        let inserted: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::CorpusSync { inserted, .. } => Some(*inserted),
                _ => None,
            })
            .collect();
        assert_eq!(inserted, vec![1, 2]);
        assert!(result
            .corpus
            .entries()
            .iter()
            .any(|e| e.name == "b-case-10"));

        // fleet.cases counts reporters' granted cases only: 10 at epoch
        // 0, then 18 + 10 at epoch 1 (not the 2 × 20 budgeted).
        assert_eq!(result.metrics.counter("fleet.cases"), 38);
        let merged: Vec<(u64, usize)> = result
            .merged_curve
            .iter()
            .map(|s| (s.cases, s.condition))
            .collect();
        assert_eq!(merged, vec![(10, 4), (38, 7)]);
        assert!(result.completed);
    }

    #[test]
    fn a_tiny_fleet_runs_and_merges() {
        let mut members = vec![
            FleetMember::new(
                "difuzz-a",
                CoreKind::Rocket,
                Box::new(DifuzzRtlFuzzer::new(5, 10)),
            ),
            FleetMember::new(
                "difuzz-b",
                CoreKind::Rocket,
                Box::new(DifuzzRtlFuzzer::new(11, 10)),
            ),
        ];
        let spec = FleetSpec::builder(FleetConfig::quick(3, 12))
            .build()
            .unwrap();
        let result = run_fleet(&mut members, &spec).expect("fleet runs");
        assert!(result.completed);
        assert_eq!(result.merged_curve.len(), 3);
        assert_eq!(result.members.len(), 2);
        assert_eq!(result.members[0].cases + result.members[1].cases, 36);
        assert_eq!(result.budgets.iter().sum::<u64>(), 12);
        // Merged coverage dominates every member's own coverage.
        let (mc, ml, mf) = result.final_counts();
        for member in &result.members {
            let last = member.curve.last().expect("one sample per epoch");
            assert!(mc >= last.condition && ml >= last.line && mf >= last.fsm);
            assert_eq!(member.curve.len(), 3, "one curve sample per epoch");
        }
        // The shared corpus collected coverage-gaining cases.
        assert!(!result.corpus.is_empty());
        assert!(result.corpus.stats().inserted > 0);
        // The merged curve is monotone.
        for pair in result.merged_curve.windows(2) {
            assert!(pair[1].condition >= pair[0].condition);
            assert!(pair[1].cases > pair[0].cases);
        }
    }
}
