//! The model-generic execution core shared by both machine models.
//!
//! The paper's two machines — the word-model CRCW PRAM of §2 (Theorems
//! 4.3/4.7) and the unit-cost-snapshot machine of §3 — share their entire
//! synchronous phase structure: plan tentative update cycles for every
//! alive processor, present the machine to the on-line adversary, validate
//! its stop/restart decisions, merge the surviving write prefixes slot by
//! slot under CRCW semantics, charge completed work, record the failure
//! pattern, and apply restarts at the next tick boundary. [`Core`]
//! implements that structure once; a model plugs in the parts that differ
//! through the [`ExecutionModel`] trait (how a tentative cycle is computed,
//! how interrupted work is charged, what its checkpoints look like).
//!
//! Everything the engines had grown separately is therefore available to
//! **every** model:
//!
//! * the run loop with [`RunLimits`], completion detection, and the
//!   [`RunControl`] pause hook for checkpointed long runs, configured per
//!   run segment by one [`RunSpec`];
//! * [`Observer`] event emission — one stream, so word-model and
//!   snapshot-model runs trace identically;
//! * adversary-decision validation (shared with the models via
//!   `crate::decisions`);
//! * the incremental completion tracker: an [`UnvisitedIndex`] primed from
//!   [`ExecutionModel::completion_hint`] and folded on every committed
//!   write, replacing the O(N) `is_complete` scan with an O(1) emptiness
//!   test;
//! * versioned checkpoint save/restore tagged with the model's name
//!   ([`ExecutionModel::MODEL`]), so a word checkpoint cannot be restored
//!   into a snapshot machine or vice versa.
//!
//! The core stays **allocation-free in steady state**: all per-tick buffers
//! (tentative cycles, fates, slot merges, failure scratch) live in the
//! [`Core`] and are reused; index maintenance is O(committed writes)
//! amortized per tick with in-place compaction. One run loop drives every
//! engine; an engine (a private backend chosen from the [`RunSpec`]'s
//! [`ExecMode`] and isolation) only decides how each phase is computed —
//! the word machine's worker pool farms the tentative phase, the commit
//! merge and the index rebuild out to real threads, the sequential engines
//! play every phase inline — so the event stream and all accounting are
//! byte-identical across engines *by construction* (pinned by
//! `tests/golden_equivalence.rs`).

use serde::{Deserialize, Serialize};

use crate::accounting::{RunOutcome, RunReport, WorkStats};
use crate::adversary::{
    Adversary, Decisions, FailPoint, MachineView, ProcMeta, ProcStatus, TentativeCycle,
};
use crate::checkpoint::{
    put_state_frame, Checkpoint, FrameHeader, ProcCheckpoint, CHECKPOINT_VERSION,
};
use crate::commit::{CommitEntry, CommitScratch, SlotWinner};
use crate::cycle::MAX_WRITES;
use crate::decisions::{resolve, CycleFate};
use crate::error::PramError;
use crate::failure::{FailureEvent, FailureKind, FailurePattern};
use crate::memory::{MemoryLayout, SharedMemory};
use crate::mode::WriteMode;
use crate::pool::{
    SendPtr, TickPool, CLASS_COMMIT_MERGE, CLASS_COMMIT_SCAN, CLASS_COMMIT_STORE, CLASS_REBUILD,
};
use crate::trace::{NoopObserver, Observer, TraceEvent};
use crate::unvisited::UnvisitedIndex;
use crate::word::{Pid, Word};
use crate::{CompletionHint, Result};

/// Safety limits for a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunLimits {
    /// Abort with [`PramError::CycleLimit`] after this many ticks. Used by
    /// experiments to demonstrate non-terminating executions (e.g.
    /// algorithm W under restarts).
    pub max_cycles: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits { max_cycles: 100_000_000 }
    }
}

/// Verdict of a [`RunSpec::control`] hook, consulted once per tick at the
/// tick boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunControl {
    /// Execute the next tick.
    Continue,
    /// Return [`RunStatus::Paused`] without executing the tick. The machine
    /// is left exactly at the tick boundary — checkpointable via
    /// `save_checkpoint` and resumable by calling a run method again.
    Pause,
}

/// How a run segment ended.
#[derive(Debug)]
pub enum RunStatus {
    /// The program completed; the report is the same one an uncontrolled
    /// run would have produced.
    Completed(RunReport),
    /// The control hook paused the run before tick `cycle` executed.
    Paused {
        /// The next tick to execute.
        cycle: u64,
    },
}

impl RunStatus {
    /// The report of a completed run; `None` if the run paused.
    pub fn completed(self) -> Option<RunReport> {
        match self {
            RunStatus::Completed(report) => Some(report),
            RunStatus::Paused { .. } => None,
        }
    }
}

/// What an isolated run does when a processor's tentative cycle panics
/// (see [`RunSpec::isolation`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PanicPolicy {
    /// Abort the run with [`PramError::WorkerPanic`], leaving the machine
    /// at the failed tick's boundary with all pre-tick state restored.
    #[default]
    Surface,
    /// Restore the pre-tick state, replay the tick on the sequential
    /// engine, and finish the rest of this run segment sequentially (the
    /// next segment starts on the pool again). The run's results are
    /// identical to an undisturbed run (the tick had committed nothing
    /// when the panic fired); only wall-clock parallelism is lost.
    FallbackSequential,
}

/// Which tick engine a run segment uses. Every engine produces the same
/// event stream, statistics and memory as [`ExecMode::Sequential`].
#[derive(Clone, Copy, Default)]
pub enum ExecMode<'a> {
    /// One thread plays every processor.
    #[default]
    Sequential,
    /// A pool of this many worker threads, spawned for the segment and
    /// joined at its end. `Threads(1)` is [`ExecMode::Sequential`];
    /// `Threads(0)` is refused.
    Threads(usize),
    /// A caller-owned [`SharedPool`](crate::SharedPool), time-shared
    /// between run segments: the calling thread holds the pool's turn for
    /// the whole segment.
    Pool(&'a crate::SharedPool),
}

/// Everything a run segment takes besides the adversary; the default is a
/// sequential, unobserved, unisolated run to completion.
///
/// A segment ends when the program completes or when `control` pauses it
/// at a tick boundary. A paused machine holds no transient state: save a
/// checkpoint, or call a run method again to continue. Pausing and
/// resuming yields the concatenation of the segments' event streams,
/// which equals the uninterrupted run's stream.
#[derive(Default)]
pub struct RunSpec<'a> {
    /// Safety limits; [`PramError::CycleLimit`] when exhausted.
    pub limits: RunLimits,
    /// The tick engine (word machine only; the snapshot machine always
    /// runs sequentially).
    pub exec: ExecMode<'a>,
    /// Catch panics in program code per processor and handle them under
    /// this policy; `None` lets them unwind (word machine only).
    pub isolation: Option<PanicPolicy>,
    /// Receives every machine event (see [`crate::trace`]).
    pub observer: Option<&'a mut dyn Observer>,
    /// Consulted with the number of the tick about to execute, after the
    /// completion and cycle-limit checks; [`RunControl::Pause`] ends the
    /// segment. A resumed run consults it again with the same tick number,
    /// so a "pause at tick k" predicate must be rearmed before resuming.
    pub control: Option<&'a mut dyn FnMut(u64) -> RunControl>,
}

/// Processor bookkeeping in structure-of-arrays form.
///
/// Each of the core's hot loops touches exactly one of these arrays — the
/// adversary view reads statuses, the tentative phase mutates private
/// states, charging bumps completed counts — so keeping them in separate
/// dense vectors makes every scan contiguous instead of striding over a
/// padded per-processor struct (and lets the pooled backend hand workers a
/// raw pointer into the states alone while statuses stay a shared slice).
#[derive(Clone, Debug)]
pub(crate) struct ProcSoA<S> {
    /// Liveness, indexed by PID.
    pub(crate) status: Vec<ProcStatus>,
    /// Private memory, indexed by PID; `None` while failed.
    pub(crate) state: Vec<Option<S>>,
    /// Completed update cycles charged, indexed by PID.
    pub(crate) completed: Vec<u64>,
}

impl<S> ProcSoA<S> {
    pub(crate) fn len(&self) -> usize {
        self.status.len()
    }
}

/// The parts of a machine model the shared [`Core`] cannot know: how one
/// tentative cycle is computed, how interrupted work is charged, and how
/// the model identifies itself in checkpoints.
///
/// Implemented by the word model (inside [`crate::machine`]) and the
/// snapshot model (inside [`crate::snapshot`]); the public machines are
/// thin wrappers pairing a model value with a [`Core`].
pub trait ExecutionModel {
    /// Per-processor private memory; lost on failure.
    type Private: Clone + Send;

    /// The model's name, written into checkpoints; restore refuses a
    /// checkpoint taken under a different model.
    const MODEL: &'static str;

    /// Whether [`MachineView::unvisited`] exposes the completion tracker's
    /// index to the adversary. The snapshot model does (the §3 adversaries
    /// are defined on the unvisited set); the word model predates the index
    /// and keeps its adversary view stable.
    const ADVERSARY_SEES_INDEX: bool;

    /// Fresh private state for processor `pid` (start and restart).
    fn on_start(&self, pid: Pid) -> Self::Private;

    /// Global completion predicate (uncharged).
    fn is_complete(&self, mem: &SharedMemory) -> bool;

    /// Per-cell completion decomposition; same contract as
    /// [`Program::completion_hint`](crate::Program::completion_hint).
    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint;

    /// Batched [`completion_hint`](ExecutionModel::completion_hint) over
    /// one contiguous lane of at most 64 cells starting at `base`: returns
    /// `(outstanding, tracked)` bit masks where bit `j` describes cell
    /// `base + j`. Must agree cell-wise with `completion_hint` — debug
    /// builds assert it when the batched tracker path runs. Models forward
    /// to their program, so a program can supply a branch-free classifier
    /// the compiler autovectorizes.
    fn completion_masks(&self, base: usize, values: &[Word]) -> (u64, u64) {
        crate::fold_completion_masks(base, values, |addr, value| self.completion_hint(addr, value))
    }

    /// Phase 1 (sequential reference implementation): fill
    /// `core.tentative[i]` for every alive processor from the tick-start
    /// memory, advancing private states in place. The pooled and
    /// panic-isolating engines substitute their own phase.
    ///
    /// # Errors
    ///
    /// See [`PramError`] — typically budget or bounds violations.
    fn tentative(&self, core: &mut Core<Self::Private>) -> Result<()>;

    /// `S'` charge for a cycle interrupted after its reads with
    /// `committed_writes` of its writes committed. The word model charges
    /// `reads + 1 + committed`; the snapshot model's whole-memory read is
    /// free and its unit of local computation is only charged on
    /// completion, so it charges `committed` alone.
    fn partial_instructions(t: &TentativeCycle, committed_writes: usize) -> u64;

    /// `(reads, writes)` budget header for checkpoints. The snapshot model
    /// has no read budget and reports `(0, write_budget)`.
    fn checkpoint_budget(&self) -> (usize, usize);
}

/// The three per-tick hooks a run backend supplies to [`Core::run_loop`]:
/// how the completion tracker is primed at run entry, how the tentative
/// phase executes, and how the tick's decisions are applied. The defaults
/// are the sequential reference paths; the word machine's pooled backends
/// (see `crate::machine`) override them with the worker-pool phases. Every
/// override must be observationally identical to the default — event
/// streams, stats, memory, and the index are pinned byte-identical by the
/// golden and differential tests.
pub(crate) trait Backend<M: ExecutionModel> {
    /// Prime the completion tracker at run entry.
    fn prime(&mut self, model: &M, core: &mut Core<M::Private>) {
        core.init_tracker(model);
    }

    /// Phase 1: fill `core.tentative[i]` for every alive processor.
    ///
    /// # Errors
    ///
    /// See [`PramError`] — typically budget or bounds violations.
    fn tentative(&mut self, model: &M, core: &mut Core<M::Private>) -> Result<()>;

    /// Phases 2b/3: validate decisions, commit, charge.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    fn apply(
        &mut self,
        model: &M,
        core: &mut Core<M::Private>,
        decisions: Decisions,
        observer: &mut dyn Observer,
    ) -> Result<()> {
        core.apply(model, decisions, observer)
    }
}

/// The sequential backend: every phase plays inline through the reference
/// implementations.
pub(crate) struct SeqBackend;

impl<M: ExecutionModel> Backend<M> for SeqBackend {
    fn tentative(&mut self, model: &M, core: &mut Core<M::Private>) -> Result<()> {
        model.tentative(core)
    }
}

/// The model-generic machine state and synchronous run loop.
///
/// A `Core` is the entire mutable state of a machine — shared memory,
/// processor slots, accounting, the completion tracker, and every reused
/// per-tick buffer. The public machines ([`Machine`](crate::Machine),
/// [`SnapshotMachine`](crate::SnapshotMachine)) wrap a `Core` together with
/// their [`ExecutionModel`] and delegate the phase structure here.
#[derive(Debug)]
pub struct Core<Pv> {
    pub(crate) mem: SharedMemory,
    pub(crate) mode: WriteMode,
    /// Number of write slots merged per tick (the write half of the budget).
    pub(crate) write_slots: usize,
    pub(crate) procs: ProcSoA<Pv>,
    pub(crate) cycle: u64,
    pub(crate) stats: WorkStats,
    pub(crate) pattern: FailurePattern,
    // Incremental completion tracker (see `ExecutionModel::completion_hint`):
    // whether the model opted in, and the index of outstanding cells.
    // Primed at construction and re-primed at every run entry.
    pub(crate) tracked: bool,
    pub(crate) unvisited: UnvisitedIndex,
    /// Lane width of the batched kernels. The default
    /// ([`DEFAULT_BATCH_WIDTH`]) selects the lane-mask batched paths and
    /// aligns pooled chunk claiming; `1` selects the scalar reference
    /// paths. Behavior is identical either way (pinned by the
    /// batched-vs-scalar differential proptests); only the instruction
    /// stream differs.
    pub(crate) batch_width: usize,
    // Reused per-tick buffers.
    pub(crate) tentative: Vec<Option<TentativeCycle>>,
    pub(crate) meta: Vec<ProcMeta>,
    pub(crate) fates: Vec<CycleFate>,
    pub(crate) slot_writes: Vec<(Pid, usize, Word)>,
    /// Processors with at least one surviving write this tick (compact
    /// list, built by the batch pre-pass in [`Core::apply`]).
    pub(crate) active: Vec<u32>,
    /// Per-processor surviving-write count for the current tick.
    pub(crate) surviving: Vec<u32>,
    pub(crate) failed_now: Vec<bool>,
    pub(crate) fail_points: Vec<Option<FailPoint>>,
    pub(crate) restarted: Vec<bool>,
    pub(crate) events: Vec<FailureEvent>,
    /// Per-worker buffers of the parallel commit (see [`crate::commit`]);
    /// reused across ticks so the pooled apply stays allocation-free in
    /// steady state.
    pub(crate) commit: CommitScratch,
}

/// Default lane width of the batched tentative-phase kernels: one `u64`
/// mask worth of cells.
pub const DEFAULT_BATCH_WIDTH: usize = crate::unvisited::LANE_WIDTH;

/// Pooled chunk alignment is capped so huge `batch_width × interleave`
/// combinations cannot serialize a run into one chunk.
const MAX_CHUNK_ALIGN: usize = 1 << 16;

/// Smallest address space worth sharding the index rebuild over the pool:
/// below this the sequential rebuild finishes before the workers would wake
/// up. Tests force the sharded path regardless via `RFSP_POOL_INLINE_NS=0`.
const SHARDED_REBUILD_MIN: usize = 1 << 20;

fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn lcm(a: usize, b: usize) -> usize {
    if a == 0 || b == 0 {
        return a.max(b);
    }
    a / gcd(a, b) * b
}

impl<Pv: Clone + Send> Core<Pv> {
    /// Build a core for `model` with `processors` slots over `mem`,
    /// merging `write_slots` write slots per tick under `mode`. The
    /// completion tracker is primed immediately, so lock-step `tick` use
    /// works without passing through a run entry.
    pub(crate) fn new<M: ExecutionModel<Private = Pv>>(
        model: &M,
        processors: usize,
        mem: SharedMemory,
        mode: WriteMode,
        write_slots: usize,
    ) -> Self {
        // The batch pre-pass keeps its compact processor list in u32.
        assert!(processors <= u32::MAX as usize, "processor count exceeds u32 range");
        let procs = ProcSoA {
            status: vec![ProcStatus::Alive; processors],
            state: (0..processors).map(|i| Some(model.on_start(Pid(i)))).collect(),
            completed: vec![0; processors],
        };
        let mut core = Core {
            mem,
            mode,
            write_slots,
            procs,
            cycle: 0,
            stats: WorkStats::default(),
            pattern: FailurePattern::new(),
            tracked: false,
            unvisited: UnvisitedIndex::new(0),
            batch_width: DEFAULT_BATCH_WIDTH,
            tentative: vec![None; processors],
            meta: Vec::with_capacity(processors),
            fates: vec![CycleFate::Idle; processors],
            slot_writes: Vec::new(),
            active: Vec::with_capacity(processors),
            surviving: vec![0; processors],
            failed_now: vec![false; processors],
            fail_points: vec![None; processors],
            restarted: vec![false; processors],
            events: Vec::new(),
            commit: CommitScratch::default(),
        };
        core.init_tracker(model);
        core
    }

    /// Classify every shared cell via [`ExecutionModel::completion_hint`]
    /// and prime the unvisited index. The model is *tracked* iff it reports
    /// at least one tracked cell; untracked models keep the full-scan
    /// completion check and get no index.
    pub(crate) fn init_tracker<M: ExecutionModel<Private = Pv>>(&mut self, model: &M) {
        let mem = &self.mem;
        // Both paths walk the memory in bank-aligned chunks: each chunk is
        // one contiguous slice of its bank, so a banked layout is
        // classified without the per-address bank mapping.
        if self.batch_width > 1 {
            // Batched path: 64-cell lanes classified into bit masks by
            // `completion_masks`, whose hot implementations are
            // branch-free (see `WriteAllTasks::completion_masks`).
            let mut tracked_bits = 0u64;
            self.unvisited.rebuild_from_chunks_batched(mem.size(), mem.chunks(), |base, lane| {
                let (outstanding, tracked) = model.completion_masks(base, lane);
                #[cfg(debug_assertions)]
                {
                    let expected = crate::fold_completion_masks(base, lane, |addr, value| {
                        model.completion_hint(addr, value)
                    });
                    assert_eq!(
                        (outstanding, tracked),
                        expected,
                        "completion_masks disagrees with completion_hint on lane at {base}",
                    );
                }
                tracked_bits |= tracked;
                outstanding
            });
            self.tracked = tracked_bits != 0;
        } else {
            // Scalar reference path (`batch_width == 1`), kept verbatim for
            // the batched-vs-scalar differential proptests.
            let mut any_tracked = false;
            self.unvisited.rebuild_from_chunks(mem.size(), mem.chunks(), |addr, value| match model
                .completion_hint(addr, value)
            {
                CompletionHint::Untracked => false,
                CompletionHint::Outstanding => {
                    any_tracked = true;
                    true
                }
                CompletionHint::Satisfied => {
                    any_tracked = true;
                    false
                }
            });
            self.tracked = any_tracked;
        }
    }

    /// Chunk alignment for the pooled tentative phase: a multiple of the
    /// batch width (so a worker's chunk is whole lanes) and, on banked
    /// layouts, of the bank interleave (so a lane never straddles a bank
    /// boundary inside a chunk). Capped at a constant so pathological
    /// `batch_width × interleave` combinations cannot serialize a run into
    /// one chunk.
    pub(crate) fn chunk_align(&self) -> usize {
        let base = self.batch_width.max(1);
        let align = match self.mem.layout() {
            MemoryLayout::Banked { interleave, .. } => lcm(base, interleave),
            _ => base,
        };
        align.min(MAX_CHUNK_ALIGN)
    }

    /// O(1) completion test for tracked models (the index is empty), full
    /// scan otherwise. Debug builds cross-check the index against
    /// `is_complete`.
    fn completion_reached<M: ExecutionModel<Private = Pv>>(&self, model: &M) -> bool {
        if self.tracked {
            let done = self.unvisited.is_empty();
            debug_assert_eq!(
                done,
                model.is_complete(&self.mem),
                "completion tracker diverged from is_complete at tick {} \
                 ({} cells outstanding) — the hint contract is violated",
                self.cycle,
                self.unvisited.len(),
            );
            done
        } else {
            model.is_complete(&self.mem)
        }
    }

    /// Build the completed-run report. The recorded failure pattern is
    /// **moved** out of the core (it can be megabytes on adversarial runs);
    /// the core's own pattern is left empty, so a subsequent continuation
    /// run records a fresh pattern.
    fn take_completed_report(&mut self) -> RunReport {
        RunReport {
            outcome: RunOutcome::Completed,
            stats: self.stats,
            pattern: std::mem::take(&mut self.pattern),
            per_processor: self.procs.completed.clone(),
        }
    }

    /// Phase 2a: present the machine to the adversary and collect its
    /// decisions for this tick.
    fn collect_decisions<M, A>(&mut self, adversary: &mut A) -> Decisions
    where
        M: ExecutionModel<Private = Pv>,
        A: Adversary,
    {
        self.meta.clear();
        self.meta.extend(self.procs.status.iter().zip(&self.procs.completed).enumerate().map(
            |(i, (&status, &completed))| ProcMeta {
                pid: Pid(i),
                status,
                completed_cycles: completed,
            },
        ));
        let view = MachineView {
            cycle: self.cycle,
            processors: self.procs.len(),
            mem: &self.mem,
            procs: &self.meta,
            tentative: &self.tentative,
            unvisited: if M::ADVERSARY_SEES_INDEX && self.tracked {
                Some(&self.unvisited)
            } else {
                None
            },
        };
        adversary.decide(&view)
    }

    /// Execute exactly one tick: the model's sequential tentative phase,
    /// adversary decisions, validate/commit/charge.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub(crate) fn tick<M, A>(&mut self, model: &M, adversary: &mut A) -> Result<()>
    where
        M: ExecutionModel<Private = Pv>,
        A: Adversary,
    {
        model.tentative(self)?;
        let decisions = self.collect_decisions::<M, A>(adversary);
        self.apply(model, decisions, &mut NoopObserver)
    }

    /// The single run loop behind every run entry point of both machines.
    /// Backends differ only in the [`Backend`] hooks they pass in, so the
    /// event stream and all accounting are shared by construction. The
    /// `control` hook runs at the tick boundary — after the completion and
    /// cycle-limit checks, before the tick's `TickStart` event — so pausing
    /// and resuming produces, by construction, the **concatenation** of the
    /// two runs' event streams, which equals the uninterrupted run's
    /// stream. Absent hooks observe nothing and never pause.
    ///
    /// # Errors
    ///
    /// See [`PramError`]; in particular [`PramError::CycleLimit`] when
    /// `limits` are exhausted.
    pub(crate) fn run_loop<M, A, B>(
        &mut self,
        model: &M,
        adversary: &mut A,
        limits: RunLimits,
        observer: Option<&mut dyn Observer>,
        control: Option<&mut dyn FnMut(u64) -> RunControl>,
        backend: &mut B,
    ) -> Result<RunStatus>
    where
        M: ExecutionModel<Private = Pv>,
        A: Adversary,
        B: Backend<M> + ?Sized,
    {
        let mut noop = NoopObserver;
        let observer: &mut dyn Observer = match observer {
            Some(observer) => observer,
            None => &mut noop,
        };
        let mut continue_always = |_| RunControl::Continue;
        let control: &mut dyn FnMut(u64) -> RunControl = match control {
            Some(control) => control,
            None => &mut continue_always,
        };
        backend.prime(model, self);
        loop {
            if self.completion_reached(model) {
                observer.event(TraceEvent::Completed { cycle: self.cycle });
                return Ok(RunStatus::Completed(self.take_completed_report()));
            }
            if self.cycle >= limits.max_cycles {
                return Err(PramError::CycleLimit { cycles: limits.max_cycles });
            }
            if control(self.cycle) == RunControl::Pause {
                return Ok(RunStatus::Paused { cycle: self.cycle });
            }
            observer.event(TraceEvent::TickStart { cycle: self.cycle });
            backend.tentative(model, self)?;
            let decisions = self.collect_decisions::<M, A>(adversary);
            backend.apply(model, self, decisions, observer)?;
        }
    }

    /// Phases 2b/3: validate the adversary's decisions (shared
    /// [`crate::decisions`] logic), merge surviving write prefixes slot by
    /// slot, charge work, fold commits into the completion tracker, record
    /// the failure pattern, apply restarts.
    pub(crate) fn apply<M>(
        &mut self,
        model: &M,
        decisions: Decisions,
        observer: &mut dyn Observer,
    ) -> Result<()>
    where
        M: ExecutionModel<Private = Pv>,
    {
        let max_slots = self.resolve_and_prepass(decisions)?;

        // --- Commit surviving write prefixes, slot by slot. ---
        // (`active` is detached during the loop so `commit_slot` can borrow
        // the rest of the core mutably; it is a reused buffer, so put it
        // back afterwards.)
        let active = std::mem::take(&mut self.active);
        for slot in 0..max_slots {
            self.slot_writes.clear();
            for &iu in &active {
                let i = iu as usize;
                if slot < self.surviving[i] as usize {
                    let t = self.tentative[i].as_ref().expect("active cycle exists");
                    let (addr, value) = t.writes.writes()[slot];
                    self.slot_writes.push((Pid(i), addr, value));
                }
            }
            self.commit_slot(model, observer)?;
        }
        self.active = active;

        self.charge_and_finish(model, observer);
        Ok(())
    }

    /// Phase 2b: validate the adversary's decisions and fold each
    /// processor's fate into a surviving-write count once (instead of
    /// re-deriving it `write_slots` times). Returns the maximum surviving
    /// prefix length — the number of write slots the commit must merge.
    fn resolve_and_prepass(&mut self, decisions: Decisions) -> Result<usize> {
        let p = self.procs.len();
        let statuses = &self.procs.status;
        resolve(
            self.cycle,
            &decisions,
            |i| statuses[i],
            &self.tentative,
            &mut self.fates,
            &mut self.failed_now,
            &mut self.fail_points,
            &mut self.restarted,
        )?;

        // The per-slot merge then touches only the compact list of
        // processors that commit anything this tick, rather than striding
        // over all P tentative slots per write slot.
        self.active.clear();
        let mut max_slots = 0;
        for i in 0..p {
            let n = match self.fates[i] {
                CycleFate::Completed => {
                    self.tentative[i].as_ref().expect("completed cycle exists").writes.len()
                }
                CycleFate::Interrupted { committed_writes } => {
                    // Validated against the write count by `resolve`, but
                    // clamp anyway: `surviving` is the sole bound the slot
                    // loop indexes `writes()` with.
                    let t = self.tentative[i].as_ref().expect("interrupted cycle exists");
                    committed_writes.min(t.writes.len())
                }
                CycleFate::InterruptedBeforeReads | CycleFate::Idle => 0,
            };
            self.surviving[i] = n as u32;
            if n > 0 {
                self.active.push(i as u32);
                max_slots = max_slots.max(n);
            }
        }

        // A cycle's writes are budget-checked in the tentative phase and
        // `resolve` bounds committed prefixes by the cycle's write count,
        // so no survivor can exceed the write-slot budget.
        debug_assert!(max_slots <= self.write_slots);
        Ok(max_slots)
    }

    /// Phase 3: charge work, update processor states, record the failure
    /// pattern, advance the clock, restore the index's dense form.
    fn charge_and_finish<M>(&mut self, model: &M, observer: &mut dyn Observer)
    where
        M: ExecutionModel<Private = Pv>,
    {
        let p = self.procs.len();
        // --- Charge work, update processor states, record the pattern. ---
        debug_assert!(self.events.is_empty());
        for i in 0..p {
            match self.fates[i] {
                CycleFate::Idle => {}
                CycleFate::Completed => {
                    let t = self.tentative[i].as_ref().expect("completed cycle exists");
                    observer.event(TraceEvent::CycleCompleted { cycle: self.cycle, pid: Pid(i) });
                    self.stats.completed_cycles += 1;
                    self.stats.charged_instructions += (t.reads.len() + 1 + t.writes.len()) as u64;
                    self.mem.charge_reads_at(t.reads.addrs());
                    self.procs.completed[i] += 1;
                    if t.halts {
                        self.procs.status[i] = ProcStatus::Halted;
                    }
                    // The post-cycle private state is already in the slot
                    // (the tentative phase advances it in place).
                }
                CycleFate::InterruptedBeforeReads => {
                    observer.event(TraceEvent::CycleInterrupted { cycle: self.cycle, pid: Pid(i) });
                    self.stats.interrupted_cycles += 1;
                    // Stopped before the cycle began: zero instructions, so
                    // zero partial work — explicitly, not via a sentinel.
                }
                CycleFate::Interrupted { committed_writes } => {
                    let t = self.tentative[i].as_ref().expect("interrupted cycle exists");
                    observer.event(TraceEvent::CycleInterrupted { cycle: self.cycle, pid: Pid(i) });
                    self.stats.interrupted_cycles += 1;
                    // What an interrupted cycle is charged differs by model
                    // (the snapshot's read and computation are free).
                    self.stats.partial_instructions += M::partial_instructions(t, committed_writes);
                    self.mem.charge_reads_at(t.reads.addrs());
                }
            }
            if self.failed_now[i] {
                self.procs.status[i] = ProcStatus::Failed;
                self.procs.state[i] = None;
                self.stats.failures += 1;
                let point = self.fail_points[i].expect("failed processor has a recorded point");
                observer.event(TraceEvent::Failure { cycle: self.cycle, pid: Pid(i), point });
                self.events.push(FailureEvent {
                    kind: FailureKind::Failure { point },
                    pid: i,
                    time: self.cycle,
                });
            }
        }
        for i in (0..p).filter(|&i| self.restarted[i]) {
            observer.event(TraceEvent::Restart { cycle: self.cycle, pid: Pid(i) });
            self.procs.status[i] = ProcStatus::Alive;
            self.procs.state[i] = Some(model.on_start(Pid(i)));
            self.stats.restarts += 1;
            self.events.push(FailureEvent {
                kind: FailureKind::Restart,
                pid: i,
                time: self.cycle + 1,
            });
        }
        // Failure events at this tick precede restart events at tick+1, so
        // pushing fails-then-restarts keeps the pattern time-ordered.
        self.pattern.extend(self.events.drain(..));

        self.cycle += 1;
        self.stats.parallel_time = self.cycle;

        // Restore the index's dense form for the next tick's views — but
        // only when the model has a reader: the snapshot model selects
        // from the index during its tentative phase and exposes it to the
        // adversary, so it must be dense at every tick boundary. The word
        // model only folds O(1) updates in and tests emptiness, and
        // compacting its tombstones every tick would put an O(N) scan on
        // the hot path — its index stays lazily dirty instead. Debug
        // builds always compact so the ground-truth cross-check below can
        // run.
        if self.tracked {
            if M::ADVERSARY_SEES_INDEX || cfg!(debug_assertions) {
                self.unvisited.ensure_clean();
            }
            debug_assert!(
                self.unvisited.matches(self.mem.size(), |addr| matches!(
                    model.completion_hint(addr, self.mem.peek(addr)),
                    CompletionHint::Outstanding
                )),
                "unvisited index diverged from the full scan after tick {}",
                self.cycle - 1,
            );
        }
    }

    /// Merge one write slot under the core's CRCW semantics, apply it, and
    /// fold each committed store into the completion tracker.
    fn commit_slot<M>(&mut self, model: &M, observer: &mut dyn Observer) -> Result<()>
    where
        M: ExecutionModel<Private = Pv>,
    {
        // Group writers by address; within an address the lowest PID comes
        // first, making ARBITRARY/PRIORITY resolution "first writer wins".
        // (addr, pid) keys are unique, so the unstable sort is
        // deterministic.
        self.slot_writes.sort_unstable_by_key(|&(pid, addr, _)| (addr, pid));
        let mut i = 0;
        while i < self.slot_writes.len() {
            let (pid, addr, value) = self.slot_writes[i];
            let mut j = i + 1;
            let chosen = (pid, value);
            while j < self.slot_writes.len() {
                let (pid2, addr2, value2) = self.slot_writes[j];
                if addr2 != addr {
                    break;
                }
                match self.mode {
                    WriteMode::Common => {
                        if value2 != chosen.1 {
                            return Err(PramError::CommonWriteConflict {
                                addr,
                                cycle: self.cycle,
                                first: (chosen.0, chosen.1),
                                second: (pid2, value2),
                            });
                        }
                    }
                    WriteMode::Arbitrary | WriteMode::Priority => {
                        // chosen stays: lowest PID wins and writers are in
                        // PID order within equal addresses (see sort above).
                    }
                    WriteMode::Exclusive => {
                        return Err(PramError::ExclusiveWriteConflict { addr, cycle: self.cycle });
                    }
                }
                j += 1;
            }
            if self.tracked {
                // Fold the committed write into the unvisited index
                // *before* the store (the old value is still visible).
                let old = model.completion_hint(addr, self.mem.peek(addr));
                let new = model.completion_hint(addr, chosen.1);
                match (old, new) {
                    (CompletionHint::Outstanding, CompletionHint::Satisfied) => {
                        self.unvisited.remove(addr);
                    }
                    (CompletionHint::Satisfied, CompletionHint::Outstanding) => {
                        self.unvisited.insert(addr);
                    }
                    _ => {}
                }
            }
            self.mem.store(addr, chosen.1)?;
            observer.event(TraceEvent::Commit { cycle: self.cycle, addr, value: chosen.1 });
            i = j;
        }
        Ok(())
    }

    /// [`Core::apply`] with the commit merge farmed out to the worker pool.
    ///
    /// Observationally identical to the sequential apply on every
    /// successful tick: same memory image, same `Commit` event stream (the
    /// deterministic rank-ordered merge reproduces the slot-major,
    /// address-ascending order), same stats and bank counters, same index
    /// membership. On a CRCW conflict it reports the same error the
    /// sequential scan would hit first; the machine state after an error is
    /// unspecified under both backends (the sequential engine stops
    /// mid-commit, this one withholds the whole tick's stores except those
    /// of already-finished partitions — see DESIGN.md §15).
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub(crate) fn apply_pooled<M>(
        &mut self,
        model: &M,
        decisions: Decisions,
        observer: &mut dyn Observer,
        pool: &TickPool,
    ) -> Result<()>
    where
        M: ExecutionModel<Private = Pv> + Sync,
    {
        // On a host that cannot run workers concurrently the bucket/merge
        // dance is pure overhead — fall back to the serial commit unless
        // the tests force the parallel path.
        if !pool.force_parallel() && !pool.multicore() {
            return self.apply(model, decisions, observer);
        }
        let max_slots = self.resolve_and_prepass(decisions)?;
        if max_slots > 0 {
            self.commit_pooled(model, max_slots, observer, pool)?;
        }
        self.charge_and_finish(model, observer);
        Ok(())
    }

    /// The parallel commit (see `crate::commit` for the buffer layout):
    ///
    /// 1. **Scan** — worker groups bucket the surviving writes of disjoint
    ///    PID ranges by destination address partition.
    /// 2. **Merge** — each address partition sorts its bucket rows by
    ///    `(slot, addr, pid)` and resolves CRCW winners per `(slot, addr)`
    ///    group, recording per-bank write deltas; conflicts are recorded,
    ///    not applied.
    /// 3. **Store** — each partition k-way-merges its per-slot winner lists
    ///    by address, folds the completion-hint chain, and writes the final
    ///    value per address through raw bank pointers. Runs only if no
    ///    partition recorded a conflict.
    ///
    /// The coordinator then merges the accounting deltas, replays the
    /// `Commit` events in slot-major rank order (partitions are contiguous
    /// ascending address ranges, so this is exactly the sequential order),
    /// and applies the net index operations.
    fn commit_pooled<M>(
        &mut self,
        model: &M,
        max_slots: usize,
        observer: &mut dyn Observer,
        pool: &TickPool,
    ) -> Result<()>
    where
        M: ExecutionModel<Private = Pv> + Sync,
    {
        let groups = pool.threads();
        let parts = pool.threads();
        let p = self.procs.len();
        let gsize = p.div_ceil(groups).max(1);
        let size = self.mem.size();
        // ceil(size/parts) guarantees addr / part_size < parts for every
        // in-bounds address.
        let part_size = size.div_ceil(parts).max(1);
        let stride = self.write_slots.max(1);
        debug_assert!(max_slots <= MAX_WRITES, "write budget exceeds the merge's head array");
        let bank_count = self.mem.bank_count();
        let layout = self.mem.layout();
        let cycle = self.cycle;
        let mode = self.mode;
        let tracked = self.tracked;
        self.commit.prepare(groups, parts, stride, bank_count);
        self.mem.bank_cell_ptrs(&mut self.commit.bank_ptrs);

        // --- Phase 1: scan. Group g owns PIDs [g*gsize, (g+1)*gsize) and
        // bucket rows [g*parts, (g+1)*parts) — disjoint per group.
        {
            let tentative = &self.tentative;
            let surviving = &self.surviving;
            let buckets_ptr = SendPtr::new(self.commit.buckets.as_mut_ptr());
            let errs_ptr = SendPtr::new(self.commit.errs.as_mut_ptr());
            let scan = move |g0: usize, g1: usize| -> Result<()> {
                for g in g0..g1 {
                    // SAFETY: rows [g*parts, (g+1)*parts) and errs[g] are
                    // owned exclusively by group g this epoch.
                    let rows = unsafe {
                        std::slice::from_raw_parts_mut(buckets_ptr.ptr().add(g * parts), parts)
                    };
                    let err = unsafe { &mut *errs_ptr.ptr().add(g) };
                    *err = None;
                    for row in rows.iter_mut() {
                        row.clear();
                    }
                    for i in (g * gsize).min(p)..((g + 1) * gsize).min(p) {
                        let n = surviving[i] as usize;
                        if n == 0 {
                            continue;
                        }
                        let t = tentative[i].as_ref().expect("surviving cycle exists");
                        for (s, &(addr, value)) in t.writes.writes()[..n].iter().enumerate() {
                            if addr >= size {
                                // Defensive: the tentative phase bounds-
                                // checks writes, but an out-of-bounds store
                                // must error like the sequential commit,
                                // not corrupt a bucket row. Keep the
                                // group's minimum-(slot, addr) offender.
                                let key = (s as u32, addr);
                                if err.as_ref().is_none_or(|&(es, ea, _)| key < (es, ea)) {
                                    *err = Some((
                                        key.0,
                                        key.1,
                                        PramError::AddressOutOfBounds { addr, size },
                                    ));
                                }
                                continue;
                            }
                            rows[addr / part_size].push(CommitEntry {
                                slot: s as u32,
                                addr,
                                pid: i as u32,
                                value,
                            });
                        }
                    }
                }
                Ok(())
            };
            pool.run_tick(CLASS_COMMIT_SCAN, groups, 1, &scan)?;
        }
        if let Some(err) = self.commit.take_min_err() {
            return Err(err);
        }

        // --- Phase 2: merge. Partition w owns the address range
        // [w*part_size, (w+1)*part_size) and its own sorted/winners/deltas
        // rows.
        {
            let buckets = &self.commit.buckets;
            let sorted_ptr = SendPtr::new(self.commit.sorted.as_mut_ptr());
            let winners_ptr = SendPtr::new(self.commit.winners.as_mut_ptr());
            let deltas_ptr = SendPtr::new(self.commit.bank_deltas.as_mut_ptr());
            let errs_ptr = SendPtr::new(self.commit.errs.as_mut_ptr());
            let merge = move |w0: usize, w1: usize| -> Result<()> {
                for w in w0..w1 {
                    // SAFETY: sorted[w], winners[w*stride..], bank_deltas[w]
                    // and errs[w] are owned exclusively by partition w.
                    let sorted = unsafe { &mut *sorted_ptr.ptr().add(w) };
                    let winners = unsafe {
                        std::slice::from_raw_parts_mut(winners_ptr.ptr().add(w * stride), stride)
                    };
                    let deltas = unsafe { &mut *deltas_ptr.ptr().add(w) };
                    let err = unsafe { &mut *errs_ptr.ptr().add(w) };
                    *err = None;
                    sorted.clear();
                    for g in 0..groups {
                        sorted.extend_from_slice(&buckets[g * parts + w]);
                    }
                    // (slot, addr, pid) keys are unique, so the unstable
                    // sort is deterministic; within a (slot, addr) group the
                    // lowest PID comes first, exactly like the sequential
                    // per-slot sort.
                    sorted.sort_unstable_by_key(|e| (e.slot, e.addr, e.pid));
                    for row in winners[..max_slots].iter_mut() {
                        row.clear();
                    }
                    deltas.clear();
                    deltas.resize(bank_count, 0);
                    let mut i = 0;
                    'scan: while i < sorted.len() {
                        let e = sorted[i];
                        let mut j = i + 1;
                        while j < sorted.len()
                            && sorted[j].slot == e.slot
                            && sorted[j].addr == e.addr
                        {
                            let e2 = sorted[j];
                            match mode {
                                WriteMode::Common => {
                                    if e2.value != e.value {
                                        *err = Some((
                                            e.slot,
                                            e.addr,
                                            PramError::CommonWriteConflict {
                                                addr: e.addr,
                                                cycle,
                                                first: (Pid(e.pid as usize), e.value),
                                                second: (Pid(e2.pid as usize), e2.value),
                                            },
                                        ));
                                        break 'scan;
                                    }
                                }
                                WriteMode::Arbitrary | WriteMode::Priority => {
                                    // Lowest PID (the group head) wins.
                                }
                                WriteMode::Exclusive => {
                                    *err = Some((
                                        e.slot,
                                        e.addr,
                                        PramError::ExclusiveWriteConflict { addr: e.addr, cycle },
                                    ));
                                    break 'scan;
                                }
                            }
                            j += 1;
                        }
                        winners[e.slot as usize].push(SlotWinner { addr: e.addr, value: e.value });
                        deltas[layout.bank_of(e.addr)] += 1;
                        i = j;
                    }
                }
                Ok(())
            };
            pool.run_tick(CLASS_COMMIT_MERGE, parts, 1, &merge)?;
        }
        if let Some(err) = self.commit.take_min_err() {
            // The scan runs in (slot, addr) order and stops at its first
            // conflict, so the minimum across partitions is exactly the
            // error the sequential slot loop would return. No stores, no
            // events, no accounting are applied for the failed tick.
            return Err(err);
        }

        // --- Phase 3: store. Partition w writes only addresses inside its
        // range; `locate` maps disjoint addresses to disjoint (bank, cell)
        // slots, so the raw-pointer stores never race.
        {
            let winners = &self.commit.winners;
            let bank_ptrs = &self.commit.bank_ptrs;
            let ops_ptr = SendPtr::new(self.commit.index_ops.as_mut_ptr());
            let store = move |w0: usize, w1: usize| -> Result<()> {
                for w in w0..w1 {
                    // SAFETY: index_ops[w] is owned exclusively by
                    // partition w.
                    let ops = unsafe { &mut *ops_ptr.ptr().add(w) };
                    ops.clear();
                    let rows = &winners[w * stride..w * stride + max_slots];
                    let mut heads = [0usize; MAX_WRITES];
                    loop {
                        // Next address in the k-way merge of the per-slot
                        // winner lists (each is address-ascending).
                        let mut next: Option<usize> = None;
                        for (s, row) in rows.iter().enumerate() {
                            if let Some(wn) = row.get(heads[s]) {
                                next = Some(next.map_or(wn.addr, |a: usize| a.min(wn.addr)));
                            }
                        }
                        let Some(addr) = next else { break };
                        let (bank, off) = layout.locate(addr);
                        // SAFETY: addr is in partition w's range; see above.
                        let cell = unsafe { bank_ptrs[bank].ptr().add(off) };
                        let initial = unsafe { *cell };
                        // Fold the slot chain exactly like the sequential
                        // engine: each store's "old" value is the previous
                        // slot's winner. Successive index operations for
                        // one address strictly alternate remove/insert, so
                        // membership after the chain equals membership
                        // after the *last* operation alone — and insert/
                        // remove are idempotent on membership, so the
                        // coordinator applies just that one.
                        let mut cur =
                            if tracked { Some(model.completion_hint(addr, initial)) } else { None };
                        let mut value = initial;
                        let mut net: Option<bool> = None;
                        for (s, row) in rows.iter().enumerate() {
                            if let Some(wn) = row.get(heads[s]) {
                                if wn.addr == addr {
                                    heads[s] += 1;
                                    value = wn.value;
                                    if let Some(old) = cur {
                                        let new = model.completion_hint(addr, wn.value);
                                        match (old, new) {
                                            (
                                                CompletionHint::Outstanding,
                                                CompletionHint::Satisfied,
                                            ) => net = Some(false),
                                            (
                                                CompletionHint::Satisfied,
                                                CompletionHint::Outstanding,
                                            ) => net = Some(true),
                                            _ => {}
                                        }
                                        cur = Some(new);
                                    }
                                }
                            }
                        }
                        // SAFETY: as above — exclusive by address partition.
                        unsafe { *cell = value };
                        if let Some(insert) = net {
                            ops.push((addr, insert));
                        }
                    }
                }
                Ok(())
            };
            pool.run_tick(CLASS_COMMIT_STORE, parts, 1, &store)?;
        }

        // --- Deterministic rank-ordered merge on the coordinator. ---
        for w in 0..parts {
            let deltas = std::mem::take(&mut self.commit.bank_deltas[w]);
            self.mem.add_bank_writes(&deltas);
            self.commit.bank_deltas[w] = deltas;
        }
        // Slot-major, then partitions in rank order: partitions are
        // contiguous ascending address ranges and each winner row is
        // address-ascending, so this replays the sequential engine's
        // slot-major address-ascending Commit stream byte for byte.
        for s in 0..max_slots {
            for w in 0..parts {
                for wn in &self.commit.winners[w * stride + s] {
                    observer.event(TraceEvent::Commit { cycle, addr: wn.addr, value: wn.value });
                }
            }
        }
        if tracked {
            let commit = &self.commit;
            let unvisited = &mut self.unvisited;
            for w in 0..parts {
                for &(addr, insert) in &commit.index_ops[w] {
                    if insert {
                        unvisited.insert(addr);
                    } else {
                        unvisited.remove(addr);
                    }
                }
            }
        }
        Ok(())
    }

    /// [`Core::init_tracker`] with the rebuild sharded across the pool when
    /// the address space is large enough to pay for it (always, when the
    /// tests force the parallel path). Falls back to the sequential rebuild
    /// if a worker panics mid-fill (the classifier is model code).
    pub(crate) fn init_tracker_pooled<M>(&mut self, model: &M, pool: &TickPool)
    where
        M: ExecutionModel<Private = Pv> + Sync,
    {
        let sharded = self.batch_width > 1
            && (pool.force_parallel()
                || (pool.multicore() && self.mem.size() >= SHARDED_REBUILD_MIN));
        if !sharded || self.try_sharded_rebuild(model, pool).is_err() {
            self.init_tracker(model);
        }
    }

    /// The sharded rebuild: count outstanding cells per chunk-aligned
    /// address partition, prefix-sum the counts into dense-items offsets in
    /// rank order, then let each partition fill its own disjoint slice of
    /// the index's dense form directly. The rank-ordered stitch is implicit
    /// in the offsets: concatenating the partitions is exactly the
    /// ascending dense form a sequential rebuild produces.
    fn try_sharded_rebuild<M>(&mut self, model: &M, pool: &TickPool) -> Result<()>
    where
        M: ExecutionModel<Private = Pv> + Sync,
    {
        let parts = pool.threads();
        let size = self.mem.size();
        let align = self.chunk_align();
        let part = size.div_ceil(parts).max(1).next_multiple_of(align);
        let bounds = |w: usize| ((w * part).min(size), ((w + 1) * part).min(size));

        // --- Pass 1: count outstanding cells and OR tracked bits per
        // partition.
        let mut counts: Vec<(usize, bool)> = vec![(0, false); parts];
        {
            let mem = &self.mem;
            let counts_ptr = SendPtr::new(counts.as_mut_ptr());
            let count = move |w0: usize, w1: usize| -> Result<()> {
                for w in w0..w1 {
                    let (lo, hi) = bounds(w);
                    let mut outstanding_total = 0usize;
                    let mut tracked_bits = 0u64;
                    for (chunk_base, cells) in mem.chunks_in(lo, hi) {
                        let mut base = chunk_base;
                        for lane in cells.chunks(crate::unvisited::LANE_WIDTH) {
                            let (outstanding, tracked) = model.completion_masks(base, lane);
                            #[cfg(debug_assertions)]
                            {
                                let expected =
                                    crate::fold_completion_masks(base, lane, |addr, value| {
                                        model.completion_hint(addr, value)
                                    });
                                assert_eq!(
                                    (outstanding, tracked),
                                    expected,
                                    "completion_masks disagrees with completion_hint at {base}",
                                );
                            }
                            outstanding_total += outstanding.count_ones() as usize;
                            tracked_bits |= tracked;
                            base += lane.len();
                        }
                    }
                    // SAFETY: counts[w] is owned exclusively by partition w;
                    // the pool barrier publishes the writes.
                    unsafe { *counts_ptr.ptr().add(w) = (outstanding_total, tracked_bits != 0) };
                }
                Ok(())
            };
            pool.run_tick(CLASS_REBUILD, parts, 1, &count)?;
        }
        let mut offsets = Vec::with_capacity(parts);
        let mut total = 0usize;
        for &(n, _) in &counts {
            offsets.push(total);
            total += n;
        }

        // --- Pass 2: raw fill. Partition w owns pos[lo..hi] and items
        // slots [offsets[w], offsets[w] + counts[w]).
        let raw = self.unvisited.begin_sharded_rebuild(size, total);
        {
            let mem = &self.mem;
            let offsets = &offsets;
            let counts = &counts;
            let fill = move |w0: usize, w1: usize| -> Result<()> {
                for w in w0..w1 {
                    let (lo, hi) = bounds(w);
                    // SAFETY: disjoint per-partition ranges, in bounds.
                    unsafe { raw.clear_pos(lo, hi) };
                    let mut slot = offsets[w];
                    for (chunk_base, cells) in mem.chunks_in(lo, hi) {
                        let mut base = chunk_base;
                        for lane in cells.chunks(crate::unvisited::LANE_WIDTH) {
                            let (mut mask, _) = model.completion_masks(base, lane);
                            // Ascending set bits keep the partition's slice
                            // of the dense form address-ordered.
                            while mask != 0 {
                                let j = mask.trailing_zeros() as usize;
                                mask &= mask - 1;
                                // SAFETY: slot stays inside the partition's
                                // items range (pass 1 counted these bits).
                                unsafe { raw.set(slot, base + j) };
                                slot += 1;
                            }
                            base += lane.len();
                        }
                    }
                    let _counted = counts[w].0;
                    debug_assert_eq!(slot - offsets[w], _counted);
                }
                Ok(())
            };
            pool.run_tick(CLASS_REBUILD, parts, 1, &fill)?;
        }
        // SAFETY: every pos cell in [0, size) and items slot in [0, total)
        // was written by exactly one partition; the pool barrier
        // synchronized the writes.
        unsafe { self.unvisited.finish_sharded_rebuild(size, total) };
        self.tracked = counts.iter().any(|&(_, t)| t);
        Ok(())
    }
}

impl<Pv> Core<Pv>
where
    Pv: Clone + Send + Serialize + Deserialize,
{
    /// Snapshot the core (and `adversary`) at the current tick boundary
    /// into a versioned [`Checkpoint`] tagged with the model's name.
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] if the adversary is not checkpointable
    /// ([`Adversary::save_state`] returned `None`).
    pub(crate) fn save_checkpoint<M, A>(&self, model: &M, adversary: &A) -> Result<Checkpoint>
    where
        M: ExecutionModel<Private = Pv>,
        A: Adversary,
    {
        let adversary = save_adversary(adversary)?;
        let (budget_reads, budget_writes) = model.checkpoint_budget();
        let (bank_reads, bank_writes) = self.mem.bank_counters().into_iter().unzip();
        Ok(Checkpoint {
            version: CHECKPOINT_VERSION,
            model: M::MODEL.to_string(),
            cycle: self.cycle,
            mode: self.mode,
            budget_reads,
            budget_writes,
            layout: self.mem.layout(),
            // The merged, address-ordered image — the same bytes whatever
            // the physical layout.
            mem: self.mem.to_vec(),
            bank_reads,
            bank_writes,
            stats: self.stats,
            procs: self.proc_checkpoints(),
            pattern: self.pattern.clone(),
            adversary,
            // Policy state is runner-level: a policy-driven runner fills
            // this in after saving (see `crate::policy`); the core has no
            // policy of its own.
            policy: serde::Value::Null,
        })
    }

    /// Append the machine-state frame of a checkpoint of the core (and
    /// `adversary`) to `out` and return its length: the bytes
    /// `save_checkpoint(..)?.encode_state_into(out)` would write, encoded
    /// straight from the live memory banks and failure pattern instead of
    /// from copies of them. The caller appends the policy payload
    /// ([`Checkpoint::encode_policy_into`]) to complete the frame.
    ///
    /// # Errors
    ///
    /// As [`Core::save_checkpoint`]; nothing is appended then.
    pub(crate) fn encode_checkpoint_into<M, A>(
        &self,
        model: &M,
        adversary: &A,
        out: &mut Vec<u8>,
    ) -> Result<usize>
    where
        M: ExecutionModel<Private = Pv>,
        A: Adversary,
    {
        let header = FrameHeader {
            version: CHECKPOINT_VERSION,
            model: M::MODEL,
            cycle: self.cycle,
            mode: self.mode,
            budget: model.checkpoint_budget(),
            layout: self.mem.layout(),
            stats: &self.stats,
            procs: self.proc_checkpoints().to_value(),
            adversary: save_adversary(adversary)?,
        };
        Ok(put_state_frame(
            out,
            header,
            (self.mem.size(), self.mem.chunks().map(|(_, cells)| cells)),
            self.mem.bank_reads(),
            self.mem.bank_writes(),
            self.pattern.events(),
        ))
    }

    /// Every processor's checkpointed status and private state, by PID.
    fn proc_checkpoints(&self) -> Vec<ProcCheckpoint> {
        self.procs
            .status
            .iter()
            .zip(&self.procs.completed)
            .zip(&self.procs.state)
            .map(|((&status, &completed), state)| ProcCheckpoint {
                status,
                completed,
                state: state.as_ref().map_or(serde::Value::Null, |st| st.to_value()),
            })
            .collect()
    }

    /// Load `ck` into this core and `adversary`, resuming the checkpointed
    /// run at its tick boundary. Everything is validated **before**
    /// anything is mutated, so a failed restore leaves core and adversary
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] on a version, model or shape mismatch, an
    /// undecodable private state, an illegal recorded failure pattern, or
    /// an adversary that refuses the saved state.
    pub(crate) fn restore_checkpoint<M, A>(
        &mut self,
        model: &M,
        ck: &Checkpoint,
        adversary: &mut A,
    ) -> Result<()>
    where
        M: ExecutionModel<Private = Pv>,
        A: Adversary,
    {
        let fail = |detail: String| PramError::Checkpoint { detail };
        if ck.version != CHECKPOINT_VERSION {
            return Err(fail(format!(
                "checkpoint version {} but this build reads version {CHECKPOINT_VERSION}",
                ck.version
            )));
        }
        if ck.model != M::MODEL {
            return Err(fail(format!(
                "checkpoint was taken under the \"{}\" model but this machine runs \"{}\"",
                ck.model,
                M::MODEL
            )));
        }
        if ck.layout != self.mem.layout() {
            return Err(fail(format!(
                "checkpoint was taken under the {} memory layout but this machine uses {} — \
                 cross-layout restore is not supported; rebuild the machine with the \
                 checkpoint's layout",
                ck.layout,
                self.mem.layout()
            )));
        }
        if ck.mem.len() != self.mem.size() {
            return Err(fail(format!(
                "checkpoint has {} memory cells but the machine has {}",
                ck.mem.len(),
                self.mem.size()
            )));
        }
        if ck.procs.len() != self.procs.len() {
            return Err(fail(format!(
                "checkpoint has {} processors but the machine has {}",
                ck.procs.len(),
                self.procs.len()
            )));
        }
        let (budget_reads, budget_writes) = model.checkpoint_budget();
        if (ck.budget_reads, ck.budget_writes) != (budget_reads, budget_writes) {
            return Err(fail(format!(
                "checkpoint budget ({} reads / {} writes) differs from the machine's \
                 ({} reads / {} writes)",
                ck.budget_reads, ck.budget_writes, budget_reads, budget_writes
            )));
        }
        if ck.mode != self.mode {
            return Err(fail(format!(
                "checkpoint write mode {} differs from the machine's {}",
                ck.mode, self.mode
            )));
        }
        ck.pattern
            .validate(Some(self.procs.len()))
            .map_err(|e| fail(format!("recorded pattern: {e}")))?;
        let mut states: Vec<Option<Pv>> = Vec::with_capacity(ck.procs.len());
        for (i, pc) in ck.procs.iter().enumerate() {
            let state = match pc.status {
                // A failed processor has no private memory; whatever the
                // checkpoint stores for it is ignored.
                ProcStatus::Failed => None,
                ProcStatus::Alive | ProcStatus::Halted => Some(
                    Pv::from_value(&pc.state)
                        .map_err(|e| fail(format!("P{i}'s private state does not decode: {e}")))?,
                ),
            };
            states.push(state);
        }
        // Rebuild the memory *before* mutating the adversary: `from_parts`
        // validates the cell image and per-bank counter shapes, and a
        // failure there must leave everything untouched.
        let mem = SharedMemory::from_parts(
            ck.layout,
            self.mem.size(),
            &ck.mem,
            &ck.bank_reads,
            &ck.bank_writes,
        )?;
        adversary
            .restore_state(&ck.adversary)
            .map_err(|e| fail(format!("adversary restore failed: {e}")))?;
        self.mem = mem;
        for (i, (pc, state)) in ck.procs.iter().zip(states).enumerate() {
            self.procs.status[i] = pc.status;
            self.procs.completed[i] = pc.completed;
            self.procs.state[i] = state;
        }
        self.cycle = ck.cycle;
        self.stats = ck.stats;
        self.pattern = ck.pattern.clone();
        // Re-prime the completion tracker from the restored memory: a stale
        // index must never survive a restore (and lock-step `tick` use may
        // not pass through a run entry).
        self.init_tracker(model);
        Ok(())
    }
}

/// The adversary's checkpoint state.
///
/// # Errors
///
/// [`PramError::Checkpoint`] if the adversary is not checkpointable
/// ([`Adversary::save_state`] returned `None`).
fn save_adversary<A: Adversary>(adversary: &A) -> Result<serde::Value> {
    adversary.save_state().ok_or_else(|| PramError::Checkpoint {
        detail: "the adversary is not checkpointable (save_state returned None)".into(),
    })
}
