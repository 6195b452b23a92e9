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
//! [`ExecMode`] and isolation) only decides how the tentative phase is
//! computed — the word machine's worker pool farms it out to real threads,
//! the sequential engines play it inline. Everything after the tentative
//! phase (adversary, commit, charging, index maintenance) is one
//! sequential code path for every engine, so the event stream and all
//! accounting are byte-identical across engines *by construction* (pinned
//! by `tests/golden_equivalence.rs`).

use serde::{Deserialize, Serialize};

use crate::accounting::{RunOutcome, RunReport, WorkStats};
use crate::adversary::{
    Adversary, Decisions, FailPoint, MachineView, ProcMeta, ProcStatus, TentativeCycle,
};
use crate::checkpoint::{
    put_state_frame, Checkpoint, FrameHeader, ProcCheckpoint, CHECKPOINT_VERSION,
};
use crate::decisions::{resolve, CycleFate};
use crate::error::PramError;
use crate::failure::{FailureEvent, FailureKind, FailurePattern};
use crate::memory::SharedMemory;
use crate::mode::WriteMode;
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
    /// builds assert it whenever the tracker is primed. Models forward
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

/// How a run backend executes the tentative phase — the one phase an
/// engine may run differently. [`Core::run_loop`] primes the completion
/// tracker and applies every tick's decisions itself, through the
/// sequential reference paths, so backends differ only here.
/// [`SeqBackend`] plays [`ExecutionModel::tentative`]; the word machine's
/// pooled backend (see `crate::machine`) farms the phase out to worker
/// threads. Every backend must be observationally identical to the
/// sequential one — event streams, stats, memory, and the index are pinned
/// byte-identical by the golden and differential tests.
pub(crate) trait Backend<M: ExecutionModel> {
    /// Phase 1: fill `core.tentative[i]` for every alive processor.
    ///
    /// # Errors
    ///
    /// See [`PramError`] — typically budget or bounds violations.
    fn tentative(&mut self, model: &M, core: &mut Core<M::Private>) -> Result<()>;
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
}

/// Refuse a shared memory larger than the completion index can address
/// ([`UnvisitedIndex`] stores addresses as `u32`). The machine
/// constructors call this before allocating the memory.
///
/// # Errors
///
/// [`PramError::InvalidConfig`] if `size` exceeds `u32::MAX`.
pub(crate) fn check_shared_size(size: usize) -> Result<()> {
    let max = crate::unvisited::MAX_INDEXED_CELLS;
    if size > max {
        return Err(PramError::InvalidConfig {
            detail: format!("shared memory of {size} cells exceeds the {max}-cell limit"),
        });
    }
    Ok(())
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
        };
        core.init_tracker(model);
        core
    }

    /// Classify every shared cell via [`ExecutionModel::completion_hint`]
    /// and prime the unvisited index. The model is *tracked* iff it reports
    /// at least one tracked cell; untracked models keep the full-scan
    /// completion check and get no index.
    fn init_tracker<M: ExecutionModel<Private = Pv>>(&mut self, model: &M) {
        // 64-cell lanes classified into bit masks by `completion_masks`,
        // whose hot implementations are branch-free (see
        // `WriteAllTasks::completion_masks`).
        let mut tracked_bits = 0u64;
        self.unvisited.rebuild_batched(self.mem.as_slice(), |base, lane| {
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
    /// Backends differ only in how they run the tentative phase, so the
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
        self.init_tracker(model);
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
            self.apply(model, decisions, observer)?;
        }
    }

    /// Phases 2b/3: validate the adversary's decisions (shared
    /// [`crate::decisions`] logic), merge surviving write prefixes slot by
    /// slot, charge work, fold commits into the completion tracker, record
    /// the failure pattern, apply restarts.
    fn apply<M>(
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
        Ok(Checkpoint {
            version: CHECKPOINT_VERSION,
            model: M::MODEL.to_string(),
            cycle: self.cycle,
            mode: self.mode,
            budget_reads,
            budget_writes,
            layout: self.mem.layout(),
            mem: self.mem.as_slice().to_vec(),
            bank_reads: self.mem.bank_reads().to_vec(),
            bank_writes: self.mem.bank_writes().to_vec(),
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
    /// straight from the live memory and failure pattern instead of
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
            self.mem.as_slice(),
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
