//! The word-model restartable fail-stop machine executor.
//!
//! Each tick the machine plays one update cycle for every alive processor:
//!
//! 1. **Tentative phase** — every alive processor plans its reads, reads the
//!    memory state from the start of the tick (synchronous PRAM: nobody sees
//!    this tick's writes), and computes its writes by advancing its private
//!    state in place.
//! 2. **Adversary phase** — the on-line adversary inspects the whole machine
//!    (including every tentative cycle) and stops/restarts processors.
//! 3. **Commit phase** — surviving write prefixes are merged slot by slot
//!    under the machine's CRCW [`WriteMode`]; processors that completed
//!    their cycle are charged; stopped processors lose their private state.
//!
//! Restarts take effect at the start of the following tick, and the
//! model's progress condition (§2.1 2(i)) is enforced: every tick with any
//! activity must include at least one completed update cycle.
//!
//! Since PR 5 the phase structure itself — run loop, adversary validation,
//! commit merging, accounting, observers, checkpoints — lives in the
//! model-generic [`Core`] (see [`crate::exec`]), shared
//! with the snapshot machine. This module contributes the *word model*:
//! the charged read phase with its plan chain, the [`CycleBudget`]
//! enforcement, and the engines [`Machine::run_with`] chooses between.
//! The pooled engine farms exactly one phase out to a persistent pool of
//! workers: the tentative phase, where every alive processor plans and
//! computes its cycle independently. The commit, the charging and the
//! completion-index maintenance run on the coordinator through the same
//! sequential code every engine uses, so every observable byte is
//! identical to the sequential engine by construction.
//!
//! The engine remains built so a **steady-state tick performs no heap
//! allocation and no thread spawn**: all per-tick buffers live in the core
//! and are reused; the pooled engines park their workers between ticks;
//! and programs that implement [`Program::completion_hint`] replace
//! the per-tick O(memory) completion scan with an O(1) emptiness test on
//! the incremental unvisited index.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use crate::accounting::RunReport;
use crate::adversary::{Adversary, ProcStatus, TentativeCycle};
use crate::checkpoint::Checkpoint;
use crate::cycle::{CycleBudget, ReadSet, Step, MAX_READS, MAX_WRITES};
use crate::error::{BudgetKind, PramError};
use crate::exec::{check_shared_size, Backend, Core, ExecutionModel, SeqBackend};
use crate::memory::{MemoryLayout, SharedMemory};
use crate::mode::WriteMode;
use crate::pool::{panic_detail, SendPtr, TickPool};
use crate::word::{Pid, Word};
use crate::{CompletionHint, Program, Result};

pub use crate::exec::{ExecMode, PanicPolicy, RunControl, RunLimits, RunSpec, RunStatus};

/// The word model's [`ExecutionModel`]: a charged, budgeted read phase
/// (the plan chain) followed by a budgeted write phase.
#[derive(Debug)]
struct WordModel<'p, P: Program> {
    program: &'p P,
    budget: CycleBudget,
}

impl<'p, P: Program> ExecutionModel for WordModel<'p, P> {
    type Private = P::Private;

    const MODEL: &'static str = "word";
    // The word adversary's view predates the unvisited index and stays
    // stable: `MachineView::unvisited` is always `None` here.
    const ADVERSARY_SEES_INDEX: bool = false;

    fn on_start(&self, pid: Pid) -> P::Private {
        self.program.on_start(pid)
    }

    fn is_complete(&self, mem: &SharedMemory) -> bool {
        self.program.is_complete(mem)
    }

    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint {
        self.program.completion_hint(addr, value)
    }

    fn completion_masks(&self, base: usize, values: &[Word]) -> (u64, u64) {
        self.program.completion_masks(base, values)
    }

    fn tentative(&self, core: &mut Core<P::Private>) -> Result<()> {
        tentative_seq(self.program, self.budget, core, false)
    }

    fn partial_instructions(t: &TentativeCycle, committed_writes: usize) -> u64 {
        // Reads and the local computation ran, plus the prefix of writes
        // that committed.
        (t.reads.len() + 1 + committed_writes) as u64
    }

    fn checkpoint_budget(&self) -> (usize, usize) {
        (self.budget.reads, self.budget.writes)
    }
}

/// A restartable fail-stop CRCW PRAM running one [`Program`].
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Machine<'p, P: Program> {
    model: WordModel<'p, P>,
    core: Core<P::Private>,
}

impl<'p, P: Program> Machine<'p, P> {
    /// Build a machine with `processors` processors for `program`.
    ///
    /// Shared memory is allocated per [`Program::shared_size`] and
    /// initialized via [`Program::init_memory`]; every processor starts
    /// alive in its [`Program::on_start`] state.
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if `processors == 0`, if `budget` does
    /// not fit the inline cycle buffers ([`CycleBudget::fits_inline`]), or
    /// if [`Program::shared_size`] exceeds `u32::MAX` cells (checked before
    /// any memory is allocated).
    pub fn new(program: &'p P, processors: usize, budget: CycleBudget) -> Result<Self> {
        Self::with_layout(program, processors, budget, MemoryLayout::Flat)
    }

    /// [`Machine::new`] with an explicit [`MemoryLayout`]. Addresses, CRCW
    /// semantics and results are identical to the flat machine; reads and
    /// writes are charged to per-bank counters, and the Omega network
    /// meter (`rfsp-net`) routes packets to the addresses' banks.
    ///
    /// # Errors
    ///
    /// As [`Machine::new`], plus [`PramError::InvalidConfig`] for invalid
    /// layout parameters ([`MemoryLayout::validate`]).
    pub fn with_layout(
        program: &'p P,
        processors: usize,
        budget: CycleBudget,
        layout: MemoryLayout,
    ) -> Result<Self> {
        if processors == 0 {
            return Err(PramError::InvalidConfig { detail: "need at least one processor".into() });
        }
        if !budget.fits_inline() {
            return Err(PramError::InvalidConfig {
                detail: format!(
                    "cycle budget ({} reads / {} writes) exceeds the inline capacities \
                     ({MAX_READS} reads / {MAX_WRITES} writes)",
                    budget.reads, budget.writes
                ),
            });
        }
        check_shared_size(program.shared_size())?;
        let mut mem = SharedMemory::with_layout(program.shared_size(), layout)?;
        program.init_memory(&mut mem);
        let model = WordModel { program, budget };
        let core = Core::new(&model, processors, mem, WriteMode::Common, budget.writes);
        Ok(Machine { model, core })
    }

    /// Set the concurrent-write semantics (default: COMMON).
    pub fn set_write_mode(&mut self, mode: WriteMode) -> &mut Self {
        self.core.mode = mode;
        self
    }

    /// The shared memory (uncharged inspection).
    pub fn memory(&self) -> &SharedMemory {
        &self.core.mem
    }

    /// Mutable shared memory, for test setup between runs.
    pub fn memory_mut(&mut self) -> &mut SharedMemory {
        // Direct pokes bypass the completion tracker; drop it so the next
        // run reclassifies every cell.
        self.core.tracked = false;
        &mut self.core.mem
    }

    /// Number of processors `P`.
    pub fn processors(&self) -> usize {
        self.core.procs.len()
    }

    /// Current tick.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// Accumulated work statistics.
    pub fn stats(&self) -> &crate::accounting::WorkStats {
        &self.core.stats
    }

    /// Status of processor `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn proc_status(&self, pid: Pid) -> ProcStatus {
        self.core.procs.status[pid.0]
    }

    /// Run to completion under `adversary`: sequential, unobserved, with
    /// default [`RunLimits`] — [`Machine::run_with`] with the default
    /// [`RunSpec`], for any program.
    ///
    /// # Errors
    ///
    /// See [`PramError`]; in particular [`PramError::CycleLimit`] if the
    /// default limit is exhausted.
    pub fn run<A: Adversary>(&mut self, adversary: &mut A) -> Result<RunReport> {
        let Machine { model, core } = self;
        let status =
            core.run_loop(model, adversary, RunLimits::default(), None, None, &mut SeqBackend)?;
        Ok(status.completed().expect("a run without a control hook completes"))
    }

    /// Execute exactly one tick under `adversary`. Exposed for fine-grained
    /// tests and lock-step experiment drivers.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub fn tick<A: Adversary>(&mut self, adversary: &mut A) -> Result<()> {
        self.core.tick(&self.model, adversary)
    }
}

impl<'p, P> Machine<'p, P>
where
    P: Program,
    P::Private: Serialize + Deserialize,
{
    /// Snapshot the machine (and `adversary`) at the current tick boundary
    /// into a versioned [`Checkpoint`].
    ///
    /// Call only between run calls — e.g. after [`Machine::run_with`]
    /// returned [`RunStatus::Paused`] — so the
    /// machine holds no transient tick state. Restoring the checkpoint
    /// into a freshly built machine of the same program, size, budget and
    /// write mode (plus a freshly built adversary of the same kind and
    /// configuration) resumes the run bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] if the adversary is not checkpointable
    /// ([`Adversary::save_state`] returned `None`).
    pub fn save_checkpoint<A: Adversary>(&self, adversary: &A) -> Result<Checkpoint> {
        self.core.save_checkpoint(&self.model, adversary)
    }

    /// Append the machine-state frame of a checkpoint (everything but the
    /// trailing policy payload) to `out` and return its length — the bytes
    /// `save_checkpoint(adversary)?.encode_state_into(out)` writes, encoded
    /// straight from the machine without copying its memory or failure
    /// pattern into a [`Checkpoint`] first. Complete the frame with
    /// [`Checkpoint::encode_policy_into`]; [`Checkpoint::decode`] reads it.
    ///
    /// # Errors
    ///
    /// As [`Machine::save_checkpoint`]; nothing is appended then.
    pub fn encode_checkpoint_into<A: Adversary>(
        &self,
        adversary: &A,
        out: &mut Vec<u8>,
    ) -> Result<usize> {
        self.core.encode_checkpoint_into(&self.model, adversary, out)
    }

    /// Load `ck` into this machine and `adversary`, resuming the
    /// checkpointed run at its tick boundary.
    ///
    /// The machine must be built for the same program shape the checkpoint
    /// was taken from: same model, memory size, processor count, cycle
    /// budget and write mode. Everything is validated **before** anything
    /// is mutated, so a failed restore leaves machine and adversary
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] on a version, model or shape mismatch, an
    /// undecodable private state, an illegal recorded failure pattern, or
    /// an adversary that refuses the saved state.
    pub fn restore_checkpoint<A: Adversary>(
        &mut self,
        ck: &Checkpoint,
        adversary: &mut A,
    ) -> Result<()> {
        self.core.restore_checkpoint(&self.model, ck, adversary)
    }
}

/// Tentatively play one update cycle for processor `pid` against `mem`.
///
/// Sets `*out` to `None` if the processor is not alive; otherwise refills
/// the slot's [`TentativeCycle`] buffers in place (no allocation — every
/// buffer is inline, see [`crate::cycle`]).
///
/// The private state is advanced **in place**: the pre-cycle state is never
/// needed afterwards, because the commit phase either adopts the post-cycle
/// state (cycle completed) or discards the state entirely (the adversary
/// stopped the processor, and a stopped processor loses its private memory —
/// the model has no partial-progress private state).
#[allow(clippy::too_many_arguments)] // the split-borrowed SoA fields arrive separately by design
#[inline]
fn tentative_for<P: Program>(
    program: &P,
    mem: &SharedMemory,
    budget: CycleBudget,
    cycle: u64,
    pid: Pid,
    status: ProcStatus,
    state: &mut Option<P::Private>,
    out: &mut Option<TentativeCycle>,
) -> Result<()> {
    if status != ProcStatus::Alive {
        *out = None;
        return Ok(());
    }
    let state = state.as_mut().expect("alive processor must have private state");
    let t = out.get_or_insert_with(TentativeCycle::default);
    t.reads.clear();
    t.values.clear();
    t.writes.clear();
    t.halts = false;
    // Drive the plan chain: reads within a cycle may depend on values read
    // earlier in the same cycle (ordinary sequential instructions).
    loop {
        let mut batch = ReadSet::default();
        program.plan(pid, state, &t.values, &mut batch);
        if batch.is_empty() {
            break;
        }
        if t.reads.len() + batch.len() > budget.reads {
            return Err(PramError::BudgetExceeded {
                pid,
                cycle,
                kind: BudgetKind::Reads,
                used: t.reads.len() + batch.len(),
                limit: budget.reads,
            });
        }
        for &addr in batch.addrs() {
            if addr >= mem.size() {
                return Err(PramError::AddressOutOfBounds { addr, size: mem.size() });
            }
            t.values.push(mem.peek(addr));
            t.reads.push(addr);
        }
    }
    let step = program.execute(pid, state, &t.values, &mut t.writes);
    if t.writes.len() > budget.writes {
        return Err(PramError::BudgetExceeded {
            pid,
            cycle,
            kind: BudgetKind::Writes,
            used: t.writes.len(),
            limit: budget.writes,
        });
    }
    for &(addr, _) in t.writes.writes() {
        if addr >= mem.size() {
            return Err(PramError::AddressOutOfBounds { addr, size: mem.size() });
        }
    }
    t.halts = matches!(step, Step::Halt);
    Ok(())
}

/// Play one processor's cycle, catching a panic in program code as
/// [`PramError::WorkerPanic`] naming `pid` instead of unwinding.
fn caught(pid: Pid, play: impl FnOnce() -> Result<()>) -> Result<()> {
    catch_unwind(AssertUnwindSafe(play)).unwrap_or_else(|payload| {
        Err(PramError::WorkerPanic { pid: Some(pid), detail: panic_detail(payload.as_ref()) })
    })
}

/// The sequential tentative phase: [`tentative_for`] for every processor
/// in PID order, each under [`caught`] when `isolated`.
fn tentative_seq<P: Program>(
    program: &P,
    budget: CycleBudget,
    core: &mut Core<P::Private>,
    isolated: bool,
) -> Result<()> {
    let (mem, cycle) = (&core.mem, core.cycle);
    let statuses = &core.procs.status;
    for (i, (state, out)) in core.procs.state.iter_mut().zip(core.tentative.iter_mut()).enumerate()
    {
        let mut play =
            || tentative_for(program, mem, budget, cycle, Pid(i), statuses[i], state, out);
        if isolated {
            caught(Pid(i), play)?;
        } else {
            play()?;
        }
    }
    Ok(())
}

/// The parallel tentative phase: pool workers claim chunks of the
/// processor range from the shared cursor and fill the corresponding
/// tentative slots, each cycle under [`caught`] when `isolated`. With the
/// structure-of-arrays processor state only the private states need a raw
/// [`SendPtr`]: statuses are read-only during the tentative phase and are
/// shared as a plain slice.
fn tentative_pooled<P>(
    program: &P,
    budget: CycleBudget,
    core: &mut Core<P::Private>,
    pool: &TickPool,
    isolated: bool,
) -> Result<()>
where
    P: Program + Sync,
    P::Private: Send,
{
    let p = core.procs.len();
    let (mem, cycle) = (&core.mem, core.cycle);
    let statuses: &[ProcStatus] = &core.procs.status;
    let states = SendPtr::new(core.procs.state.as_mut_ptr());
    let tentative = SendPtr::new(core.tentative.as_mut_ptr());
    pool.run_tick(p, &move |start: usize, end: usize| {
        #[allow(clippy::needless_range_loop)] // `i` also offsets the raw SoA pointers
        for i in start..end {
            // SAFETY: the pool's cursor hands out disjoint [start, end)
            // chunks within 0..p, so slot `i` is touched by exactly one
            // worker this tick; `run_tick` blocks until every worker is
            // done, so the pointers outlive all dereferences.
            let state = unsafe { &mut *states.ptr().add(i) };
            let out = unsafe { &mut *tentative.ptr().add(i) };
            let mut play =
                || tentative_for(program, mem, budget, cycle, Pid(i), statuses[i], state, out);
            if isolated {
                caught(Pid(i), play)?;
            } else {
                play()?;
            }
        }
        Ok(())
    })
}

/// The sequential panic-isolating backend: every processor's cycle runs
/// under [`caught`]. Used for isolated sequential runs and as the degraded
/// mode of an isolated [`PooledBackend`].
struct CaughtBackend;

impl<'p, P: Program> Backend<WordModel<'p, P>> for CaughtBackend {
    fn tentative(&mut self, model: &WordModel<'p, P>, core: &mut Core<P::Private>) -> Result<()> {
        tentative_seq(model.program, model.budget, core, true)
    }
}

/// The pooled word backend: the tentative phase runs on the worker pool;
/// the commit and the index prime stay on the sequential path in
/// [`Core::run_loop`]. Results are pinned byte-identical to [`SeqBackend`]
/// by the golden and differential tests.
///
/// With `isolation` set, each tick backs up every private state before
/// the pooled phase, restores them if a worker catches a panic, and then
/// either surfaces the error or degrades to the sequential caught engine
/// for the rest of the run segment per the [`PanicPolicy`]. Without
/// isolation `backup` stays empty.
struct PooledBackend<'a, S> {
    pool: &'a TickPool,
    isolation: Option<PanicPolicy>,
    backup: Vec<Option<S>>,
    degraded: bool,
}

impl<'p, P> Backend<WordModel<'p, P>> for PooledBackend<'_, P::Private>
where
    P: Program + Sync,
    P::Private: Send,
{
    fn tentative(&mut self, model: &WordModel<'p, P>, core: &mut Core<P::Private>) -> Result<()> {
        let (program, budget) = (model.program, model.budget);
        let Some(policy) = self.isolation else {
            return tentative_pooled(program, budget, core, self.pool, false);
        };
        if self.degraded {
            return tentative_seq(program, budget, core, true);
        }
        // Snapshot every private state: the tentative phase advances
        // states in place, so recovering from a panic mid-phase needs the
        // pre-tick originals.
        self.backup.clone_from(&core.procs.state);
        match tentative_pooled(program, budget, core, self.pool, true) {
            Err(PramError::WorkerPanic { pid, detail }) => {
                core.procs.state.clone_from(&self.backup);
                match policy {
                    PanicPolicy::Surface => Err(PramError::WorkerPanic { pid, detail }),
                    PanicPolicy::FallbackSequential => {
                        self.degraded = true;
                        // Replay the whole tick sequentially from the
                        // restored pre-tick states — nothing had committed,
                        // so the replay is identical to a clean tick.
                        tentative_seq(program, budget, core, true)
                    }
                }
            }
            other => other,
        }
    }
}

impl<'p, P> Machine<'p, P>
where
    P: Program + Sync,
    P::Private: Send,
{
    /// Run one segment under `adversary` as `spec` says: until the program
    /// completes, or until `spec.control` pauses at a tick boundary.
    ///
    /// `spec.exec` and `spec.isolation` pick the engine; every engine gives
    /// the same results and event stream as the sequential one:
    ///
    /// | `exec` | `isolation` | engine |
    /// |---|---|---|
    /// | `Sequential`, `Threads(1)` | `None` | sequential |
    /// | `Sequential`, `Threads(1)` | `Some` | sequential, each cycle under `catch_unwind` |
    /// | `Threads(n ≥ 2)`, `Pool` | `None` | pooled: tentative phase on the workers |
    /// | `Threads(n ≥ 2)`, `Pool` | `Some` | pooled: tentative phase on the workers, each cycle under `catch_unwind` |
    ///
    /// Every engine commits, charges and maintains the completion index
    /// on the calling thread through the same sequential code.
    ///
    /// The pooled engines park their workers between ticks, so a
    /// steady-state tick spawns no thread. The isolated engines catch a
    /// panic in program code (`plan`/`execute`) per processor and restore
    /// the pre-tick private states; the [`PanicPolicy`] then either
    /// surfaces [`PramError::WorkerPanic`] with the machine intact at the
    /// tick boundary, or replays the tick sequentially and finishes the
    /// segment on the sequential isolated engine. Isolation costs one clone
    /// of every private state per pooled tick.
    ///
    /// # Errors
    ///
    /// See [`PramError`]. Additionally [`PramError::InvalidConfig`] for
    /// `ExecMode::Threads(0)`, and [`PramError::WorkerPanic`] if a panic
    /// fires under [`PanicPolicy::Surface`] (or repeats during a sequential
    /// replay under [`PanicPolicy::FallbackSequential`]).
    pub fn run_with<A: Adversary>(
        &mut self,
        adversary: &mut A,
        spec: RunSpec<'_>,
    ) -> Result<RunStatus> {
        let RunSpec { limits, exec, isolation, observer, control } = spec;
        let ephemeral;
        let shared = match exec {
            ExecMode::Sequential | ExecMode::Threads(1) => None,
            ExecMode::Threads(0) => {
                return Err(PramError::InvalidConfig { detail: "need at least one thread".into() })
            }
            ExecMode::Threads(threads) => {
                ephemeral = SharedPool::new(threads)?;
                Some(&ephemeral)
            }
            ExecMode::Pool(pool) => Some(pool),
        };
        let _turn = shared.map(SharedPool::take_turn);
        let Machine { model, core } = self;
        let (mut seq, mut seq_caught, mut pooled);
        let backend: &mut dyn Backend<WordModel<'p, P>> = match (shared, isolation) {
            (None, None) => {
                seq = SeqBackend;
                &mut seq
            }
            (None, Some(_)) => {
                seq_caught = CaughtBackend;
                &mut seq_caught
            }
            (Some(shared), isolation) => {
                pooled = PooledBackend {
                    pool: &shared.pool,
                    isolation,
                    backup: Vec::new(),
                    degraded: false,
                };
                &mut pooled
            }
        };
        core.run_loop(model, adversary, limits, observer, control, backend)
    }
}

/// A persistent worker pool that run segments drive through
/// [`ExecMode::Pool`].
///
/// `SharedPool` owns its workers for as long as the value lives, so a
/// daemon can multiplex many paused runs over one set of OS threads. Any
/// thread may drive a segment on it, one segment at a time: an internal
/// turn lock serializes drivers, and each driver becomes the pool's
/// coordinator before its first tick. [`ExecMode::Threads`] builds one
/// for a single segment.
pub struct SharedPool {
    pool: Arc<TickPool>,
    /// Serializes run segments: at most one coordinator drives the workers
    /// at any moment.
    turn: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SharedPool {
    /// Spawn `threads` parked workers (`threads >= 2`; a single thread
    /// should use the sequential engine instead — the pool's coordination
    /// protocol assumes at least two workers).
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if `threads < 2`.
    pub fn new(threads: usize) -> Result<Self> {
        if threads < 2 {
            return Err(PramError::InvalidConfig {
                detail: "a shared pool needs at least two threads".into(),
            });
        }
        let pool = Arc::new(TickPool::new(threads));
        let handles = (0..threads)
            .map(|rank| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.worker(rank))
            })
            .collect();
        Ok(SharedPool { pool, turn: Mutex::new(()), handles })
    }

    /// Number of worker threads the pool owns.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Take the pool's turn for one run segment and make the calling
    /// thread its coordinator. A segment that panicked while holding the
    /// turn left the pool itself consistent, so poisoning is ignored.
    fn take_turn(&self) -> MutexGuard<'_, ()> {
        let turn = self.turn.lock().unwrap_or_else(PoisonError::into_inner);
        self.pool.bind_coordinator();
        turn
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        self.pool.shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::RunOutcome;
    use crate::adversary::{Decisions, FailPoint, MachineView, NoFailures};
    use crate::cycle::WriteSet;
    use crate::Program;

    fn threads(n: usize) -> RunSpec<'static> {
        RunSpec { exec: ExecMode::Threads(n), ..RunSpec::default() }
    }

    /// Each processor repeatedly increments its own cell until it reaches
    /// `target`, then halts.
    struct Counter {
        n: usize,
        target: Word,
    }

    impl Program for Counter {
        type Private = ();
        fn shared_size(&self) -> usize {
            self.n
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
            if values.is_empty() {
                reads.push(pid.0);
            }
        }
        fn execute(&self, pid: Pid, _st: &mut (), vals: &[Word], writes: &mut WriteSet) -> Step {
            if vals[0] >= self.target {
                return Step::Halt;
            }
            writes.push(pid.0, vals[0] + 1);
            Step::Continue
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            (0..self.n).all(|i| mem.peek(i) >= self.target)
        }
    }

    #[test]
    fn counter_completes_without_failures() {
        let prog = Counter { n: 4, target: 3 };
        let mut m = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut NoFailures).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed);
        // 3 increments per processor; completion is detected before the
        // halting cycle runs.
        assert_eq!(report.stats.completed_cycles, 12);
        assert_eq!(report.stats.parallel_time, 3);
        assert!(report.pattern.is_empty());
        assert_eq!(m.memory().peek(0), 3);
    }

    /// A [`SharedPool`] outlives any one run segment and may be driven
    /// from whichever thread holds the turn: pause on one thread, finish
    /// on another, and the result still matches the sequential engine.
    #[test]
    fn shared_pool_runs_segments_from_different_threads() {
        assert!(SharedPool::new(1).is_err());
        let pool = SharedPool::new(2).unwrap();
        assert_eq!(pool.threads(), 2);
        let prog = Counter { n: 8, target: 5 };
        let mut m = Machine::new(&prog, 8, CycleBudget::PAPER).unwrap();
        let pooled = || RunSpec {
            exec: ExecMode::Pool(&pool),
            isolation: Some(PanicPolicy::Surface),
            ..RunSpec::default()
        };
        let pause = &mut |c| if c >= 2 { RunControl::Pause } else { RunControl::Continue };
        let status =
            m.run_with(&mut NoFailures, RunSpec { control: Some(pause), ..pooled() }).unwrap();
        assert!(matches!(status, RunStatus::Paused { cycle: 2 }));
        let status = std::thread::scope(|s| {
            s.spawn(|| m.run_with(&mut NoFailures, pooled()).unwrap()).join().unwrap()
        });
        let RunStatus::Completed(report) = status else {
            panic!("expected completion, got {status:?}");
        };
        assert_eq!(report.outcome, RunOutcome::Completed);
        let prog2 = Counter { n: 8, target: 5 };
        let mut seq = Machine::new(&prog2, 8, CycleBudget::PAPER).unwrap();
        let seq_report = seq.run(&mut NoFailures).unwrap();
        assert_eq!(report.stats, seq_report.stats);
    }

    /// Adversary that fails processor 1 before its writes in cycle 0 and
    /// restarts it for cycle 2.
    struct OneHiccup;
    impl Adversary for OneHiccup {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            if view.cycle == 0 {
                d.fail(Pid(1), FailPoint::BeforeWrites);
            }
            if view.cycle == 1 {
                d.restart(Pid(1));
            }
            d
        }
    }

    #[test]
    fn failure_discards_writes_and_is_not_charged() {
        let prog = Counter { n: 2, target: 2 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut OneHiccup).unwrap();
        // P0: 2 increments plus a charged halting cycle. P1: loses cycle 0,
        // idle cycle 1, increments in cycles 2 and 3.
        assert_eq!(m.memory().peek(0), 2);
        assert_eq!(m.memory().peek(1), 2);
        assert_eq!(report.stats.interrupted_cycles, 1);
        assert_eq!(report.stats.failures, 1);
        assert_eq!(report.stats.restarts, 1);
        assert_eq!(report.stats.pattern_size(), 2);
        assert_eq!(report.stats.completed_cycles, 5);
        assert_eq!(report.stats.parallel_time, 4);
        // S' = S + interrupted.
        assert_eq!(report.stats.s_prime(), 6);
    }

    /// Stops P1 once `BeforeWrites` (cycle 0) and once `BeforeReads`
    /// (cycle 2), restarting it after each.
    struct TwoStops;
    impl Adversary for TwoStops {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            match view.cycle {
                0 => {
                    d.fail(Pid(1), FailPoint::BeforeWrites);
                }
                1 | 3 => {
                    d.restart(Pid(1));
                }
                2 => {
                    d.fail(Pid(1), FailPoint::BeforeReads);
                }
                _ => {}
            }
            d
        }
    }

    /// Pins the `S'` partial-work accounting per fail point: a cycle
    /// stopped `BeforeWrites` is charged its reads and computation
    /// (`reads + 1 + 0`), a cycle stopped `BeforeReads` executed nothing
    /// and is charged 0 (via `CycleFate::InterruptedBeforeReads`, not a
    /// sentinel).
    #[test]
    fn partial_instructions_distinguish_fail_points() {
        let prog = Counter { n: 2, target: 2 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut TwoStops).unwrap();
        assert_eq!(report.stats.interrupted_cycles, 2);
        // Cycle 0 (BeforeWrites): 1 read + 1 compute + 0 writes = 2.
        // Cycle 2 (BeforeReads): 0.
        assert_eq!(report.stats.partial_instructions, 2);
        assert_eq!(report.stats.failures, 2);
        assert_eq!(report.stats.restarts, 2);
        assert_eq!(m.memory().peek(1), 2);
    }

    /// Pins the read instrumentation: a read is charged iff the cycle's
    /// read phase actually ran. Under [`TwoStops`], processor 0 completes
    /// cycles 0–2 (3 reads), processor 1 is stopped `BeforeWrites` in
    /// cycle 0 (read ran: 1), stopped `BeforeReads` in cycle 2 (read never
    /// ran: 0), then completes cycles 4–5 after its restart (2 reads).
    #[test]
    fn read_count_charges_executed_read_phases() {
        let prog = Counter { n: 2, target: 2 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        m.run(&mut TwoStops).unwrap();
        assert_eq!(m.memory().read_count(), 6);
    }

    /// Write-conflict program: both processors write different values to
    /// cell 0.
    struct Clash;
    impl Program for Clash {
        type Private = ();
        fn shared_size(&self) -> usize {
            1
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, _pid: Pid, _st: &(), _vals: &[Word], _reads: &mut ReadSet) {}
        fn execute(&self, pid: Pid, _st: &mut (), _v: &[Word], writes: &mut WriteSet) -> Step {
            writes.push(0, pid.0 as Word + 1);
            Step::Halt
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            mem.peek(0) != 0
        }
    }

    #[test]
    fn common_mode_detects_conflicts() {
        let prog = Clash;
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let err = m.run(&mut NoFailures).unwrap_err();
        assert!(matches!(err, PramError::CommonWriteConflict { addr: 0, .. }));
    }

    #[test]
    fn arbitrary_mode_lowest_pid_wins() {
        let prog = Clash;
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        m.set_write_mode(WriteMode::Arbitrary);
        m.run(&mut NoFailures).unwrap();
        assert_eq!(m.memory().peek(0), 1); // P0's value
    }

    #[test]
    fn exclusive_mode_rejects_concurrent_writes() {
        let prog = Clash;
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        m.set_write_mode(WriteMode::Exclusive);
        let err = m.run(&mut NoFailures).unwrap_err();
        assert!(matches!(err, PramError::ExclusiveWriteConflict { addr: 0, .. }));
    }

    /// Adversary failing everyone mid-cycle — must be rejected.
    struct KillAll;
    impl Adversary for KillAll {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            for pid in view.active_pids() {
                d.fail(pid, FailPoint::BeforeWrites);
            }
            d
        }
    }

    #[test]
    fn stalling_adversary_is_rejected() {
        let prog = Counter { n: 2, target: 1 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let err = m.run(&mut KillAll).unwrap_err();
        assert_eq!(err, PramError::AdversaryStall { cycle: 0 });
    }

    /// A program that halts immediately without completing — deadlock.
    struct GiveUp;
    impl Program for GiveUp {
        type Private = ();
        fn shared_size(&self) -> usize {
            1
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, _pid: Pid, _st: &(), _vals: &[Word], _reads: &mut ReadSet) {}
        fn execute(&self, _pid: Pid, _st: &mut (), _v: &[Word], _w: &mut WriteSet) -> Step {
            Step::Halt
        }
        fn is_complete(&self, _mem: &SharedMemory) -> bool {
            false
        }
    }

    #[test]
    fn deadlock_is_detected() {
        let prog = GiveUp;
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let err = m.run(&mut NoFailures).unwrap_err();
        assert!(matches!(err, PramError::Deadlock { .. }));
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let prog = Counter { n: 1, target: 1_000 };
        let mut m = Machine::new(&prog, 1, CycleBudget::PAPER).unwrap();
        let limits = RunLimits { max_cycles: 10 };
        let err =
            m.run_with(&mut NoFailures, RunSpec { limits, ..RunSpec::default() }).unwrap_err();
        assert_eq!(err, PramError::CycleLimit { cycles: 10 });
    }

    /// Failing after the final write both commits and charges the cycle.
    struct FailAfterFinalWrite;
    impl Adversary for FailAfterFinalWrite {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            if view.cycle == 0 {
                if let Some(t) = view.tentative[1].as_ref() {
                    d.fail(Pid(1), FailPoint::AfterWrite(t.writes.len()));
                    d.restart(Pid(1));
                }
            }
            d
        }
    }

    #[test]
    fn fail_after_last_write_still_charges_cycle() {
        let prog = Counter { n: 2, target: 2 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut FailAfterFinalWrite).unwrap();
        assert_eq!(m.memory().peek(1), 2);
        assert_eq!(report.stats.interrupted_cycles, 0);
        assert_eq!(report.stats.failures, 1);
        // P1's cycle-0 write committed even though it then failed.
        assert_eq!(report.stats.completed_cycles, 4);
    }

    #[test]
    fn budget_violation_is_reported() {
        struct Greedy;
        impl Program for Greedy {
            type Private = ();
            fn shared_size(&self) -> usize {
                8
            }
            fn on_start(&self, _pid: Pid) {}
            fn plan(&self, _pid: Pid, _st: &(), _vals: &[Word], reads: &mut ReadSet) {
                for a in 0..5 {
                    reads.push(a);
                }
            }
            fn execute(&self, _p: Pid, _s: &mut (), _v: &[Word], _w: &mut WriteSet) -> Step {
                Step::Halt
            }
            fn is_complete(&self, _mem: &SharedMemory) -> bool {
                false
            }
        }
        let prog = Greedy;
        let mut m = Machine::new(&prog, 1, CycleBudget::PAPER).unwrap();
        let err = m.run(&mut NoFailures).unwrap_err();
        assert!(matches!(
            err,
            PramError::BudgetExceeded { kind: BudgetKind::Reads, used: 5, limit: 4, .. }
        ));
    }

    /// Two write slots under COMMON: slot 0 writes each processor's own
    /// cell, slot 1 writes conflicting values to the shared last cell.
    struct SlotClash {
        p: usize,
    }

    impl Program for SlotClash {
        type Private = ();
        fn shared_size(&self) -> usize {
            self.p + 1
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, _pid: Pid, _st: &(), _vals: &[Word], _reads: &mut ReadSet) {}
        fn execute(&self, pid: Pid, _st: &mut (), _v: &[Word], writes: &mut WriteSet) -> Step {
            writes.push(pid.0, 1);
            writes.push(self.p, pid.0 as Word + 1);
            Step::Halt
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            mem.peek(self.p) != 0
        }
    }

    /// A CRCW conflict leaves the same error, memory image and write count
    /// on every engine: the commit that detects it is the same sequential
    /// code behind all of them.
    #[test]
    fn common_conflict_leaves_the_same_state_on_every_engine() {
        let prog = SlotClash { p: 4 };
        let specs = [
            RunSpec::default(),
            threads(2),
            RunSpec { isolation: Some(PanicPolicy::Surface), ..threads(2) },
        ];
        let outcomes: Vec<_> = specs
            .into_iter()
            .map(|spec| {
                let mut m = Machine::new(&prog, prog.p, CycleBudget::PAPER).unwrap();
                let err = m.run_with(&mut NoFailures, spec).unwrap_err();
                (err, m.memory().as_slice().to_vec(), m.memory().write_count())
            })
            .collect();
        let (err, mem, writes) = &outcomes[0];
        assert!(matches!(err, PramError::CommonWriteConflict { addr: 4, cycle: 0, .. }), "{err:?}");
        assert_eq!(mem, &[1, 1, 1, 1, 0], "slot 0 committed before slot 1 conflicted");
        assert_eq!(*writes, 4);
        for other in &outcomes[1..] {
            assert_eq!(other, &outcomes[0]);
        }
    }

    /// A program whose memory the completion index cannot address is
    /// refused before the memory is allocated.
    #[test]
    fn oversized_memory_is_refused_before_allocation() {
        let prog = Counter { n: 1 << 32, target: 1 };
        assert!(matches!(
            Machine::new(&prog, 1, CycleBudget::PAPER),
            Err(PramError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn oversized_budget_is_rejected() {
        let prog = Counter { n: 1, target: 1 };
        assert!(matches!(
            Machine::new(&prog, 1, CycleBudget { reads: MAX_READS + 1, writes: 1 }),
            Err(PramError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Machine::new(&prog, 1, CycleBudget { reads: 1, writes: MAX_WRITES + 1 }),
            Err(PramError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn threaded_run_matches_sequential() {
        let prog = Counter { n: 16, target: 5 };
        let mut seq = Machine::new(&prog, 16, CycleBudget::PAPER).unwrap();
        let seq_report = seq.run(&mut OneHiccup).unwrap();
        let mut par = Machine::new(&prog, 16, CycleBudget::PAPER).unwrap();
        let par_report = par.run_with(&mut OneHiccup, threads(4)).unwrap().completed().unwrap();
        assert_eq!(seq_report.stats, par_report.stats);
        assert_eq!(seq_report.pattern, par_report.pattern);
        assert_eq!(seq.memory().as_slice(), par.memory().as_slice());
    }

    /// `threads == 1` routes to the sequential tentative phase (no pool)
    /// and reports identical stats.
    #[test]
    fn single_threaded_run_matches_sequential() {
        let prog = Counter { n: 8, target: 4 };
        let mut seq = Machine::new(&prog, 8, CycleBudget::PAPER).unwrap();
        let seq_report = seq.run(&mut OneHiccup).unwrap();
        let mut one = Machine::new(&prog, 8, CycleBudget::PAPER).unwrap();
        let one_report = one.run_with(&mut OneHiccup, threads(1)).unwrap().completed().unwrap();
        assert_eq!(seq_report.stats, one_report.stats);
        assert_eq!(seq_report.pattern, one_report.pattern);
        assert_eq!(seq.memory().as_slice(), one.memory().as_slice());
    }

    #[test]
    fn threaded_run_rejects_zero_threads() {
        let prog = Counter { n: 2, target: 1 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        assert!(matches!(
            m.run_with(&mut NoFailures, threads(0)),
            Err(PramError::InvalidConfig { .. })
        ));
    }

    /// Counter with an incremental completion hint: cell `i` is satisfied
    /// once it reaches `target`.
    struct HintedCounter {
        n: usize,
        target: Word,
    }

    impl Program for HintedCounter {
        type Private = ();
        fn shared_size(&self) -> usize {
            self.n
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
            if values.is_empty() {
                reads.push(pid.0);
            }
        }
        fn execute(&self, pid: Pid, _st: &mut (), vals: &[Word], writes: &mut WriteSet) -> Step {
            if vals[0] >= self.target {
                return Step::Halt;
            }
            writes.push(pid.0, vals[0] + 1);
            Step::Continue
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            (0..self.n).all(|i| mem.peek(i) >= self.target)
        }
        fn completion_hint(&self, _addr: usize, value: Word) -> CompletionHint {
            if value >= self.target {
                CompletionHint::Satisfied
            } else {
                CompletionHint::Outstanding
            }
        }
    }

    /// The tracked engine must behave exactly like the full-scan engine
    /// (the run-loop debug_assert also cross-checks the index against
    /// `is_complete` every tick).
    #[test]
    fn completion_hint_matches_full_scan() {
        let plain = Counter { n: 4, target: 3 };
        let mut m1 = Machine::new(&plain, 4, CycleBudget::PAPER).unwrap();
        let r1 = m1.run(&mut OneHiccup).unwrap();
        let hinted = HintedCounter { n: 4, target: 3 };
        let mut m2 = Machine::new(&hinted, 4, CycleBudget::PAPER).unwrap();
        let r2 = m2.run(&mut OneHiccup).unwrap();
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(m1.memory().as_slice(), m2.memory().as_slice());
    }

    /// The tracker must survive a second run on the same machine (it is
    /// re-primed from memory at every run entry).
    #[test]
    fn completion_tracker_reinitializes_between_runs() {
        let hinted = HintedCounter { n: 2, target: 1 };
        let mut m = Machine::new(&hinted, 2, CycleBudget::PAPER).unwrap();
        m.run(&mut NoFailures).unwrap();
        for i in 0..2 {
            m.memory_mut().poke(i, 0);
        }
        let report = m.run(&mut NoFailures).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_eq!(m.memory().peek(0), 1);
        assert_eq!(m.memory().peek(1), 1);
    }

    #[test]
    fn zero_processors_is_invalid() {
        let prog = Counter { n: 1, target: 1 };
        assert!(matches!(
            Machine::new(&prog, 0, CycleBudget::PAPER),
            Err(PramError::InvalidConfig { .. })
        ));
    }

    /// Counter whose `execute` panics exactly once, on `victim`'s first
    /// cycle — a model of faulty host code for the panic-isolation engine.
    struct BoobyTrap {
        n: usize,
        target: Word,
        victim: usize,
        fired: std::sync::atomic::AtomicBool,
    }

    impl Program for BoobyTrap {
        type Private = ();
        fn shared_size(&self) -> usize {
            self.n
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
            if values.is_empty() {
                reads.push(pid.0);
            }
        }
        fn execute(&self, pid: Pid, _st: &mut (), vals: &[Word], writes: &mut WriteSet) -> Step {
            if pid.0 == self.victim && !self.fired.swap(true, std::sync::atomic::Ordering::SeqCst) {
                panic!("injected fault in P{}", pid.0);
            }
            if vals[0] >= self.target {
                return Step::Halt;
            }
            writes.push(pid.0, vals[0] + 1);
            Step::Continue
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            (0..self.n).all(|i| mem.peek(i) >= self.target)
        }
    }

    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    /// Under `FallbackSequential`, a panicking program degrades to the
    /// sequential engine mid-run and still produces results identical to a
    /// clean run of the same algorithm.
    #[test]
    fn panic_fallback_matches_clean_run() {
        with_quiet_panics(|| {
            let clean = Counter { n: 8, target: 4 };
            let mut reference = Machine::new(&clean, 8, CycleBudget::PAPER).unwrap();
            let expected = reference.run(&mut NoFailures).unwrap();

            let trapped = BoobyTrap {
                n: 8,
                target: 4,
                victim: 3,
                fired: std::sync::atomic::AtomicBool::new(false),
            };
            let mut m = Machine::new(&trapped, 8, CycleBudget::PAPER).unwrap();
            let spec = RunSpec { isolation: Some(PanicPolicy::FallbackSequential), ..threads(4) };
            let report = m.run_with(&mut NoFailures, spec).unwrap().completed().unwrap();
            assert!(trapped.fired.load(std::sync::atomic::Ordering::SeqCst));
            assert_eq!(report.stats, expected.stats);
            assert_eq!(report.per_processor, expected.per_processor);
            assert_eq!(m.memory().as_slice(), reference.memory().as_slice());
        });
    }

    /// The sequential replay after a worker panic re-runs the *tentative*
    /// phase only — nothing had committed, so the memory read/write
    /// counters (total and per-bank) must equal an uninterrupted run's,
    /// not charge the tick twice.
    #[test]
    fn panic_fallback_does_not_double_charge_counters() {
        with_quiet_panics(|| {
            let layout = MemoryLayout::Banked { banks: 3, interleave: 1 };
            let clean = Counter { n: 8, target: 4 };
            let mut reference =
                Machine::with_layout(&clean, 8, CycleBudget::PAPER, layout).unwrap();
            reference.run(&mut NoFailures).unwrap();

            let trapped = BoobyTrap {
                n: 8,
                target: 4,
                victim: 3,
                fired: std::sync::atomic::AtomicBool::new(false),
            };
            let mut m = Machine::with_layout(&trapped, 8, CycleBudget::PAPER, layout).unwrap();
            let spec = RunSpec { isolation: Some(PanicPolicy::FallbackSequential), ..threads(4) };
            m.run_with(&mut NoFailures, spec).unwrap();
            assert!(trapped.fired.load(std::sync::atomic::Ordering::SeqCst));
            assert_eq!(m.memory().read_count(), reference.memory().read_count());
            assert_eq!(m.memory().write_count(), reference.memory().write_count());
            assert_eq!(m.memory().bank_counters(), reference.memory().bank_counters());
        });
    }

    /// Under `Surface`, the panic aborts the run as a `WorkerPanic` naming
    /// the processor — and the machine is left consistent at the tick
    /// boundary, so the run can even be finished afterwards.
    #[test]
    fn panic_surface_reports_pid_and_leaves_machine_resumable() {
        with_quiet_panics(|| {
            let trapped = BoobyTrap {
                n: 8,
                target: 4,
                victim: 5,
                fired: std::sync::atomic::AtomicBool::new(false),
            };
            let mut m = Machine::new(&trapped, 8, CycleBudget::PAPER).unwrap();
            let spec = RunSpec { isolation: Some(PanicPolicy::Surface), ..threads(4) };
            let err = m.run_with(&mut NoFailures, spec).unwrap_err();
            assert!(
                matches!(&err, PramError::WorkerPanic { pid: Some(Pid(5)), detail }
                    if detail.contains("injected fault")),
                "unexpected error: {err:?}"
            );
            // The pre-tick states were restored: the interrupted run can
            // simply continue (the trap only fires once).
            let report = m.run(&mut NoFailures).unwrap();
            let clean = Counter { n: 8, target: 4 };
            let mut reference = Machine::new(&clean, 8, CycleBudget::PAPER).unwrap();
            let expected = reference.run(&mut NoFailures).unwrap();
            assert_eq!(report.stats, expected.stats);
            assert_eq!(m.memory().as_slice(), reference.memory().as_slice());
        });
    }

    /// Pause mid-run, checkpoint, restore into a *fresh* machine and
    /// adversary, finish — and get the identical report, memory and
    /// concatenated event stream as the uninterrupted run.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        use crate::failure::ScheduledAdversary;
        use crate::trace::TraceRecorder;

        let prog = Counter { n: 4, target: 3 };

        // Record a pattern worth replaying (a failure + a restart).
        let mut m0 = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let pattern = m0.run(&mut OneHiccup).unwrap().pattern;
        assert!(!pattern.is_empty());

        // Uninterrupted reference run under the replayed pattern.
        let mut straight = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let mut straight_trace = TraceRecorder::unbounded();
        let expected = straight
            .run_with(
                &mut ScheduledAdversary::new(pattern.clone()),
                RunSpec { observer: Some(&mut straight_trace), ..RunSpec::default() },
            )
            .unwrap()
            .completed()
            .unwrap();

        // Interrupted run: pause before tick 2, checkpoint, drop everything.
        let mut first = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let mut adv1 = ScheduledAdversary::new(pattern.clone());
        let mut trace1 = TraceRecorder::unbounded();
        let pause = &mut |cycle| if cycle == 2 { RunControl::Pause } else { RunControl::Continue };
        let spec =
            RunSpec { observer: Some(&mut trace1), control: Some(pause), ..RunSpec::default() };
        let status = first.run_with(&mut adv1, spec).unwrap();
        assert!(matches!(status, RunStatus::Paused { cycle: 2 }));
        let ck = first.save_checkpoint(&adv1).unwrap();
        drop(first);
        drop(adv1);

        // Resume in a fresh machine + fresh adversary.
        let mut second = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let mut adv2 = ScheduledAdversary::new(pattern);
        second.restore_checkpoint(&ck, &mut adv2).unwrap();
        assert_eq!(second.cycle(), 2);
        let mut trace2 = TraceRecorder::unbounded();
        let spec = RunSpec { observer: Some(&mut trace2), ..RunSpec::default() };
        let report = second.run_with(&mut adv2, spec).unwrap().completed().unwrap();

        assert_eq!(report.stats, expected.stats);
        assert_eq!(report.pattern, expected.pattern);
        assert_eq!(report.per_processor, expected.per_processor);
        assert_eq!(second.memory().as_slice(), straight.memory().as_slice());
        let concatenated: Vec<_> = trace1.events().chain(trace2.events()).cloned().collect();
        let straight_events: Vec<_> = straight_trace.events().cloned().collect();
        assert_eq!(concatenated, straight_events);
    }

    /// A checkpoint survives the codec round-trip and restore rejects a
    /// machine of the wrong shape.
    #[test]
    fn checkpoint_codec_and_shape_validation() {
        use crate::checkpoint::Checkpoint;

        let prog = Counter { n: 4, target: 3 };
        let mut m = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let pause = &mut |c| if c == 1 { RunControl::Pause } else { RunControl::Continue };
        let status =
            m.run_with(&mut NoFailures, RunSpec { control: Some(pause), ..RunSpec::default() });
        let status = status.unwrap();
        assert!(matches!(status, RunStatus::Paused { cycle: 1 }));
        let mut bytes = Vec::new();
        m.save_checkpoint(&NoFailures).unwrap().encode_into(&mut bytes);
        let ck = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(ck.model, "word");

        // Wrong processor count.
        let mut wrong = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let err = wrong.restore_checkpoint(&ck, &mut NoFailures).unwrap_err();
        assert!(matches!(&err, PramError::Checkpoint { detail } if detail.contains("processors")));

        // Right shape restores and completes.
        let mut right = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        right.restore_checkpoint(&ck, &mut NoFailures).unwrap();
        let report = right.run(&mut NoFailures).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed);
    }
}
