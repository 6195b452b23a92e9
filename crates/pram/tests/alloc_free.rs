//! Steady-state allocation accounting for the tick engines.
//!
//! The engines are designed so that after warm-up every tick runs without
//! touching the heap: tentative cycles reuse inline `ReadSet`/`WriteSet`
//! buffers, the failure-event staging vector is hoisted onto the machine,
//! and the pooled engine parks persistent workers instead of spawning
//! threads. A counting `#[global_allocator]` pins that down: the
//! sequential engine must allocate *exactly zero* times across a batch of
//! steady-state ticks, and a pooled run's allocation total must not grow
//! with the number of ticks — including with the adaptive inline degrade
//! disabled, so the spin-then-park barrier and the pooled tentative phase
//! are inside the measurement.
//!
//! Only allocations by the measured run count: the measuring thread, and
//! the run's own pool workers, which mark themselves the first time they
//! execute program code. Other test threads and libtest's own bookkeeping
//! run concurrently and must not leak into an exact-zero bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use rfsp_pram::snapshot::{SnapshotMachine, SnapshotProgram, SnapshotView};
use rfsp_pram::{
    CompletionHint, CycleBudget, ExecMode, LayoutBuilder, Machine, NoFailures, Pid, Program,
    ReadSet, Region, RunSpec, SharedMemory, Step, Word, WriteSet,
};

/// [`Grind`] with completion hints, so the pooled run builds the
/// completion index at run entry and the commit maintains it every
/// tick.
struct HintedGrind {
    n: usize,
    target: Word,
}

impl Program for HintedGrind {
    type Private = ();
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) {}
    fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
        mark_run_thread();
        if values.is_empty() {
            reads.push(pid.0 % self.n);
        }
    }
    fn execute(&self, pid: Pid, _st: &mut (), values: &[Word], writes: &mut WriteSet) -> Step {
        if values[0] < self.target {
            writes.push(pid.0 % self.n, values[0] + 1);
        }
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

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count: set on the measuring
    /// thread for the duration of a measurement, and on pool workers by
    /// [`mark_run_thread`].
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-local is gone.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Count this thread's allocations from now on. The test programs call it
/// from `plan`, which runs on whichever thread executes the run — the
/// measuring thread or one of the run's pool workers.
fn mark_run_thread() {
    COUNTED.with(|c| c.set(true));
}

// SAFETY: delegates verbatim to `System`; the counter has no side effects
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the measurements so no two runs' workers are ever counted
/// together (libtest may run the tests on separate threads).
static MEASURE: Mutex<()> = Mutex::new(());

/// An exclusive measurement window: holds [`MEASURE`] and counts the
/// calling thread's allocations until dropped. A failed assertion in one
/// test must not poison the lock for the next, so poisoning is ignored.
struct Measuring {
    _exclusive: MutexGuard<'static, ()>,
}

impl Measuring {
    fn start() -> Self {
        let guard = MEASURE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        mark_run_thread();
        Measuring { _exclusive: guard }
    }

    /// Allocations counted so far, process-wide.
    fn allocations(&self) -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

impl Drop for Measuring {
    fn drop(&mut self) {
        COUNTED.with(|c| c.set(false));
    }
}

/// Each processor increments its own cell once per tick until every cell
/// reaches `target`: the run lasts exactly `target` full-width ticks.
struct Grind {
    n: usize,
    target: Word,
}

impl Program for Grind {
    type Private = ();
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) {}
    fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
        mark_run_thread();
        if values.is_empty() {
            reads.push(pid.0 % self.n);
        }
    }
    fn execute(&self, pid: Pid, _st: &mut (), values: &[Word], writes: &mut WriteSet) -> Step {
        if values[0] < self.target {
            writes.push(pid.0 % self.n, values[0] + 1);
        }
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.n).all(|i| mem.peek(i) >= self.target)
    }
}

#[test]
fn sequential_steady_state_ticks_do_not_allocate() {
    let window = Measuring::start();
    let p = 16;
    let prog = Grind { n: p, target: 1 << 20 };
    let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
    // Warm up: first ticks grow the reusable buffers (tentative slots,
    // adversary metadata) to their steady-state capacity.
    for _ in 0..8 {
        m.tick(&mut NoFailures).unwrap();
    }
    let before = window.allocations();
    for _ in 0..64 {
        m.tick(&mut NoFailures).unwrap();
    }
    let delta = window.allocations() - before;
    assert_eq!(delta, 0, "sequential steady-state ticks allocated {delta} times");
}

/// Snapshot-model Write-All with the balanced-assignment rule, expressed
/// entirely through the machine-maintained unvisited index: no scans, no
/// scratch vectors. Opting into `completion_hint` is what makes the machine
/// build the index and remove one cell per committed write — the exact
/// steady-state churn (tombstone + compaction per tick) the allocation
/// test needs to exercise.
struct SnapWriteAll {
    x: Region,
    p: usize,
}

impl SnapshotProgram for SnapWriteAll {
    type Private = ();
    fn shared_size(&self) -> usize {
        self.x.base() + self.x.len()
    }
    fn on_start(&self, _pid: Pid) {}
    fn execute(
        &self,
        pid: Pid,
        _st: &mut (),
        view: &SnapshotView<'_>,
        writes: &mut WriteSet,
    ) -> Step {
        let u = view.unvisited_count_in(self.x);
        if u == 0 {
            return Step::Halt;
        }
        let k = (pid.0 * u / self.p).min(u - 1);
        writes.push(view.nth_unvisited_in(self.x, k).expect("k < u"), 1);
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.x.len()).all(|i| mem.peek(self.x.at(i)) == 1)
    }
    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint {
        if self.x.contains(addr) {
            if value == 1 {
                CompletionHint::Satisfied
            } else {
                CompletionHint::Outstanding
            }
        } else {
            CompletionHint::Untracked
        }
    }
}

#[test]
fn snapshot_steady_state_ticks_do_not_allocate() {
    let window = Measuring::start();
    let p = 16;
    // 80 full-width ticks of work: warm-up (8) + measurement (64) stay
    // strictly inside the run, and every tick commits p index removals
    // followed by a compaction in `ensure_clean`.
    let n = 80 * p;
    let mut layout = LayoutBuilder::new();
    let x = layout.alloc(n);
    let prog = SnapWriteAll { x, p };
    let mut m = SnapshotMachine::new(&prog, p, 1).unwrap();
    for _ in 0..8 {
        m.tick(&mut NoFailures).unwrap();
    }
    let before = window.allocations();
    for _ in 0..64 {
        m.tick(&mut NoFailures).unwrap();
    }
    let delta = window.allocations() - before;
    assert_eq!(delta, 0, "snapshot steady-state ticks allocated {delta} times");
}

#[test]
fn pooled_allocations_do_not_grow_with_tick_count() {
    let window = Measuring::start();
    let p = 16;
    let threads = 3;
    let measure = |target: Word| {
        let prog = Grind { n: p, target };
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        let before = window.allocations();
        let spec = RunSpec { exec: ExecMode::Threads(threads), ..RunSpec::default() };
        m.run_with(&mut NoFailures, spec).unwrap();
        window.allocations() - before
    };
    let short = measure(16);
    let long = measure(16 + 512);
    // Same machine size and thread count: all allocations happen during
    // setup (thread spawns, report assembly), none per tick. Allow a few
    // counts of slack for lazy OS/runtime initialization on first use.
    assert!(
        long <= short + 16,
        "allocations grew with tick count: {short} for 16 ticks vs {long} for 528"
    );
}

/// The forced-parallel engine — the spin-then-park barrier and the pooled
/// tentative phase — must also reach an allocation-free steady state.
/// `RFSP_POOL_INLINE_NS=0` disables the adaptive inline degrade so every
/// tick actually crosses the barrier; a tracked program makes the
/// sequential commit behind it maintain the unvisited index too. All
/// allocations happen at setup, so they must not scale with tick count.
#[test]
fn forced_parallel_commit_allocations_do_not_grow_with_tick_count() {
    let window = Measuring::start();
    std::env::set_var("RFSP_POOL_INLINE_NS", "0");
    let p = 16;
    let threads = 3;
    let measure = |target: Word| {
        let prog = HintedGrind { n: p, target };
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        let before = window.allocations();
        let spec = RunSpec { exec: ExecMode::Threads(threads), ..RunSpec::default() };
        m.run_with(&mut NoFailures, spec).unwrap();
        window.allocations() - before
    };
    let short = measure(16);
    let long = measure(16 + 512);
    std::env::remove_var("RFSP_POOL_INLINE_NS");
    assert!(
        long <= short + 16,
        "forced-parallel allocations grew with tick count: {short} for 16 ticks vs {long} for 528"
    );
}
