//! Differential properties for the batched tentative-phase kernels.
//!
//! The batch width is an implementation detail of the run loop: for every
//! legal fault schedule, a machine with any batch width (the lane-masked
//! init pre-pass plus batch-aligned pooled chunk claiming) must produce
//! the byte-identical event stream, stats, failure pattern, memory image
//! and access counters as the scalar reference machine (`batch_width ==
//! 1`) — for the word model (sequential and pooled engines, flat and
//! banked layouts) and the snapshot model. This is the behavior-invariance
//! half of the `BENCH_SCALE.json` optimization: the golden fixtures pin
//! the default configuration, these properties pin the toggle itself.
//!
//! The word-model property pins `RFSP_POOL_INLINE_NS=0` for the whole
//! process: the pool's adaptive degrade would otherwise run every pooled
//! tick inline on a small host, and the **parallel commit** (per-worker
//! scan/merge/store with a rank-ordered coordinator merge) and the
//! **sharded index rebuild** would never execute. Forcing the pooled path
//! makes every pooled run here a true differential test of those kernels
//! against the sequential slot-by-slot apply. The snapshot model has no
//! pooled engine — its rows stay a batched-vs-scalar comparison only.

use proptest::prelude::*;
use rfsp_pram::snapshot::{SnapshotMachine, SnapshotProgram, SnapshotView};
use rfsp_pram::{
    CompletionHint, CycleBudget, ExecMode, FailPoint, FailureEvent, FailureKind, FailurePattern,
    Machine, MemoryLayout, Pid, Program, ReadSet, RunLimits, RunReport, RunSpec,
    ScheduledAdversary, SharedMemory, Step, TraceRecorder, Word, WriteSet,
};

/// Block-assigned Write-All with completion hints — a *tracked* program,
/// so the batched completion-tracker init actually runs (untracked
/// programs skip the index entirely). Restarts reset the block cursor,
/// making re-execution under faults idempotent.
struct Blocks {
    n: usize,
    p: usize,
}

impl Blocks {
    fn block(&self, pid: Pid) -> (usize, usize) {
        let chunk = self.n.div_ceil(self.p);
        ((pid.0 * chunk).min(self.n), ((pid.0 + 1) * chunk).min(self.n))
    }
}

impl Program for Blocks {
    type Private = usize;
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) -> usize {
        0
    }
    fn plan(&self, _pid: Pid, _st: &usize, _values: &[Word], _reads: &mut ReadSet) {}
    fn execute(&self, pid: Pid, st: &mut usize, _values: &[Word], writes: &mut WriteSet) -> Step {
        // Spin (write-less cycles) once the block is done rather than
        // halting: the pre-committed schedules below may fault any
        // processor at any time, which is only legal while it is active.
        let (lo, hi) = self.block(pid);
        let i = lo + *st;
        if i < hi {
            writes.push(i, 1);
            *st += 1;
        }
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.n).all(|i| mem.peek(i) == 1)
    }
    fn completion_hint(&self, _addr: usize, value: Word) -> CompletionHint {
        if value == 1 {
            CompletionHint::Satisfied
        } else {
            CompletionHint::Outstanding
        }
    }
}

/// Index-driven snapshot Write-All (same shape as the golden fixtures).
struct SnapHinted {
    n: usize,
}

impl SnapshotProgram for SnapHinted {
    type Private = ();
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) {}
    fn execute(
        &self,
        pid: Pid,
        _st: &mut (),
        view: &SnapshotView<'_>,
        writes: &mut WriteSet,
    ) -> Step {
        let idx = view.unvisited().expect("hinted program gets an index");
        if idx.is_empty() {
            return Step::Halt;
        }
        writes.push(idx.select(pid.0 % idx.len()), 1);
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.n).all(|i| mem.peek(i) == 1)
    }
    fn completion_hint(&self, _addr: usize, value: Word) -> CompletionHint {
        if value == 1 {
            CompletionHint::Satisfied
        } else {
            CompletionHint::Outstanding
        }
    }
}

/// Legal pre-committed fault schedule (the `properties.rs` construction):
/// liveness-respecting fails/restarts, processor 0 immune, everyone
/// revived at the end.
fn legal_schedule(p: usize, raw: Vec<(usize, bool)>) -> FailurePattern {
    let mut alive = vec![true; p];
    let mut pattern = FailurePattern::new();
    let raw_len = raw.len();
    for (t, (pid_raw, restart)) in raw.into_iter().enumerate() {
        let pid = pid_raw % p;
        if pid == 0 {
            continue;
        }
        if alive[pid] && !restart {
            alive[pid] = false;
            pattern.push(FailureEvent {
                kind: FailureKind::Failure { point: FailPoint::BeforeWrites },
                pid,
                time: t as u64,
            });
        } else if !alive[pid] && restart {
            alive[pid] = true;
            pattern.push(FailureEvent { kind: FailureKind::Restart, pid, time: t as u64 + 1 });
        }
    }
    let heal_time = raw_len as u64 + 2;
    for (pid, &is_alive) in alive.iter().enumerate() {
        if !is_alive {
            pattern.push(FailureEvent { kind: FailureKind::Restart, pid, time: heal_time });
        }
    }
    pattern
}

/// Everything a run makes observable.
struct Observables {
    events: String,
    report: RunReport,
    mem: Vec<Word>,
    reads: u64,
    writes: u64,
}

fn assert_same(a: &Observables, b: &Observables) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.events, &b.events);
    prop_assert_eq!(a.report.stats, b.report.stats);
    prop_assert_eq!(a.report.pattern.events(), b.report.pattern.events());
    prop_assert_eq!(&a.report.per_processor, &b.report.per_processor);
    prop_assert_eq!(&a.mem, &b.mem);
    prop_assert_eq!(a.reads, b.reads);
    prop_assert_eq!(a.writes, b.writes);
    Ok(())
}

fn word_run(
    layout: MemoryLayout,
    prog: &Blocks,
    pattern: &FailurePattern,
    threads: Option<usize>,
    batch_width: usize,
) -> Observables {
    // Disable the adaptive inline degrade so pooled runs genuinely
    // exercise the parallel commit and the sharded rebuild (see the
    // module docs). `set_var` is idempotent and the snapshot machine
    // never constructs a pool, so the process-global override is safe.
    std::env::set_var("RFSP_POOL_INLINE_NS", "0");
    let limits = RunLimits { max_cycles: 1_000_000 };
    let mut m = Machine::with_layout(prog, prog.p, CycleBudget::PAPER, layout).unwrap();
    m.set_batch_width(batch_width);
    let mut adv = ScheduledAdversary::new(pattern.clone());
    let mut trace = TraceRecorder::unbounded();
    let exec = threads.map_or(ExecMode::Sequential, ExecMode::Threads);
    let spec = RunSpec { limits, exec, observer: Some(&mut trace), ..RunSpec::default() };
    let report = m.run_with(&mut adv, spec).unwrap().completed().unwrap();
    Observables {
        events: trace.to_jsonl(),
        report,
        mem: m.memory().to_vec(),
        reads: m.memory().read_count(),
        writes: m.memory().write_count(),
    }
}

fn snapshot_run(
    prog: &SnapHinted,
    p: usize,
    pattern: &FailurePattern,
    width: usize,
) -> Observables {
    let limits = RunLimits { max_cycles: 1_000_000 };
    let mut m = SnapshotMachine::new(prog, p, 1).unwrap();
    m.set_batch_width(width);
    let mut adv = ScheduledAdversary::new(pattern.clone());
    let mut trace = TraceRecorder::unbounded();
    let spec = RunSpec { limits, observer: Some(&mut trace), ..RunSpec::default() };
    let report = m.run_with(&mut adv, spec).unwrap().completed().unwrap();
    Observables {
        events: trace.to_jsonl(),
        report,
        mem: m.memory().to_vec(),
        reads: m.memory().read_count(),
        writes: m.memory().write_count(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Word model: for every legal fault schedule, every batch width is
    /// observationally identical to the scalar reference — sequentially,
    /// pooled (batch-aligned chunk claiming), and pooled over a banked
    /// layout (chunk alignment is the lcm of batch width and interleave).
    #[test]
    fn word_batched_is_bit_identical_to_scalar(
        n in 1usize..90,
        p in 1usize..16,
        width in 2usize..130,
        banks in 2usize..6,
        interleave in 1usize..4,
        threads in 2usize..4,
        raw in proptest::collection::vec((1usize..16, any::<bool>()), 0..48),
    ) {
        let pattern = legal_schedule(p, raw);
        let prog = Blocks { n, p };

        let scalar_seq = word_run(MemoryLayout::Flat, &prog, &pattern, None, 1);
        let batched_seq = word_run(MemoryLayout::Flat, &prog, &pattern, None, width);
        assert_same(&scalar_seq, &batched_seq)?;

        let batched_pool = word_run(MemoryLayout::Flat, &prog, &pattern, Some(threads), width);
        assert_same(&scalar_seq, &batched_pool)?;

        // Scalar kernels on the forced pool: the parallel commit must be
        // invisible even without lane batching (and without the sharded
        // rebuild, which needs `batch_width > 1`).
        let scalar_pool = word_run(MemoryLayout::Flat, &prog, &pattern, Some(threads), 1);
        assert_same(&scalar_seq, &scalar_pool)?;

        let layout = MemoryLayout::Banked { banks, interleave };
        let banked_pool = word_run(layout, &prog, &pattern, Some(threads), width);
        assert_same(&scalar_seq, &banked_pool)?;
    }

    /// Snapshot model: the same property through the unified core's
    /// snapshot path (the batched tracker init feeds the index the
    /// snapshot tentative phase selects from every tick).
    #[test]
    fn snapshot_batched_is_bit_identical_to_scalar(
        n in 1usize..40,
        p in 1usize..8,
        width in 2usize..130,
        raw in proptest::collection::vec((1usize..8, any::<bool>()), 0..32),
    ) {
        let pattern = legal_schedule(p, raw);
        let prog = SnapHinted { n };

        let scalar = snapshot_run(&prog, p, &pattern, 1);
        let batched = snapshot_run(&prog, p, &pattern, width);
        assert_same(&scalar, &batched)?;
    }
}
