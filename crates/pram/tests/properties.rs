//! Property tests for the machine substrate.

use proptest::prelude::*;
use rfsp_pram::{
    CompletionHint, CycleBudget, ExecMode, FailPoint, FailureEvent, FailureKind, FailurePattern,
    LayoutBuilder, Machine, Observer, Pid, Program, ReadSet, RunLimits, RunSpec,
    ScheduledAdversary, SharedMemory, Step, TraceEvent, TraceRecorder, Word, WriteMode, WriteSet,
};

proptest! {
    /// LayoutBuilder hands out disjoint, densely packed regions in order.
    #[test]
    fn layout_regions_are_disjoint_and_dense(sizes in proptest::collection::vec(0usize..100, 0..32)) {
        let mut layout = LayoutBuilder::new();
        let regions: Vec<_> = sizes.iter().map(|&s| layout.alloc(s)).collect();
        let mut expected_base = 0;
        for (r, &s) in regions.iter().zip(&sizes) {
            prop_assert_eq!(r.base(), expected_base);
            prop_assert_eq!(r.len(), s);
            expected_base += s;
        }
        prop_assert_eq!(layout.total(), expected_base);
        // No two non-empty regions share an address.
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                for k in 0..a.len() {
                    prop_assert!(!b.contains(a.at(k)));
                }
            }
        }
    }

    /// Patterns constructed from arbitrary ordered events round-trip
    /// through the accessors.
    #[test]
    fn failure_pattern_accessors(raw in proptest::collection::vec((0usize..64, 0u64..100, any::<bool>()), 0..64)) {
        let mut events: Vec<FailureEvent> = raw
            .into_iter()
            .map(|(pid, time, restart)| FailureEvent {
                kind: if restart {
                    FailureKind::Restart
                } else {
                    FailureKind::Failure { point: FailPoint::BeforeWrites }
                },
                pid,
                time,
            })
            .collect();
        events.sort_by_key(|e| e.time);
        let pattern: FailurePattern = events.iter().copied().collect();
        prop_assert_eq!(pattern.size(), events.len());
        prop_assert_eq!(pattern.failure_count() + pattern.restart_count(), events.len());
        prop_assert_eq!(pattern.events(), &events[..]);
    }

    /// Random event sequences, with fields spread over every magnitude:
    /// the allocation-free encoder renders each event exactly as the serde
    /// reference does, the recorder's JSONL is the concatenation of those
    /// lines, and every line parses back to its event.
    #[test]
    fn event_encoder_matches_serde(raw in proptest::collection::vec(
        (0u8..7, (any::<u64>(), 0u32..64), (any::<u64>(), 0u32..64), any::<u64>(), 0u8..3),
        0..64,
    )) {
        let events: Vec<TraceEvent> = raw
            .into_iter()
            .map(|(variant, (c, cs), (a, as_), value, point)| {
                let cycle = c >> cs;
                let a = (a >> as_) as usize;
                let point = match point {
                    0 => FailPoint::BeforeReads,
                    1 => FailPoint::BeforeWrites,
                    _ => FailPoint::AfterWrite(a),
                };
                match variant {
                    0 => TraceEvent::TickStart { cycle },
                    1 => TraceEvent::CycleCompleted { cycle, pid: Pid(a) },
                    2 => TraceEvent::CycleInterrupted { cycle, pid: Pid(a) },
                    3 => TraceEvent::Failure { cycle, pid: Pid(a), point },
                    4 => TraceEvent::Restart { cycle, pid: Pid(a) },
                    5 => TraceEvent::Commit { cycle, addr: a, value },
                    _ => TraceEvent::Completed { cycle },
                }
            })
            .collect();
        let mut rec = TraceRecorder::unbounded();
        let mut want = String::new();
        let mut line = Vec::new();
        for e in &events {
            rec.event(*e);
            line.clear();
            e.write_json(&mut line);
            let reference = serde::json::to_string(e);
            prop_assert_eq!(std::str::from_utf8(&line).unwrap(), reference.as_str());
            let back: TraceEvent = serde::json::from_str(&reference).unwrap();
            prop_assert_eq!(back, *e);
            want.push_str(&reference);
            want.push('\n');
        }
        prop_assert_eq!(rec.to_jsonl(), want);
    }
}

/// A worker program where each processor repeatedly increments its own
/// cell until every cell reaches a target — simple enough that any legal
/// fault schedule leaves it correct.
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

/// Build a *legal* pre-committed fault schedule from raw fuzz input:
/// alternating fails/restarts respecting per-processor liveness, with
/// processor 0 immune and everyone revived at the end so the computation
/// can finish (cells are per-processor, so a permanently dead processor
/// would leave its cell short forever).
fn legal_schedule(p: usize, raw: Vec<(usize, bool)>) -> FailurePattern {
    let mut alive = vec![true; p];
    let mut pattern = FailurePattern::new();
    let raw_len = raw.len();
    for (t, (pid_raw, restart)) in raw.into_iter().enumerate() {
        let pid = pid_raw % p;
        if pid == 0 {
            continue; // keep processor 0 immune for liveness
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Any *legal* pre-committed fault schedule (generated with its own
    /// liveness tracking, processor 0 immune) runs to completion with the
    /// correct result under every write mode that admits concurrency.
    #[test]
    fn any_legal_offline_schedule_is_survivable(
        p in 1usize..20,
        target in 1u64..6,
        raw in proptest::collection::vec((1usize..20, any::<bool>()), 0..60),
        mode_arbitrary in any::<bool>(),
    ) {
        let pattern = legal_schedule(p, raw);
        let prog = Grind { n: p, target };
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        if mode_arbitrary {
            m.set_write_mode(WriteMode::Arbitrary);
        }
        let mut adv = ScheduledAdversary::new(pattern);
        let limits = RunLimits { max_cycles: 1_000_000 };
        let spec = RunSpec { limits, ..RunSpec::default() };
        let report = m.run_with(&mut adv, spec).unwrap().completed().unwrap();
        for i in 0..p {
            prop_assert!(m.memory().peek(i) >= target);
        }
        // Accounting sanity.
        prop_assert!(report.stats.s_prime()
            <= report.stats.completed_work() + report.stats.pattern_size());
    }

    /// The pooled tick engine is observationally identical to the
    /// sequential one: byte-identical event streams, equal stats, failure
    /// pattern, per-processor work, final memory and access counters — for
    /// every legal fault schedule and every pool width. This is the
    /// machine-level guarantee that lets experiments pick an engine purely
    /// on speed. `Grind` has one cell per processor; `Blocks` is a
    /// *tracked* program (completion hints prime the unvisited index) with
    /// N ≠ P and enough processors to span several pool chunks. Run with
    /// `RFSP_POOL_INLINE_NS=0` to force every pooled tick onto the workers.
    #[test]
    fn pooled_engine_is_bit_identical_to_sequential(
        p in 1usize..20,
        target in 1u64..6,
        threads in 2usize..5,
        raw in proptest::collection::vec((1usize..20, any::<bool>()), 0..60),
        n_blocks in 1usize..300,
        p_blocks in 1usize..160,
        raw_blocks in proptest::collection::vec((1usize..160, any::<bool>()), 0..60),
    ) {
        let pattern = legal_schedule(p, raw);
        let prog = Grind { n: p, target };
        let seq = observe(&prog, p, &pattern, ExecMode::Sequential);
        prop_assert_eq!(seq, observe(&prog, p, &pattern, ExecMode::Threads(threads)));

        let pattern = legal_schedule(p_blocks, raw_blocks);
        let prog = Blocks { n: n_blocks, p: p_blocks };
        let seq = observe(&prog, p_blocks, &pattern, ExecMode::Sequential);
        prop_assert_eq!(seq, observe(&prog, p_blocks, &pattern, ExecMode::Threads(threads)));
    }
}

/// Run `prog` on `p` processors under `pattern` with engine `exec`, and
/// render everything the run makes observable.
fn observe<P>(prog: &P, p: usize, pattern: &FailurePattern, exec: ExecMode<'_>) -> String
where
    P: Program + Sync,
    P::Private: Send,
{
    let limits = RunLimits { max_cycles: 1_000_000 };
    let mut trace = TraceRecorder::unbounded();
    let mut m = Machine::new(prog, p, CycleBudget::PAPER).unwrap();
    let spec = RunSpec { limits, exec, observer: Some(&mut trace), ..RunSpec::default() };
    let report = m
        .run_with(&mut ScheduledAdversary::new(pattern.clone()), spec)
        .unwrap()
        .completed()
        .unwrap();
    let mem = m.memory();
    format!(
        "{}{:?}\n{:?}\n{:?}\n{:?}\nreads={} writes={}",
        trace.to_jsonl(),
        report.stats,
        report.pattern.events(),
        report.per_processor,
        mem.as_slice(),
        mem.read_count(),
        mem.write_count(),
    )
}

/// Block-assigned Write-All with completion hints — a *tracked* program,
/// so the machine primes and folds its unvisited index. Restarts reset the
/// block cursor, making re-execution under faults idempotent.
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
        // halting: the pre-committed schedules may fault any processor at
        // any time, which is only legal while it is active.
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
