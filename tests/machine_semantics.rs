//! Cross-crate checks of the machine model itself: threaded-backend
//! equivalence, write-semantics enforcement, and the model's progress
//! condition, all exercised through the real algorithms.

use rfsp::adversary::RandomFaults;
use rfsp::core::{AlgoV, AlgoX, WriteAllTasks, XOptions};
use rfsp::pram::{
    CycleBudget, ExecMode, LayoutBuilder, Machine, RunSpec, ScheduledAdversary, WriteMode,
};

/// The threaded execution backend is bit-identical to the sequential one,
/// including under an adversarial schedule (replayed so both backends see
/// the same pattern).
#[test]
fn threaded_backend_matches_sequential_under_faults() {
    let n = 200usize;
    let p = 32usize;
    // First, record a pattern with a live random adversary.
    let pattern = {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let mut adv = RandomFaults::new(0.2, 0.5, 7);
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        m.run(&mut adv).unwrap().pattern
    };
    // Sequential replay.
    let (seq_stats, seq_mem) = {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let mut adv = ScheduledAdversary::new(pattern.clone());
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        let r = m.run(&mut adv).unwrap();
        (r.stats, m.memory().as_slice().to_vec())
    };
    // Threaded replay across several thread counts.
    for threads in [1usize, 2, 3, 8] {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let mut adv = ScheduledAdversary::new(pattern.clone());
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        let spec = RunSpec { exec: ExecMode::Threads(threads), ..RunSpec::default() };
        let r = m.run_with(&mut adv, spec).unwrap().completed().unwrap();
        assert_eq!(r.stats, seq_stats, "threads = {threads}");
        assert_eq!(m.memory().as_slice(), &seq_mem[..], "threads = {threads}");
    }
}

/// The COMMON checker would catch an algorithm whose concurrent writers
/// disagree; all shipped algorithms pass under COMMON across a fault storm.
#[test]
fn shipped_algorithms_are_common_legal() {
    for seed in 0..5u64 {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 150);
        let prog = AlgoV::new(&mut layout, tasks, 30);
        let mut adv = RandomFaults::new(0.25, 0.7, seed);
        let mut m = Machine::new(&prog, 30, CycleBudget::PAPER).unwrap();
        m.set_write_mode(WriteMode::Common);
        m.run(&mut adv).unwrap_or_else(|e| panic!("COMMON violation (seed {seed}): {e}"));
        assert!(tasks.all_written(m.memory()));
    }
}

/// ARBITRARY mode runs the same algorithms unchanged (COMMON ⊆ ARBITRARY).
#[test]
fn arbitrary_mode_subsumes_common_algorithms() {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, 64);
    let prog = AlgoX::new(&mut layout, tasks, 16, XOptions::default());
    let mut adv = RandomFaults::new(0.1, 0.6, 3);
    let mut m = Machine::new(&prog, 16, CycleBudget::PAPER).unwrap();
    m.set_write_mode(WriteMode::Arbitrary);
    m.run(&mut adv).unwrap();
    assert!(tasks.all_written(m.memory()));
}

/// Restart storms at every legal fail point leave the accounting coherent.
#[test]
fn fail_points_inside_cycles_are_all_exercised() {
    use rfsp::pram::{FailPoint, FailureKind};
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, 120);
    let prog = AlgoV::new(&mut layout, tasks, 24);
    let mut adv = RandomFaults::new(0.3, 0.6, 0xFEED);
    let mut m = Machine::new(&prog, 24, CycleBudget::PAPER).unwrap();
    let report = m.run(&mut adv).unwrap();
    // The random adversary picks BeforeReads/BeforeWrites/AfterWrite(k)
    // uniformly; with hundreds of events all committed-write counts occur.
    let mut saw_partial = false;
    let mut saw_zero = false;
    for e in report.pattern.events() {
        if let FailureKind::Failure { point } = e.kind {
            match point {
                FailPoint::AfterWrite(_) => saw_partial = true,
                FailPoint::BeforeReads | FailPoint::BeforeWrites => saw_zero = true,
            }
        }
    }
    assert!(saw_partial, "no mid-cycle (between-writes) failure occurred");
    assert!(saw_zero, "no before-writes failure occurred");
    assert!(tasks.all_written(m.memory()));
}

/// The event stream independently witnesses the accounting: totals
/// counted from a recorded stream must equal WorkStats on an adversarial
/// run.
#[test]
fn trace_log_matches_work_stats() {
    use rfsp::pram::{TraceEvent, TraceRecorder};
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, 100);
    let prog = AlgoX::new(&mut layout, tasks, 20, XOptions::default());
    let mut adv = RandomFaults::new(0.2, 0.6, 0xBEEF);
    let mut m = Machine::new(&prog, 20, CycleBudget::PAPER).unwrap();
    let mut rec = TraceRecorder::unbounded();
    let spec = RunSpec { observer: Some(&mut rec), ..RunSpec::default() };
    let report = m.run_with(&mut adv, spec).unwrap().completed().unwrap();

    let (mut completions, mut interruptions, mut failures, mut restarts, mut commits) =
        (0, 0, 0, 0, 0);
    let mut last_tick = 0;
    for e in rec.events() {
        match *e {
            TraceEvent::CycleCompleted { .. } => completions += 1,
            TraceEvent::CycleInterrupted { .. } => interruptions += 1,
            TraceEvent::Failure { .. } => failures += 1,
            TraceEvent::Restart { .. } => restarts += 1,
            TraceEvent::Commit { .. } => commits += 1,
            // Ticks are monotone.
            TraceEvent::TickStart { cycle } => {
                assert!(cycle >= last_tick);
                last_tick = cycle;
            }
            TraceEvent::Completed { .. } => {}
        }
    }
    assert_eq!(rec.dropped, 0);
    assert_eq!(completions, report.stats.completed_cycles);
    assert_eq!(interruptions, report.stats.interrupted_cycles);
    assert_eq!(failures, report.stats.failures);
    assert_eq!(restarts, report.stats.restarts);
    assert!(commits >= 100, "every array cell was committed at least once");
    // The stream ends with the completion event.
    assert!(matches!(rec.events().last(), Some(TraceEvent::Completed { .. })));
}

/// The threaded backend is equivalent for every algorithm whose private
/// state is nontrivial (V carries cohort state; interleaved carries V's).
#[test]
fn threaded_backend_matches_for_v_and_interleaved() {
    use rfsp::core::Interleaved;
    let n = 150usize;
    let p = 16usize;
    // V.
    let pattern = {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let prog = AlgoV::new(&mut layout, tasks, p);
        let mut adv = RandomFaults::new(0.15, 0.6, 21);
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        m.run(&mut adv).unwrap().pattern
    };
    let seq = {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let prog = AlgoV::new(&mut layout, tasks, p);
        let mut adv = ScheduledAdversary::new(pattern.clone());
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        m.run(&mut adv).unwrap().stats
    };
    let par = {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let prog = AlgoV::new(&mut layout, tasks, p);
        let mut adv = ScheduledAdversary::new(pattern.clone());
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        let spec = RunSpec { exec: ExecMode::Threads(4), ..RunSpec::default() };
        m.run_with(&mut adv, spec).unwrap().completed().unwrap().stats
    };
    assert_eq!(seq, par);
    // Interleaved.
    let (seq, par) = {
        let run = |exec| {
            let mut layout = LayoutBuilder::new();
            let tasks = WriteAllTasks::new(&mut layout, n);
            let prog = Interleaved::new(&mut layout, tasks, p);
            let budget = prog.required_budget();
            let mut adv = RandomFaults::new(0.1, 0.7, 33);
            let mut m = Machine::new(&prog, p, budget).unwrap();
            let spec = RunSpec { exec, ..RunSpec::default() };
            m.run_with(&mut adv, spec).unwrap().completed().unwrap().stats
        };
        (run(ExecMode::Sequential), run(ExecMode::Threads(3)))
    };
    assert_eq!(seq, par);
}

/// The threaded backend emits the **identical event stream** as the
/// sequential engine, asserted down to the exported bytes: the same
/// recorded pattern is replayed through both backends with a
/// `TraceRecorder` attached, and the JSONL exports must match exactly.
#[test]
fn threaded_event_stream_is_byte_identical_to_sequential() {
    use rfsp::pram::{MetricsObserver, Tee, TraceRecorder};
    let n = 180usize;
    let p = 24usize;
    let pattern = {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let mut adv = RandomFaults::new(0.2, 0.5, 0xA11CE);
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        m.run(&mut adv).unwrap().pattern
    };
    assert!(!pattern.is_empty(), "the adversary must actually interfere");
    let capture = |exec| {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let mut adv = ScheduledAdversary::new(pattern.clone());
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        let mut rec = TraceRecorder::unbounded();
        let mut metrics = MetricsObserver::new(p);
        let mut tee = Tee(&mut rec, &mut metrics);
        let spec = RunSpec { exec, observer: Some(&mut tee), ..RunSpec::default() };
        let report = m.run_with(&mut adv, spec).unwrap().completed().unwrap();
        (rec.to_jsonl(), metrics.finish(), report.stats)
    };
    let (seq_jsonl, seq_series, seq_stats) = capture(ExecMode::Sequential);
    for threads in [1usize, 2, 5] {
        let (par_jsonl, par_series, par_stats) = capture(ExecMode::Threads(threads));
        assert_eq!(par_jsonl, seq_jsonl, "event stream diverged at {threads} threads");
        assert_eq!(par_series, seq_series, "metrics diverged at {threads} threads");
        assert_eq!(par_stats, seq_stats);
    }
    // The folded series is itself consistent with the accounting.
    let last = *seq_series.last().expect("run has ticks");
    assert_eq!(last.s, seq_stats.completed_cycles);
    assert_eq!(last.s_prime, seq_stats.s_prime());
    assert_eq!(last.pattern_size, seq_stats.pattern_size());
    assert_eq!(seq_series.completed_cycle, Some(seq_stats.parallel_time));
}

/// The per-processor decomposition of S witnesses V's balanced allocation
/// (Theorem 3.2's rule): with no failures and P ≪ N the busiest processor
/// does at most ~2x the average work.
#[test]
fn v_allocation_is_balanced() {
    use rfsp::pram::NoFailures;
    let n = 2048usize;
    let p = 32usize;
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = AlgoV::new(&mut layout, tasks, p);
    let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
    let report = m.run(&mut NoFailures).unwrap();
    assert_eq!(report.per_processor.iter().sum::<u64>(), report.completed_work());
    let imbalance = report.load_imbalance();
    assert!(imbalance < 2.0, "V imbalance {imbalance} should be near 1");
}

/// X's PID-bit descent is also balanced failure-free, but the X-killer
/// skews the distribution heavily toward processor 0 (the lone worker).
#[test]
fn x_killer_skews_per_processor_work() {
    use rfsp::adversary::XKiller;
    let n = 128usize;
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = AlgoX::new(&mut layout, tasks, n, XOptions::default());
    let mut adv = XKiller::new(tasks.x(), *prog.layout(), prog.tree());
    let mut m = Machine::new(&prog, n, CycleBudget::PAPER).unwrap();
    let report = m.run(&mut adv).unwrap();
    let p0 = report.per_processor[0];
    let mean = report.completed_work() / n as u64;
    assert!(p0 > 3 * mean, "processor 0 ({p0}) should dominate the mean ({mean})");
}
