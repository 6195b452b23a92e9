//! End-to-end certification of the session layer, independent of the CLI:
//! a killed-and-resumed [`RunSession`] must produce a byte-identical event
//! stream to an uninterrupted one, and [`run_with_cut`] must agree with a
//! straight run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rfsp_adversary::RandomFaults;
use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
use rfsp_pram::{
    CompletionHint, CycleBudget, LayoutBuilder, Machine, Pid, PolicyKind, Program, ReadSet,
    RunLimits, RunSpec, SharedMemory, Step, Word, WriteSet,
};
use rfsp_run::{
    run_with_cut, ExecMode, PauseFlow, RunConfig, RunSession, SessionCheckpoint, SessionEnd,
};

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rfsp-run-session-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &std::path::Path, tag: &str) -> RunConfig {
    RunConfig {
        algo: "x".into(),
        n: 64,
        p: 8,
        adversary: "random".into(),
        rate: 0.2,
        restart_rate: 0.6,
        seed: 11,
        every: 5,
        checkpoint: Some(dir.join(format!("{tag}-ck.json")).display().to_string()),
        events: Some(dir.join(format!("{tag}.jsonl")).display().to_string()),
        ..RunConfig::default()
    }
}

/// Run a full session over algorithm X with the given config; `kill_at`
/// stops it at the first pause at or after that tick (externally, so a
/// checkpoint is forced). Returns whether it completed.
fn drive(cfg: &RunConfig, kill_at: Option<u64>, resume: bool) -> bool {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, cfg.n as usize);
    let prog = AlgoX::new(&mut layout, tasks, cfg.p as usize, XOptions::default());
    let build = Box::new(|| Machine::new(&prog, cfg.p as usize, CycleBudget::PAPER));

    let mut session = if resume {
        let ck = SessionCheckpoint::load(cfg.checkpoint.as_deref().unwrap()).unwrap();
        RunSession::resume(ck, ExecMode::Sequential, build).unwrap()
    } else {
        RunSession::new(cfg.clone(), ExecMode::Sequential, build).unwrap()
    };

    let end = session
        .run(
            &mut |cycle| kill_at.is_some_and(|k| cycle >= k),
            &mut |pause| if pause.external { PauseFlow::Stop } else { PauseFlow::Continue },
            &mut rfsp_pram::NoopObserver,
        )
        .unwrap();
    match end {
        SessionEnd::Completed(_) => {
            assert!(tasks.all_written(session.memory()), "postcondition violated");
            true
        }
        SessionEnd::Stopped { cycle } => {
            assert!(kill_at.is_some_and(|k| cycle >= k));
            false
        }
    }
}

#[test]
fn killed_session_resumes_to_byte_identical_events() {
    let dir = test_dir("resume");

    let base = config(&dir, "base");
    assert!(drive(&base, None, false), "baseline must complete");

    let cut = config(&dir, "cut");
    assert!(!drive(&cut, Some(7), false), "killed run must stop");
    assert!(drive(&cut, None, true), "resumed run must complete");

    let want = std::fs::read(base.events.as_deref().unwrap()).unwrap();
    let got = std::fs::read(cut.events.as_deref().unwrap()).unwrap();
    assert!(!want.is_empty());
    assert_eq!(want, got, "resumed event stream diverged from the uninterrupted run");

    let dropped = test_dir("resume"); // second killed run against a fresh dir
    let cut2 = config(&dropped, "cut");
    assert!(!drive(&cut2, Some(7), false));
    // Resume carries the wasted-work ledger forward: the checkpoint on
    // disk already records at least one checkpoint written.
    let ck = SessionCheckpoint::load(cut2.checkpoint.as_deref().unwrap()).unwrap();
    assert!(ck.wasted.checkpoints >= 1);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dropped);
}

#[test]
fn run_with_cut_matches_a_straight_run() {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, 64);
    let prog = AlgoX::new(&mut layout, tasks, 8, XOptions::default());
    let limits = RunLimits::default();

    let mut straight = Machine::new(&prog, 8, CycleBudget::PAPER).unwrap();
    let spec = RunSpec { limits, ..RunSpec::default() };
    let status = straight.run_with(&mut RandomFaults::new(0.2, 0.6, 11), spec).unwrap();
    let straight_report = status.completed().unwrap();

    let outcome = run_with_cut(
        || Machine::new(&prog, 8, CycleBudget::PAPER),
        || Box::new(RandomFaults::new(0.2, 0.6, 11)),
        limits,
        6,
        None,
    )
    .unwrap();
    assert!(outcome.policy_states.is_none());
    assert_eq!(outcome.report.stats, straight_report.stats);
    assert!(tasks.all_written(outcome.machine.memory()));

    // With an adaptive policy riding the checkpoint, the resumed engine's
    // final state must be bit-identical to the uninterrupted reference's.
    let outcome = run_with_cut(
        || Machine::new(&prog, 8, CycleBudget::PAPER),
        || Box::new(RandomFaults::new(0.2, 0.6, 11)),
        limits,
        6,
        Some(PolicyKind::Adaptive),
    )
    .unwrap();
    let (reference, resumed) = outcome.policy_states.expect("cut must happen before completion");
    assert_eq!(reference, resumed, "policy engine diverged across the cut");
}

/// A program that behaves exactly like `inner`, except that the first
/// `execute` of tick `at` panics — once, before touching any state — as a
/// worker bug would. The session's pause hook reports the tick in
/// `now`.
struct PanicAtTick<'a, P> {
    inner: &'a P,
    at: u64,
    now: &'a AtomicU64,
    armed: AtomicBool,
}

impl<P: Program> Program for PanicAtTick<'_, P> {
    type Private = P::Private;

    fn shared_size(&self) -> usize {
        self.inner.shared_size()
    }

    fn init_memory(&self, mem: &mut SharedMemory) {
        self.inner.init_memory(mem);
    }

    fn on_start(&self, pid: Pid) -> Self::Private {
        self.inner.on_start(pid)
    }

    fn plan(&self, pid: Pid, state: &Self::Private, values: &[Word], reads: &mut ReadSet) {
        self.inner.plan(pid, state, values, reads);
    }

    fn execute(
        &self,
        pid: Pid,
        state: &mut Self::Private,
        values: &[Word],
        writes: &mut WriteSet,
    ) -> Step {
        if self.now.load(Ordering::SeqCst) == self.at && self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected panic at tick {}", self.at);
        }
        self.inner.execute(pid, state, values, writes)
    }

    fn is_complete(&self, mem: &SharedMemory) -> bool {
        self.inner.is_complete(mem)
    }

    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint {
        self.inner.completion_hint(addr, value)
    }
}

/// A worker panic after the first checkpoint rewinds the session to the
/// checkpoint bytes it kept in memory — the file on disk is deleted
/// before the panic, so nothing else could serve — and the run finishes
/// with the uninterrupted run's events, one restore, and exactly the
/// ticks since that checkpoint replayed.
#[test]
fn panic_rewinds_to_the_retained_checkpoint_bytes() {
    const PANIC_AT: u64 = 12;
    let dir = test_dir("panic");
    let mut base = config(&dir, "base");
    base.n = 256;
    assert!(drive(&base, None, false), "baseline must complete");

    let cfg = RunConfig { n: 256, ..config(&dir, "panic") };
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, cfg.n as usize);
    let x = AlgoX::new(&mut layout, tasks, cfg.p as usize, XOptions::default());
    let now = AtomicU64::new(0);
    let prog = PanicAtTick { inner: &x, at: PANIC_AT, now: &now, armed: AtomicBool::new(true) };
    let build = Box::new(|| Machine::new(&prog, cfg.p as usize, CycleBudget::PAPER));
    let mut session = RunSession::new(cfg.clone(), ExecMode::Sequential, build).unwrap();
    let ck_path = cfg.checkpoint.clone().unwrap();
    let mut last_ck_before_panic = None;
    let end = session
        .run(
            &mut |cycle| {
                if cycle == PANIC_AT && prog.armed.load(Ordering::SeqCst) {
                    std::fs::remove_file(&ck_path).unwrap();
                }
                now.store(cycle, Ordering::SeqCst);
                false
            },
            &mut |pause| {
                if pause.checkpointed && prog.armed.load(Ordering::SeqCst) {
                    last_ck_before_panic = Some(pause.cycle);
                }
                PauseFlow::Continue
            },
            &mut rfsp_pram::NoopObserver,
        )
        .unwrap();
    assert!(!prog.armed.load(Ordering::SeqCst), "the injected panic never fired");
    let SessionEnd::Completed(_) = end else { panic!("session stopped") };
    assert!(tasks.all_written(session.memory()));

    let ck_cycle = last_ck_before_panic.expect("a checkpoint precedes the panic");
    assert_eq!(ck_cycle, 10, "fixed:5 checkpoints at ticks 5 and 10");
    assert_eq!(session.wasted().restores, 1);
    assert_eq!(session.wasted().replayed_ticks, PANIC_AT - ck_cycle);
    let want = std::fs::read(base.events.as_deref().unwrap()).unwrap();
    let got = std::fs::read(cfg.events.as_deref().unwrap()).unwrap();
    assert!(want == got, "rewound event stream diverged from the uninterrupted run");
    let _ = std::fs::remove_dir_all(&dir);
}
