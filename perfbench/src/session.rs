//! The in-process workloads (`tick-wide`, `tick-narrow`, `ckpt`): one
//! crash-safe run, driven through `rfsp_run::RunSession` with a
//! `RunConfig` exactly as `rfsp experiment --run writeall` drives it.
//!
//! The timed runs hand the session nothing but the config and a pause hook
//! that stamps the clock once per tick. Only the traced run wraps the
//! adversary and the observer, and it times them from outside, around
//! calls into each layer's public functions.

use std::cell::Cell;
use std::io::Read as _;
use std::path::Path;
use std::time::Instant;

use rfsp_bench::{with_write_all_program, Algo, WriteAllSetup, WriteAllVisitor};
use rfsp_pram::{
    Adversary, CycleBudget, Decisions, Machine, MachineView, NoopObserver, Observer, PolicyEngine,
    Program, RunControl, RunStatus, TraceEvent, WastedWork,
};
use rfsp_run::{
    build_adversary, write_atomic, EventLog, ExecMode, PauseFlow, PauseInfo, RunConfig, RunHost,
    RunSession, SessionCheckpoint, SessionEnd, SESSION_CHECKPOINT_VERSION,
};
use serde::{Deserialize, Serialize};

use crate::spans::Spans;
use crate::stats::{median, quantile, sorted, tail};
use crate::{peak_rss_mb, reset_peak_rss, room_for_another, Outcome};

/// The instance one in-process workload runs: algorithm X under random
/// faults (rate 0.02, restart 0.5).
pub struct Shape {
    /// Workload name (also the name of its work directory).
    pub name: &'static str,
    /// Instance size `N`.
    pub n: u64,
    /// Processors `P`.
    pub p: u64,
    /// Tick-engine threads.
    pub threads: u64,
    /// Fixed checkpoint cadence; `Some` also writes a checkpoint file and
    /// an events JSONL.
    pub every: Option<u64>,
}

/// About 0.5 ms per tick (τ ≈ 11,600): enough work per tick for the pool.
pub const TICK_WIDE: Shape =
    Shape { name: "tick-wide", n: 1 << 20, p: 4096, threads: 2, every: None };
/// About 30 µs per tick (τ ≈ 138,000): pool synchronisation costs more
/// than it saves.
pub const TICK_NARROW: Shape =
    Shape { name: "tick-narrow", n: 1 << 20, p: 256, threads: 2, every: None };
/// Checkpoint encoding and fsync dominate; the cadence is fixed so the
/// checkpoint count stays constant and a codec change shows as time.
pub const CKPT: Shape = Shape { name: "ckpt", n: 1 << 15, p: 64, threads: 1, every: Some(250) };

const RATE: f64 = 0.02;
const RESTART: f64 = 0.5;
/// Setup is timed at least this many times per run; the median is reported.
const MIN_SETUPS: usize = 31;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The run configuration a workload hands the session.
pub fn config(shape: &Shape, seed: u64, dir: &Path) -> RunConfig {
    let artifact = |file: &str| shape.every.map(|_| dir.join(file).display().to_string());
    RunConfig {
        algo: "x".into(),
        n: shape.n,
        p: shape.p,
        threads: shape.threads,
        adversary: "random".into(),
        rate: RATE,
        restart_rate: RESTART,
        seed,
        every: shape.every.unwrap_or(RunConfig::default().every),
        checkpoint: artifact("ck.json"),
        events: artifact("events.jsonl"),
        ..RunConfig::default()
    }
}

/// The paper's cost measures of one completed run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Work {
    /// Completed work `S`.
    pub s: u64,
    /// Parallel time τ (ticks).
    pub tau: u64,
    /// Failure pattern size |F|.
    pub f: u64,
}

/// One finished session.
struct Done {
    setup_s: f64,
    run_s: f64,
    work: Work,
    written: bool,
    wasted: WastedWork,
}

impl Done {
    /// A job that ends before the run completes, `tau` ticks in.
    fn unfinished(setup_s: f64, tau: u64, wasted: WastedWork) -> Done {
        Done { setup_s, run_s: 0.0, work: Work { s: 0, tau, f: 0 }, written: false, wasted }
    }
}

/// Stamps the clock at the first pause-hook call of every tick; the
/// interval between consecutive stamps is one tick (plus any checkpoint
/// taken at its boundary).
#[derive(Default)]
struct TickClock {
    last: Option<(u64, Instant)>,
    samples_us: Vec<f64>,
}

impl TickClock {
    fn hook(&mut self, cycle: u64) {
        if matches!(self.last, Some((c, _)) if c == cycle) {
            return;
        }
        let now = Instant::now();
        if let Some((_, t)) = self.last {
            self.samples_us.push((now - t).as_secs_f64() * 1e6);
        }
        self.last = Some((cycle, now));
    }

    fn finish(&mut self) {
        if let Some((_, t)) = self.last.take() {
            self.samples_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
}

/// `RandomFaults` (or whatever the config names) behind a stopwatch.
struct TimedAdversary {
    inner: Box<dyn Adversary>,
    origin: Instant,
    calls: Vec<(u64, u64)>,
}

impl Adversary for TimedAdversary {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let start = self.origin.elapsed().as_nanos() as u64;
        let d = self.inner.decide(view);
        self.calls.push((start, self.origin.elapsed().as_nanos() as u64));
        d
    }
}

/// The session's observers (events log and policy engine), fed one tick
/// late: a tick's events are buffered and handed over in one timed batch
/// when the next tick starts, so one clock pair per tick times the
/// observer layer instead of one per event.
struct DeferredObserver {
    buf: Vec<TraceEvent>,
    log: EventLog,
    engine: PolicyEngine,
    origin: Instant,
    flushes: Vec<(u64, u64)>,
}

impl DeferredObserver {
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        for e in self.buf.drain(..) {
            self.log.event(e);
            self.engine.event(e);
        }
        self.flushes.push((start, self.origin.elapsed().as_nanos() as u64));
    }
}

impl Observer for DeferredObserver {
    fn event(&mut self, event: TraceEvent) {
        if matches!(event, TraceEvent::TickStart { .. }) {
            self.flush();
        }
        self.buf.push(event);
    }
}

/// What to do with the built program.
enum Job<'a> {
    /// Build the session and drop it (a setup-time sample).
    Setup,
    /// The timed run: the session with a tick-stamping pause hook.
    Session(&'a mut TickClock),
    /// The traced tick run: the session's engine call, observers and
    /// adversary driven directly so the adversary and observers can be
    /// timed.
    TracedTicks(&'a mut Spans),
    /// The traced checkpointed run: the session, with the pause hook and
    /// `on_pause` timed (the span between them is the checkpoint).
    TracedSession(&'a mut Spans),
    /// Run the session until its first checkpoint is published, then
    /// stop it there (as a kill would).
    StopAtFirstCheckpoint,
    /// Load the checkpoint at this path, resume, run to completion; the
    /// load plus resume time is the job's setup time.
    Resume(&'a str),
    /// Replay the run on the machine alone to this tick and snapshot it as
    /// the session would (the final checkpoint, rebuilt without parsing the
    /// file).
    Snapshot(u64, &'a mut Option<SessionCheckpoint>),
}

struct Visit<'a> {
    cfg: &'a RunConfig,
    started: Instant,
    job: Job<'a>,
}

fn work_of(report: &rfsp_pram::RunReport) -> Work {
    Work {
        s: report.stats.completed_work(),
        tau: report.stats.parallel_time,
        f: report.stats.pattern_size(),
    }
}

/// The index of the span (of those starting at `starts`, ascending) that
/// starts last at or before `t`.
fn enclosing(starts: &[u64], t: u64) -> Option<usize> {
    starts.partition_point(|&s| s <= t).checked_sub(1)
}

/// Record one tick span per stamp (the last one ends at `end`) and return
/// their start times.
fn tick_spans(spans: &mut Spans, ticks: &[(u64, u64)], end: u64) -> Vec<u64> {
    for (i, &(cycle, start)) in ticks.iter().enumerate() {
        let stop = ticks.get(i + 1).map_or(end, |t| t.1);
        spans.push("pram.tick", start, stop, None, cycle);
    }
    ticks.iter().map(|t| t.1).collect()
}

/// Record `children` as spans named `name` under the tick that encloses
/// each one's start (spans from a fresh trace, so tick `i` is span `i`).
fn child_spans(spans: &mut Spans, starts: &[u64], name: &'static str, children: &[(u64, u64)]) {
    for &(s, e) in children {
        let parent = enclosing(starts, s).filter(|&i| s < spans.spans()[i].end);
        let req = parent.map_or(0, |i| spans.spans()[i].req);
        spans.push(name, s, e, parent, req);
    }
}

impl WriteAllVisitor for Visit<'_> {
    type Out = Result<Done, String>;

    fn visit<P>(self, prog: &P, setup: &WriteAllSetup, budget: CycleBudget) -> Self::Out
    where
        P: Program + Sync,
        P::Private: Send + Serialize + Deserialize,
    {
        let Visit { cfg, started, job } = self;
        let procs = cfg.p as usize;
        let build = Box::new(move || Machine::new(prog, procs, budget));
        let exec = ExecMode::Threads(cfg.threads as usize);
        let no_pause = &mut |_: PauseInfo<'_>| PauseFlow::Continue;
        let (report, written, wasted, setup_s, run_s) = match job {
            Job::Setup => {
                let session = RunSession::new(cfg.clone(), exec, build).map_err(err)?;
                let setup_s = started.elapsed().as_secs_f64();
                drop(session);
                return Ok(Done::unfinished(setup_s, 0, WastedWork::default()));
            }
            Job::Session(clock) => {
                let mut session = RunSession::new(cfg.clone(), exec, build).map_err(err)?;
                let setup_s = started.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let end = session
                    .run(
                        &mut |c| {
                            clock.hook(c);
                            false
                        },
                        no_pause,
                        &mut NoopObserver,
                    )
                    .map_err(err)?;
                clock.finish();
                let SessionEnd::Completed(report) = end else {
                    return Err("session stopped before completing".into());
                };
                let written = setup.tasks.all_written(session.memory());
                (report, written, *session.wasted(), setup_s, t0.elapsed().as_secs_f64())
            }
            Job::TracedSession(spans) => {
                let mut session = RunSession::new(cfg.clone(), exec, build).map_err(err)?;
                let setup_s = started.elapsed().as_secs_f64();
                let origin = Instant::now();
                *spans = Spans::new(origin);
                let ns = || origin.elapsed().as_nanos() as u64;
                let mut ticks: Vec<(u64, u64)> = Vec::new();
                let last_hook = Cell::new(0);
                let mut pauses = Vec::new();
                let end = session
                    .run(
                        &mut |c| {
                            let now = ns();
                            last_hook.set(now);
                            if ticks.last().map(|t| t.0) != Some(c) {
                                ticks.push((c, now));
                            }
                            false
                        },
                        &mut |info| {
                            if info.checkpointed {
                                pauses.push((last_hook.get(), ns()));
                            }
                            PauseFlow::Continue
                        },
                        &mut NoopObserver,
                    )
                    .map_err(err)?;
                let ran = ns();
                let SessionEnd::Completed(report) = end else {
                    return Err("session stopped before completing".into());
                };
                let written = setup.tasks.all_written(session.memory());
                let verified = ns();
                let starts = tick_spans(spans, &ticks, ran);
                child_spans(spans, &starts, "run.ckpt", &pauses);
                spans.push("verify", ran, verified, None, report.stats.parallel_time);
                (report, written, *session.wasted(), setup_s, verified as f64 / 1e9)
            }
            Job::TracedTicks(spans) => {
                let mut machine = build().map_err(err)?;
                let engine = PolicyEngine::new(cfg.policy_kind());
                let policy = engine.panic_policy();
                let (log, _) = EventLog::open(cfg.events.as_deref(), None).map_err(err)?;
                let setup_s = started.elapsed().as_secs_f64();
                let origin = Instant::now();
                *spans = Spans::new(origin);
                let mut adversary = TimedAdversary {
                    inner: build_adversary(cfg).map_err(err)?,
                    origin,
                    calls: Vec::new(),
                };
                let mut observer =
                    DeferredObserver { buf: Vec::new(), log, engine, origin, flushes: Vec::new() };
                let mut ticks = Vec::new();
                let status = machine
                    .host_run_armored(
                        &mut adversary,
                        cfg.limits(),
                        exec,
                        policy,
                        &mut observer,
                        &mut |c| {
                            ticks.push((c, origin.elapsed().as_nanos() as u64));
                            RunControl::Continue
                        },
                    )
                    .map_err(err)?;
                let ran = spans.ns(Instant::now());
                observer.flush();
                let RunStatus::Completed(report) = status else {
                    return Err("traced run paused without a pause request".into());
                };
                let verify_start = spans.ns(Instant::now());
                let written = setup.tasks.all_written(machine.host_memory());
                let verified = spans.ns(Instant::now());
                let starts = tick_spans(spans, &ticks, ran);
                child_spans(spans, &starts, "adversary.decide", &adversary.calls);
                child_spans(spans, &starts, "observer.emit", &observer.flushes);
                spans.push("verify", verify_start, verified, None, report.stats.parallel_time);
                (report, written, WastedWork::default(), setup_s, verified as f64 / 1e9)
            }
            Job::StopAtFirstCheckpoint => {
                let mut session = RunSession::new(cfg.clone(), exec, build).map_err(err)?;
                let end = session
                    .run(
                        &mut |_| false,
                        &mut |info| {
                            if info.checkpointed {
                                PauseFlow::Stop
                            } else {
                                PauseFlow::Continue
                            }
                        },
                        &mut NoopObserver,
                    )
                    .map_err(err)?;
                let SessionEnd::Stopped { cycle } = end else {
                    return Err("session completed before its first checkpoint".into());
                };
                return Ok(Done::unfinished(0.0, cycle, *session.wasted()));
            }
            Job::Snapshot(at, slot) => {
                let mut machine = build().map_err(err)?;
                let mut adv = build_adversary(cfg).map_err(err)?;
                let mut engine = PolicyEngine::new(cfg.policy_kind());
                let status = machine
                    .host_run_armored(
                        &mut *adv,
                        cfg.limits(),
                        exec,
                        engine.panic_policy(),
                        &mut engine,
                        &mut |c| if c >= at { RunControl::Pause } else { RunControl::Continue },
                    )
                    .map_err(err)?;
                if !matches!(status, RunStatus::Paused { cycle } if cycle == at) {
                    return Err(format!("replay did not pause at tick {at}"));
                }
                let mut ck = machine.host_save_checkpoint(&adv).map_err(err)?;
                ck.policy = engine.save_state();
                *slot = Some(SessionCheckpoint {
                    version: SESSION_CHECKPOINT_VERSION,
                    config: cfg.clone(),
                    events_offset: 0,
                    wasted: WastedWork::default(),
                    machine: ck,
                });
                return Ok(Done::unfinished(0.0, at, WastedWork::default()));
            }
            Job::Resume(path) => {
                let t = Instant::now();
                let ck = SessionCheckpoint::load(path).map_err(err)?;
                let mut session = RunSession::resume(ck, exec, build).map_err(err)?;
                let restore_s = t.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let end = session.run(&mut |_| false, no_pause, &mut NoopObserver).map_err(err)?;
                let SessionEnd::Completed(report) = end else {
                    return Err("resumed session stopped before completing".into());
                };
                let written = setup.tasks.all_written(session.memory());
                (report, written, *session.wasted(), restore_s, t0.elapsed().as_secs_f64())
            }
        };
        Ok(Done { setup_s, run_s, work: work_of(&report), written, wasted })
    }
}

fn run_job(cfg: &RunConfig, job: Job<'_>) -> Result<Done, String> {
    let started = Instant::now();
    with_write_all_program(Algo::X, cfg.n as usize, cfg.p as usize, Visit { cfg, started, job })
}

/// `S`, τ and |F| of an in-process session run of `cfg`.
///
/// # Errors
///
/// Session errors, and a run that leaves cells unwritten.
pub fn reference_work(cfg: &RunConfig) -> Result<Work, String> {
    let done = run_job(cfg, Job::Session(&mut TickClock::default()))?;
    if done.written {
        Ok(done.work)
    } else {
        Err(format!("in-process reference run (seed {}) left cells unwritten", cfg.seed))
    }
}

/// FNV-1a over a file's bytes, streamed, with its length.
fn file_digest(path: &str) -> Result<(u64, u64), String> {
    let mut f = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut buf = vec![0u8; 1 << 16];
    let (mut hash, mut len) = (0xcbf2_9ce4_8422_2325_u64, 0u64);
    loop {
        let n = f.read(&mut buf).map_err(|e| format!("cannot read {path}: {e}"))?;
        if n == 0 {
            return Ok((hash, len));
        }
        for &b in &buf[..n] {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        len += n as u64;
    }
}

/// Tallies the correctness gates of one benchmark invocation.
#[derive(Default)]
struct Gates {
    attempted: u64,
    failures: Vec<String>,
}

impl Gates {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Run one in-process workload for `seconds`, then, when `trace` is set,
/// the traced run that yields the per-layer numbers.
///
/// # Errors
///
/// Session or I/O errors that stop the workload from running at all
/// (failed correctness checks are counted in the outcome instead).
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let dir = work.join(shape.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let cfg = config(shape, seed, &dir);
    let mut gates = Gates::default();
    let mut out = Outcome::default();

    // Setup samples first: a bare construction would truncate the events
    // file the timed runs leave for the resume check.
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUPS {
        setups.push(run_job(&cfg, Job::Setup)?.setup_s);
    }
    // Timed runs: whole sessions back to back until the time is used.
    let mut clock = TickClock::default();
    let (mut runs, mut jobs, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Work> = None;
    let begun = Instant::now();
    while room_for_another(begun, jobs.last().copied(), seconds) {
        reset_peak_rss();
        let done = run_job(&cfg, Job::Session(&mut clock))?;
        rss.push(peak_rss_mb(None)?);
        gates.check(done.written, || format!("run {}: array not fully written", runs.len()));
        let want = *first.get_or_insert(done.work);
        gates.check(done.work == want, || {
            format!("run {}: {:?} != first run {want:?}", runs.len(), done.work)
        });
        runs.push(done.run_s);
        jobs.push(done.setup_s + done.run_s);
        if shape.every.is_some() {
            gates.check(done.wasted.checkpoints > 0, || "no checkpoint was written".into());
        }
    }
    let first = first.expect("at least one timed run");
    out.e2e("peak_rss_mb", median(&rss));
    let sorted_setups = sorted(setups.clone());
    out.note(format!(
        "{} setups: min {:.6} s, median {:.6} s, max {:.6} s",
        setups.len(),
        sorted_setups[0],
        quantile(&sorted_setups, 0.5),
        sorted_setups[setups.len() - 1]
    ));
    out.e2e("setup_s", median(&setups));
    let run_s = median(&runs);
    out.e2e("run_s", run_s);
    let ticks = sorted(clock.samples_us);
    out.e2e("tick_p50_us", quantile(&ticks, 0.5));
    out.layer("tick_p999_us", tail(&ticks, 999_000)?);
    let jobs = sorted(jobs);
    out.e2e("job_p50_s", quantile(&jobs, 0.5));
    out.e2e("job_p90_s", quantile(&jobs, 0.9));
    out.note(format!(
        "{} sessions, {} tick samples, S = {}, tau = {}, |F| = {}",
        runs.len(),
        ticks.len(),
        first.s,
        first.tau,
        first.f
    ));

    if trace {
        let mut spans = Spans::new(Instant::now());
        let traced = if shape.every.is_some() {
            run_job(&cfg, Job::TracedSession(&mut spans))?
        } else {
            run_job(&cfg, Job::TracedTicks(&mut spans))?
        };
        gates.check(traced.written && traced.work == first, || {
            format!(
                "traced run: {:?} (written {}) != timed run {first:?}",
                traced.work, traced.written
            )
        });
        out.layer("trace.overhead", traced.run_s / run_s);
        let window = (traced.run_s * 1e9) as u64;
        out.layer("trace.unattributed_share", spans.unattributed_share(0, window));
        out.layer("pram.ticks", first.tau as f64);
        out.layer("pram.work_s", first.s as f64);
        out.layer("pram.pattern_size", first.f as f64);
        let exec_self = spans.self_total("pram.tick") as f64;
        out.layer("pram.exec_self_ns", exec_self);
        out.layer("pram.exec_ns_per_cycle", exec_self / first.s as f64);
        out.layer("adversary.decide_calls", spans.count("adversary.decide") as f64);
        out.layer("adversary.decide_ns", spans.total("adversary.decide") as f64);
        out.layer("observer.emit_ns", spans.total("observer.emit") as f64);
        if shape.threads > 1 {
            let seq_cfg = RunConfig { threads: 1, ..cfg.clone() };
            let seq = run_job(&seq_cfg, Job::Session(&mut TickClock::default()))?;
            gates.check(seq.written && seq.work == first, || {
                format!(
                    "sequential baseline {:?} != {}-thread run {first:?}",
                    seq.work, shape.threads
                )
            });
            out.layer("pram.seq_run_s", seq.run_s);
            out.layer("pram.pool_speedup", seq.run_s / run_s);
        } else {
            // The workload already runs on the sequential engine.
            out.layer("pram.seq_run_s", run_s);
            out.layer("pram.pool_speedup", 1.0);
        }
        if shape.every.is_some() {
            let pause_ns = spans.total("run.ckpt");
            let count = spans.count("run.ckpt");
            let w = traced.wasted;
            gates.check(count == w.checkpoints && w.checkpoint_ns <= pause_ns, || {
                format!(
                    "outside checkpoint timing ({count} pauses, {pause_ns} ns) disagrees with the \
                     session's ({} checkpoints, {} ns)",
                    w.checkpoints, w.checkpoint_ns
                )
            });
            out.layer("run.ckpt_count", w.checkpoints as f64);
            out.layer("run.ckpt_pause_ns", pause_ns as f64);
            out.layer("run.ckpt_session_ns", w.checkpoint_ns as f64);
            checkpoint_layers(&cfg, first.tau, &mut out)?;
        }
        out.layer("trace.spans", spans.spans().len() as f64);
        let path = work.join(format!("{}-spans.csv", shape.name));
        spans.write_csv(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.note(format!("{} spans written to {}", spans.spans().len(), path.display()));
    }

    if let (Some(ck), Some(events)) = (cfg.checkpoint.as_deref(), cfg.events.as_deref()) {
        // Kill the run at its first checkpoint and resume from the file:
        // the resumed run must complete with the same S, τ and |F|, and
        // regenerate the timed run's events file byte for byte. (The first
        // checkpoint, not the final one: loading the final one takes
        // minutes, see README.md.)
        let want = file_digest(events)?;
        let stopped = run_job(&cfg, Job::StopAtFirstCheckpoint)?;
        let ck_bytes = std::fs::metadata(ck).map_err(|e| format!("cannot stat {ck}: {e}"))?.len();
        let resumed = run_job(&cfg, Job::Resume(ck))?;
        let got = file_digest(events)?;
        gates.check(resumed.written && resumed.work == first, || {
            format!(
                "run resumed at tick {} gave {:?} != uninterrupted {first:?}",
                stopped.work.tau, resumed.work
            )
        });
        gates.check(want == got, || {
            format!("events differ after resume: {got:?} != {want:?} (hash, bytes)")
        });
        out.layer("run.restore_ns", resumed.setup_s * 1e9);
        out.layer("run.restore_ckpt_bytes", ck_bytes as f64);
        out.layer("run.events_bytes", got.1 as f64);
    }
    out.attempted = gates.attempted;
    out.failures = gates.failures;
    if shape.every.is_some() {
        // The events file and checkpoints are large and of no use once checked.
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    }
    Ok(out)
}

/// Sizes and re-timed encode and write of the final checkpoint, rebuilt by
/// replaying the run to its tick.
fn checkpoint_layers(cfg: &RunConfig, tau: u64, out: &mut Outcome) -> Result<(), String> {
    let path = cfg.checkpoint.as_deref().expect("checkpointed workload");
    let every = cfg.every;
    let last = every * ((tau - 1) / every);
    let mut slot = None;
    run_job(cfg, Job::Snapshot(last, &mut slot))?;
    let ck = slot.expect("snapshot taken");
    let file_bytes = std::fs::metadata(path).map_err(|e| format!("cannot stat {path}: {e}"))?.len();
    out.layer("run.ckpt_file_bytes", file_bytes as f64);
    out.layer("run.ckpt_pattern_bytes", serde::json::to_string(&ck.machine.pattern).len() as f64);
    out.layer("run.ckpt_memory_bytes", serde::json::to_string(&ck.machine.mem).len() as f64);
    // The serialisation and publication `SessionCheckpoint::store`
    // performs, timed separately, into a sibling file.
    let t = Instant::now();
    let text = serde::json::to_string_pretty(&ck.to_value());
    out.layer("run.ckpt_encode_ns", t.elapsed().as_nanos() as f64);
    let retimed = format!("{path}.retimed");
    let t = Instant::now();
    write_atomic(&retimed, &text).map_err(err)?;
    out.layer("run.ckpt_write_ns", t.elapsed().as_nanos() as f64);
    std::fs::remove_file(&retimed).map_err(|e| format!("cannot remove {retimed}: {e}"))?;
    out.note(format!(
        "final checkpoint (tick {last}): {file_bytes} bytes on disk, {} bytes rebuilt",
        text.len()
    ));
    Ok(())
}
