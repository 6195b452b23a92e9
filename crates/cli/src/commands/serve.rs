//! `rfsp serve` — the multi-tenant experiment daemon — and its client
//! subcommands `submit`, `jobs`, and `cancel`.
//!
//! The daemon multiplexes many crash-safe
//! [`RunSession`](rfsp_run::RunSession)s over one process: a FIFO
//! round-robin [`Scheduler`](rfsp_run::Scheduler) hands out the run turn one
//! quantum at a time, jobs are preempted only at checkpoint boundaries
//! (every preemption pause publishes a durable checkpoint, so the spool
//! is always resumable), and pooled jobs share a single
//! [`SharedPool`](rfsp_pram::SharedPool) of tick workers.
//!
//! Everything the daemon knows lives in its on-disk spool — one directory
//! per job with the config, the latest checkpoint, and the events stream.
//! `kill -9` the daemon, restart it, and it re-adopts every unfinished
//! job from the spool and resumes it from its last checkpoint with a
//! byte-identical event stream; that is the machine-level crash-recovery
//! guarantee of `rfsp experiment --resume`, promoted to a service. The
//! job queue itself mirrors the paper's Do-All setting: independent tasks
//! that must all complete although the worker executing them can
//! fail-stop and restart at any moment.
//!
//! The wire protocol is newline-delimited JSON over a local Unix socket
//! (see [`rfsp_run::protocol`]); `rfsp submit/jobs/cancel` are thin
//! clients, and `nc -U` works in a pinch.

use crate::args::{ArgError, Args};

/// `rfsp serve`.
///
/// # Errors
///
/// Socket/spool I/O and malformed spool contents, as [`ArgError`].
pub fn serve(args: &Args) -> Result<(), ArgError> {
    imp::serve(args)
}

/// `rfsp submit`.
///
/// # Errors
///
/// Connection failures, daemon refusals, and bad run flags.
pub fn submit(args: &Args) -> Result<(), ArgError> {
    imp::submit(args)
}

/// `rfsp jobs`.
///
/// # Errors
///
/// Connection failures.
pub fn jobs(args: &Args) -> Result<(), ArgError> {
    imp::jobs(args)
}

/// `rfsp cancel`.
///
/// # Errors
///
/// Connection failures and unknown job ids.
pub fn cancel(args: &Args) -> Result<(), ArgError> {
    imp::cancel(args)
}

#[cfg(not(unix))]
mod imp {
    use super::*;

    fn unsupported() -> ArgError {
        ArgError("the experiment daemon needs a Unix platform (local socket)".into())
    }

    pub fn serve(_args: &Args) -> Result<(), ArgError> {
        Err(unsupported())
    }
    pub fn submit(_args: &Args) -> Result<(), ArgError> {
        Err(unsupported())
    }
    pub fn jobs(_args: &Args) -> Result<(), ArgError> {
        Err(unsupported())
    }
    pub fn cancel(_args: &Args) -> Result<(), ArgError> {
        Err(unsupported())
    }
}

#[cfg(unix)]
mod imp {
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::io::{BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, PoisonError};
    use std::time::Duration;

    use rfsp_bench::{with_write_all_program, WriteAllSetup, WriteAllVisitor};
    use rfsp_pram::{CycleBudget, Machine, Observer, Program, SharedPool, TraceEvent};
    use rfsp_run::{
        read_line, write_line, ExecMode, JobInfo, JobState, PauseFlow, Request, Response,
        RunConfig, RunSession, Scheduler, SessionCheckpoint, SessionEnd, Spool,
    };
    use serde::{Deserialize, Serialize};

    use super::*;
    use crate::commands::longrun::config_from_args;
    use crate::commands::writeall::parse_algo;

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Live state of one job, as the registry tracks it.
    struct JobEntry {
        state: JobState,
        cycle: u64,
        algo: String,
        n: u64,
        p: u64,
        cancel: Arc<AtomicBool>,
        watchers: Arc<Mutex<Watchers>>,
    }

    /// Everything the daemon's threads share.
    struct Daemon {
        spool: Spool,
        sched: Scheduler,
        pool: Option<SharedPool>,
        quantum: u64,
        registry: Mutex<BTreeMap<u64, JobEntry>>,
        handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
        next_id: Mutex<u64>,
        shutdown: AtomicBool,
        /// Where the daemon listens: a shutdown request connects here once
        /// to wake the blocking accept loop.
        socket: String,
    }

    /// How long one delivery may block on a watcher before the watcher is
    /// dropped. The scheduler serializes run segments, so a watcher that
    /// stops reading would otherwise stall every job once its socket
    /// buffer fills.
    const WATCH_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

    /// A job's live subscribers, and the event lines encoded for them
    /// since the last delivery.
    #[derive(Default)]
    struct Watchers {
        streams: Vec<UnixStream>,
        pending: Vec<u8>,
    }

    impl Watchers {
        /// Subscribe `stream`, bounding its writes by `timeout`.
        fn register(&mut self, stream: UnixStream, timeout: Duration) {
            if stream.set_write_timeout(Some(timeout)).is_ok() {
                self.streams.push(stream);
            }
        }

        /// Write the pending lines to every watcher, one write each. A
        /// watcher whose write fails — it hung up, or stalled past its
        /// write timeout — is dropped.
        fn deliver(&mut self) {
            if self.pending.is_empty() {
                return;
            }
            let lines = &self.pending;
            self.streams.retain_mut(|s| s.write_all(lines).is_ok());
            self.pending.clear();
        }
    }

    /// Streams a job's events to its watchers: each event is encoded once,
    /// as a `{"job":N,"event":…}` line, and the lines go out once per
    /// tick boundary ([`Watchers::deliver`] on every `TickStart`), once per
    /// pause before the job yields its turn, and once before the stream
    /// closes.
    struct Fan {
        /// `{"job":N,"event":`, the fixed head of every line.
        head: Vec<u8>,
        watchers: Arc<Mutex<Watchers>>,
    }

    impl Fan {
        fn new(job: u64, watchers: Arc<Mutex<Watchers>>) -> Self {
            Fan { head: format!("{{\"job\":{job},\"event\":").into_bytes(), watchers }
        }
    }

    impl Observer for Fan {
        fn event(&mut self, event: TraceEvent) {
            let mut w = lock(&self.watchers);
            if matches!(event, TraceEvent::TickStart { .. }) {
                w.deliver();
            }
            if w.streams.is_empty() {
                return;
            }
            w.pending.extend_from_slice(&self.head);
            event.write_json(&mut w.pending);
            w.pending.extend_from_slice(b"}\n");
        }
    }

    /// How a job's session ended, daemon-side.
    enum JobEnd {
        Completed(String),
        Canceled { cycle: u64 },
        Shutdown,
    }

    struct JobVisitor<'d> {
        daemon: &'d Daemon,
        job: u64,
        cfg: &'d RunConfig,
        resume: Option<SessionCheckpoint>,
    }

    impl WriteAllVisitor for JobVisitor<'_> {
        type Out = Result<JobEnd, ArgError>;

        fn visit<P>(self, prog: &P, setup: &WriteAllSetup, budget: CycleBudget) -> Self::Out
        where
            P: Program + Sync,
            P::Private: Send + Serialize + Deserialize,
        {
            let JobVisitor { daemon, job, cfg, resume } = self;
            let procs = cfg.p as usize;
            let build = Box::new(move || Machine::new(prog, procs, budget));
            // Pooled jobs share the daemon's worker pool; --threads 1 jobs
            // take the sequential engine. Either way the scheduler
            // serializes run segments, so the pool's turn lock never
            // contends.
            let exec = if cfg.threads > 1 {
                daemon.pool.as_ref().map_or(ExecMode::Threads(cfg.threads as usize), ExecMode::Pool)
            } else {
                ExecMode::Sequential
            };
            let mut session = match resume {
                Some(ck) => RunSession::resume(ck, exec, build)?,
                None => RunSession::new(cfg.clone(), exec, build)?,
            };
            let (cancel, watchers) = {
                let reg = lock(&daemon.registry);
                let entry = reg.get(&job).expect("job registered before spawn");
                (Arc::clone(&entry.cancel), Arc::clone(&entry.watchers))
            };
            let mut fan = Fan::new(job, Arc::clone(&watchers));

            daemon.sched.acquire(job);
            lock(&daemon.registry).get_mut(&job).expect("registered").state = JobState::Running;
            // Every quantum expiry is an *external* pause: the session
            // publishes a checkpoint before we yield the turn, so the
            // spool stays resumable at every preemption point.
            let quantum_end = Cell::new(session.cycle() + daemon.quantum);
            let stop = Cell::new(None);
            let end = session.run(
                &mut |cycle| {
                    cancel.load(Ordering::SeqCst)
                        || daemon.shutdown.load(Ordering::SeqCst)
                        || cycle >= quantum_end.get()
                },
                &mut |pause| {
                    lock(&daemon.registry).get_mut(&job).expect("registered").cycle = pause.cycle;
                    if cancel.load(Ordering::SeqCst) {
                        stop.set(Some(JobEnd::Canceled { cycle: pause.cycle }));
                        return PauseFlow::Stop;
                    }
                    if daemon.shutdown.load(Ordering::SeqCst) {
                        stop.set(Some(JobEnd::Shutdown));
                        return PauseFlow::Stop;
                    }
                    lock(&watchers).deliver();
                    daemon.sched.yield_turn(job);
                    quantum_end.set(pause.cycle + daemon.quantum);
                    PauseFlow::Continue
                },
                &mut fan,
            );
            daemon.sched.release(job);
            match end? {
                SessionEnd::Completed(report) => {
                    if !setup.tasks.all_written(session.memory()) {
                        return Err(ArgError(
                            "postcondition failed: array not fully written".into(),
                        ));
                    }
                    lock(&daemon.registry).get_mut(&job).expect("registered").cycle =
                        session.cycle();
                    Ok(JobEnd::Completed(format!(
                        "S={} tau={} checkpoints={} restores={}",
                        report.stats.completed_work(),
                        report.stats.parallel_time,
                        session.wasted().checkpoints,
                        session.wasted().restores,
                    )))
                }
                SessionEnd::Stopped { .. } => Ok(stop.take().unwrap_or(JobEnd::Shutdown)),
            }
        }
    }

    /// Body of a job thread: run the session, then publish the terminal
    /// state to the registry and (except on daemon shutdown) the spool.
    fn run_job(daemon: &Arc<Daemon>, job: u64, cfg: RunConfig, resume: Option<SessionCheckpoint>) {
        let outcome = parse_algo(&cfg.algo).and_then(|algo| {
            with_write_all_program(
                algo,
                cfg.n as usize,
                cfg.p as usize,
                JobVisitor { daemon, job, cfg: &cfg, resume },
            )
        });
        let (state, marker) = match &outcome {
            Ok(JobEnd::Completed(detail)) => {
                (JobState::Completed, Some(("completed", detail.clone())))
            }
            Ok(JobEnd::Canceled { cycle }) => {
                (JobState::Stopped, Some(("stopped", format!("canceled at tick {cycle}"))))
            }
            // Daemon shutdown: no terminal marker, so a restarted daemon
            // re-adopts the job and resumes it from its checkpoint.
            Ok(JobEnd::Shutdown) => (JobState::Stopped, None),
            Err(e) => (JobState::Failed, Some(("failed", e.0.clone()))),
        };
        let mut watchers = {
            let mut registry = lock(&daemon.registry);
            let entry = registry.get_mut(&job).expect("registered");
            entry.state = state;
            // Terminal now, so nobody registers again: the registry row
            // keeps no streams and no buffer.
            let taken = std::mem::take(&mut *lock(&entry.watchers));
            taken
        };
        // The last lines, then EOF: dropping the watcher streams ends a
        // `submit --watch` client once its job is terminal.
        watchers.deliver();
        drop(watchers);
        if let Some((tag, detail)) = marker {
            if let Err(e) = daemon.spool.mark_done(job, tag, &detail) {
                eprintln!("job {job}: cannot record terminal state: {e}");
            }
        }
        if let Err(e) = &outcome {
            eprintln!("job {job} failed: {e}");
        }
    }

    /// Register a job in the registry and spawn its thread.
    fn spawn_job(
        daemon: &Arc<Daemon>,
        job: u64,
        cfg: RunConfig,
        resume: Option<SessionCheckpoint>,
        state: JobState,
    ) {
        let entry = JobEntry {
            state,
            cycle: resume.as_ref().map_or(0, |ck| ck.machine.cycle),
            algo: cfg.algo.clone(),
            n: cfg.n,
            p: cfg.p,
            cancel: Arc::new(AtomicBool::new(false)),
            watchers: Arc::default(),
        };
        lock(&daemon.registry).insert(job, entry);
        let d = Arc::clone(daemon);
        let handle = std::thread::spawn(move || run_job(&d, job, cfg, resume));
        lock(&daemon.handles).push(handle);
    }

    /// Admit a submitted config: validate, spool it, spawn the job.
    fn admit(daemon: &Arc<Daemon>, config: RunConfig) -> Result<u64, ArgError> {
        parse_algo(&config.algo)?;
        let job = {
            let mut next = lock(&daemon.next_id);
            let id = *next;
            *next += 1;
            id
        };
        let cfg = daemon.spool.create_job(job, config)?;
        // Validate with the spool paths in place: this is what rejects
        // non-checkpointable algorithms (acc) at the door.
        cfg.validate()?;
        spawn_job(daemon, job, cfg, None, JobState::Queued);
        Ok(job)
    }

    fn job_rows(daemon: &Daemon) -> Vec<JobInfo> {
        lock(&daemon.registry)
            .iter()
            .map(|(&job, e)| JobInfo {
                job,
                state: e.state,
                cycle: e.cycle,
                algo: e.algo.clone(),
                n: e.n,
                p: e.p,
            })
            .collect()
    }

    /// Serve one client connection (one request; `Watch` keeps the socket).
    fn handle_client(daemon: &Arc<Daemon>, stream: UnixStream) {
        let Ok(reader) = stream.try_clone() else { return };
        let mut reader = BufReader::new(reader);
        let mut out = stream;
        let request = match read_line::<Request>(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                let _ = write_line(&mut out, &Response::Err { message: e.0 });
                return;
            }
        };
        let response = match request {
            Request::Submit { config } => match admit(daemon, config) {
                Ok(job) => Response::Submitted { job },
                Err(e) => Response::Err { message: e.0 },
            },
            Request::Jobs => Response::JobList { jobs: job_rows(daemon) },
            Request::Cancel { job } => match lock(&daemon.registry).get(&job) {
                Some(entry) => {
                    entry.cancel.store(true, Ordering::SeqCst);
                    Response::Done
                }
                None => Response::Err { message: format!("no such job: {job}") },
            },
            Request::Watch { job } => match lock(&daemon.registry).get(&job) {
                Some(entry) => {
                    // Registering on a terminal job would hang the client
                    // forever; ack and hang up instead (the registry lock
                    // orders this against run_job's terminal transition).
                    let live = matches!(entry.state, JobState::Queued | JobState::Running);
                    if write_line(&mut out, &Response::Done).is_ok() && live {
                        lock(&entry.watchers).register(out, WATCH_WRITE_TIMEOUT);
                    }
                    return;
                }
                None => Response::Err { message: format!("no such job: {job}") },
            },
            Request::Shutdown => {
                daemon.shutdown.store(true, Ordering::SeqCst);
                let _ = write_line(&mut out, &Response::Done);
                // The accept loop blocks until the next connection; make
                // one so it sees the flag.
                let _ = UnixStream::connect(&daemon.socket);
                return;
            }
        };
        let _ = write_line(&mut out, &response);
    }

    fn sock_err(what: &str, path: &str, e: &dyn std::fmt::Display) -> ArgError {
        ArgError(format!("cannot {what} {path}: {e}"))
    }

    pub fn serve(args: &Args) -> Result<(), ArgError> {
        let spool_dir = args.get_or("spool", "rfsp-spool").to_string();
        let socket =
            args.get("socket").map_or_else(|| format!("{spool_dir}/rfsp.sock"), str::to_string);
        let workers: usize = args.get_parsed("workers", 2)?;
        let quantum: u64 = args.get_parsed("quantum", 50u64)?;
        if quantum == 0 {
            return Err(ArgError("--quantum must be at least 1 tick".into()));
        }
        let spool = Spool::open(Path::new(&spool_dir))?;
        let adopt = spool.scan()?;
        let next_id = spool.next_job_id()?;
        let pool = if workers >= 2 {
            Some(SharedPool::new(workers).map_err(|e| ArgError(e.to_string()))?)
        } else {
            None
        };
        let daemon = Arc::new(Daemon {
            spool,
            sched: Scheduler::new(),
            pool,
            quantum,
            registry: Mutex::new(BTreeMap::new()),
            handles: Mutex::new(Vec::new()),
            next_id: Mutex::new(next_id),
            shutdown: AtomicBool::new(false),
            socket: socket.clone(),
        });

        // Re-adopt the spool: finished jobs become history rows, every
        // unfinished job restarts — from its checkpoint when one exists.
        for sj in adopt {
            match sj.done {
                Some(marker) => {
                    let state = match marker.state.as_str() {
                        "completed" => JobState::Completed,
                        "failed" => JobState::Failed,
                        _ => JobState::Stopped,
                    };
                    let cycle = sj.resume.as_ref().map_or(0, |ck| ck.machine.cycle);
                    lock(&daemon.registry).insert(
                        sj.job,
                        JobEntry {
                            state,
                            cycle,
                            algo: sj.config.algo.clone(),
                            n: sj.config.n,
                            p: sj.config.p,
                            cancel: Arc::new(AtomicBool::new(false)),
                            watchers: Arc::default(),
                        },
                    );
                }
                None => {
                    let resumed = sj.resume.is_some();
                    spawn_job(&daemon, sj.job, sj.config, sj.resume, JobState::Queued);
                    eprintln!(
                        "re-adopted job {} from spool ({})",
                        sj.job,
                        if resumed { "resuming from checkpoint" } else { "starting from scratch" }
                    );
                }
            }
        }

        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket).map_err(|e| sock_err("bind", &socket, &e))?;
        println!("rfsp serve: listening on {socket} (spool {spool_dir}, quantum {quantum} ticks)");
        // A blocking accept serves each client at once: a watcher that
        // subscribes right after its submit must be registered before the
        // job's first ticks, or it misses them.
        while !daemon.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let d = Arc::clone(&daemon);
                    std::thread::spawn(move || handle_client(&d, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(sock_err("accept on", &socket, &e)),
            }
        }
        // Graceful shutdown: every job sees the flag at its next pause,
        // checkpoints, and stops; the spool keeps them resumable.
        eprintln!("rfsp serve: shutting down (jobs checkpoint and stop)");
        let handles: Vec<_> = std::mem::take(&mut *lock(&daemon.handles));
        for h in handles {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&socket);
        Ok(())
    }

    fn connect(args: &Args) -> Result<UnixStream, ArgError> {
        let socket = args.get("socket").ok_or_else(|| {
            ArgError("--socket PATH is required (where rfsp serve listens)".into())
        })?;
        UnixStream::connect(socket).map_err(|e| sock_err("connect to", socket, &e))
    }

    fn roundtrip(args: &Args, request: &Request) -> Result<Response, ArgError> {
        let mut stream = connect(args)?;
        write_line(&mut stream, request)?;
        let mut reader = BufReader::new(stream);
        read_line::<Response>(&mut reader)?
            .ok_or_else(|| ArgError("daemon hung up without a response".into()))
    }

    fn refuse(message: String) -> ArgError {
        ArgError(format!("daemon refused: {message}"))
    }

    pub fn submit(args: &Args) -> Result<(), ArgError> {
        // The daemon owns the artifact paths (they live in its spool).
        let mut config = config_from_args(args)?;
        config.checkpoint = None;
        config.events = None;
        match roundtrip(args, &Request::Submit { config })? {
            Response::Submitted { job } => {
                println!("job {job}");
                if args.flag("watch") {
                    watch(args, job)?;
                }
                Ok(())
            }
            Response::Err { message } => Err(refuse(message)),
            other => Err(ArgError(format!("unexpected daemon response: {other:?}"))),
        }
    }

    /// Subscribe to a job's telemetry and copy it to stdout until the job
    /// ends or the daemon goes away.
    fn watch(args: &Args, job: u64) -> Result<(), ArgError> {
        let mut stream = connect(args)?;
        write_line(&mut stream, &Request::Watch { job })?;
        let mut reader = BufReader::new(stream);
        match read_line::<Response>(&mut reader)? {
            Some(Response::Done) => {}
            Some(Response::Err { message }) => return Err(refuse(message)),
            other => return Err(ArgError(format!("unexpected daemon response: {other:?}"))),
        }
        let mut out = std::io::stdout().lock();
        loop {
            use std::io::BufRead;
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return Ok(()),
                Ok(_) => {
                    let _ = out.write_all(line.as_bytes());
                }
            }
        }
    }

    pub fn jobs(args: &Args) -> Result<(), ArgError> {
        match roundtrip(args, &Request::Jobs)? {
            Response::JobList { jobs } => {
                println!(
                    "{:>6}  {:<10} {:>10}  {:<12} {:>10} {:>6}",
                    "JOB", "STATE", "TICK", "ALGO", "N", "P"
                );
                for j in jobs {
                    println!(
                        "{:>6}  {:<10} {:>10}  {:<12} {:>10} {:>6}",
                        j.job,
                        format!("{:?}", j.state),
                        j.cycle,
                        j.algo,
                        j.n,
                        j.p
                    );
                }
                Ok(())
            }
            Response::Err { message } => Err(refuse(message)),
            other => Err(ArgError(format!("unexpected daemon response: {other:?}"))),
        }
    }

    pub fn cancel(args: &Args) -> Result<(), ArgError> {
        let request = if args.flag("shutdown") {
            Request::Shutdown
        } else if args.get("job").is_some() {
            Request::Cancel { job: args.get_parsed::<u64>("job", 0)? }
        } else {
            return Err(ArgError("--job N is required (or --shutdown)".into()));
        };
        match roundtrip(args, &request)? {
            Response::Done => Ok(()),
            Response::Err { message } => Err(refuse(message)),
            other => Err(ArgError(format!("unexpected daemon response: {other:?}"))),
        }
    }

    #[cfg(test)]
    mod tests {
        use std::io::Read as _;

        use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
        use rfsp_pram::{LayoutBuilder, Tee, TraceRecorder};

        use super::*;

        /// A watcher that never reads must not stall its job: once its
        /// socket buffer is full, the next delivery times out, the watcher
        /// is dropped like one that hung up, and the job runs to
        /// completion — while a reading watcher still receives every line.
        #[test]
        fn stalled_watcher_is_dropped_and_the_job_completes() {
            let (stalled, _never_read) = UnixStream::pair().unwrap();
            let (live, mut reader) = UnixStream::pair().unwrap();
            let watchers = Arc::new(Mutex::new(Watchers::default()));
            lock(&watchers).register(stalled, Duration::from_millis(50));
            lock(&watchers).register(live, WATCH_WRITE_TIMEOUT);
            let drain = std::thread::spawn(move || {
                let mut got = Vec::new();
                reader.read_to_end(&mut got).unwrap();
                got
            });

            let cfg = RunConfig {
                n: 16_384,
                p: 8,
                adversary: "random".into(),
                seed: 5,
                ..RunConfig::default()
            };
            let mut layout = LayoutBuilder::new();
            let tasks = WriteAllTasks::new(&mut layout, cfg.n as usize);
            let prog = AlgoX::new(&mut layout, tasks, cfg.p as usize, XOptions::default());
            let build = Box::new(|| Machine::new(&prog, 8, rfsp_pram::CycleBudget::PAPER));
            let mut session = RunSession::new(cfg, ExecMode::Sequential, build).unwrap();
            let mut fan = Fan::new(7, Arc::clone(&watchers));
            let mut rec = TraceRecorder::unbounded();
            let end = session
                .run(&mut |_| false, &mut |_| PauseFlow::Continue, &mut Tee(&mut fan, &mut rec))
                .unwrap();
            assert!(matches!(end, SessionEnd::Completed(_)));
            assert!(tasks.all_written(session.memory()));
            {
                let mut w = lock(&watchers);
                w.deliver();
                assert_eq!(w.streams.len(), 1, "the stalled watcher was not dropped");
                w.streams.clear();
            }

            let mut want = String::new();
            for line in rec.to_jsonl().lines() {
                want.push_str(&format!("{{\"job\":7,\"event\":{line}}}\n"));
            }
            let got = drain.join().unwrap();
            assert!(got == want.as_bytes(), "the reading watcher's stream is not the job's");
            // The stalled watcher's buffer must really have filled.
            assert!(want.len() > 4 << 20, "enlarge the job: {} bytes", want.len());
        }
    }
}
