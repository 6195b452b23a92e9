//! The `daemon` workload: the built `rfsp serve` binary as a child process
//! on a fresh spool, driven over its wire protocol by two closed-loop
//! clients in this process. Each client submits a job, follows its `Watch`
//! stream to EOF, then submits the next; one client's jobs run
//! `threads = 1`, the other's `threads = 2`.
//!
//! The harness cleans up after itself: the daemon is shut down over the
//! protocol, and on any error or timeout it is killed and reaped, so a
//! failed run leaves no daemon or socket behind.

use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rfsp_run::{read_line, write_line, DoneMarker, Request, Response, RunConfig};
use serde::Deserialize as _;

use crate::session::{reference_work, Work};
use crate::spans::Spans;
use crate::stats::{median, quantile, sorted, tail};
use crate::{mix, peak_rss_mb, room_for_another, Outcome};

/// Jobs per batch, split evenly over the two clients.
const JOBS: usize = 100;
/// Setup is timed at least this many times per run; the median is reported.
const MIN_SETUPS: usize = 15;
/// Longest wait for any one daemon reply or watch line.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Job `i` of a batch: a small X run under heavy random faults, so that
/// queueing, spool writes and watch fan-out dominate the tick compute.
fn job_config(seed: u64, i: usize) -> RunConfig {
    RunConfig {
        algo: "x".into(),
        n: 512,
        p: 32,
        threads: if i.is_multiple_of(2) { 1 } else { 2 },
        adversary: "random".into(),
        rate: 0.05,
        restart_rate: 0.5,
        seed: mix(seed ^ i as u64),
        ..RunConfig::default()
    }
}

/// A running `rfsp serve`, killed and reaped on drop unless it was shut
/// down cleanly.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawn a daemon on a fresh spool in `dir` and wait for its first
    /// `Jobs` reply. Returns the daemon and the time that took.
    fn spawn(rfsp: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("daemon.log"))
            .map_err(|e| format!("cannot create daemon log: {e}"))?;
        let started = Instant::now();
        let child = Command::new(rfsp)
            .args([
                "serve",
                "--spool",
                "spool",
                "--socket",
                "rfsp.sock",
                "--workers",
                "2",
                "--quantum",
                "50",
            ])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", rfsp.display()))?;
        let mut daemon = Daemon { child, socket: dir.join("rfsp.sock") };
        loop {
            if let Ok(Response::JobList { .. }) = daemon.request(&Request::Jobs) {
                return Ok((daemon, started.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "daemon exited during startup ({status}); see {}",
                    dir.join("daemon.log").display()
                ));
            }
            if started.elapsed() > TIMEOUT {
                return Err("daemon did not answer within the timeout".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn connect(&self) -> Result<UnixStream, String> {
        let s = UnixStream::connect(&self.socket).map_err(|e| format!("cannot connect: {e}"))?;
        s.set_read_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// One request, one response.
    fn request(&self, req: &Request) -> Result<Response, String> {
        let mut s = self.connect()?;
        write_line(&mut s, req).map_err(|e| e.0)?;
        read_line(&mut BufReader::new(s)).map_err(|e| e.0)?.ok_or_else(|| "daemon hung up".into())
    }

    /// `Shutdown` over the protocol, then wait for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        match self.request(&Request::Shutdown)? {
            Response::Done => {}
            other => return Err(format!("unexpected reply to Shutdown: {other:?}")),
        }
        let t = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if t.elapsed() > TIMEOUT => {
                    return Err("daemon did not exit after Shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One job as its client saw it; times in ns since the batch began.
struct JobRec {
    index: usize,
    id: u64,
    submit: u64,
    submitted: u64,
    first_line: Option<u64>,
    eof: u64,
    lines: u64,
    tick_gaps_us: Vec<f64>,
}

/// Submit job `index`, follow its watch stream to EOF.
fn one_job(d: &Daemon, cfg: &RunConfig, index: usize, origin: Instant) -> Result<JobRec, String> {
    let ns = || origin.elapsed().as_nanos() as u64;
    let submit = ns();
    let id = match d.request(&Request::Submit { config: cfg.clone() })? {
        Response::Submitted { job } => job,
        other => return Err(format!("job {index}: unexpected reply to Submit: {other:?}")),
    };
    let submitted = ns();
    let mut w = d.connect()?;
    write_line(&mut w, &Request::Watch { job: id }).map_err(|e| e.0)?;
    let mut r = BufReader::new(w);
    match read_line::<Response>(&mut r).map_err(|e| e.0)? {
        Some(Response::Done) => {}
        other => return Err(format!("job {index}: unexpected reply to Watch: {other:?}")),
    }
    let (mut first_line, mut lines, mut last_tick) = (None, 0, None);
    let mut tick_gaps_us = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n =
            r.read_line(&mut line).map_err(|e| format!("job {index}: watch read failed: {e}"))?;
        let now = ns();
        if n == 0 {
            return Ok(JobRec {
                index,
                id,
                submit,
                submitted,
                first_line,
                eof: now,
                lines,
                tick_gaps_us,
            });
        }
        first_line.get_or_insert(now);
        lines += 1;
        if line.contains("\"TickStart\"") {
            if let Some(t) = last_tick {
                tick_gaps_us.push((now - t) as f64 / 1e3);
            }
            last_tick = Some(now);
        }
    }
}

/// What the spool says about one finished job.
struct Finished {
    s: u64,
    tau: u64,
    checkpoints: u64,
    ck_bytes: u64,
    events_bytes: u64,
}

fn field(detail: &str, key: &str) -> Option<u64> {
    detail.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

fn finished(spool: &Path, id: u64) -> Result<Finished, String> {
    let dir = spool.join(format!("job-{id:06}"));
    let path = dir.join("done.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let marker = serde::json::parse(&text)
        .ok()
        .and_then(|v| DoneMarker::from_value(&v).ok())
        .ok_or_else(|| format!("{}: malformed marker", path.display()))?;
    if marker.state != "completed" {
        return Err(format!("job {id}: {} ({})", marker.state, marker.detail));
    }
    let size = |f: &str| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len());
    match (
        field(&marker.detail, "S"),
        field(&marker.detail, "tau"),
        field(&marker.detail, "checkpoints"),
    ) {
        (Some(s), Some(tau), Some(checkpoints)) => Ok(Finished {
            s,
            tau,
            checkpoints,
            ck_bytes: size("ck.json"),
            events_bytes: size("events.jsonl"),
        }),
        _ => Err(format!("job {id}: cannot parse {:?}", marker.detail)),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// One 100-job batch on a fresh daemon.
struct Batch {
    setup_s: f64,
    run_s: f64,
    rss_mb: f64,
    jobs: Vec<JobRec>,
    done: Vec<Result<Finished, String>>,
    spool_bytes: u64,
}

fn batch(rfsp: &Path, dir: &Path, configs: &[RunConfig]) -> Result<Batch, String> {
    let (daemon, setup_s) = Daemon::spawn(rfsp, dir)?;
    let origin = Instant::now();
    let results: Vec<Result<Vec<JobRec>, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let daemon = &daemon;
                scope.spawn(move || {
                    (c..configs.len())
                        .step_by(2)
                        .map(|i| one_job(daemon, &configs[i], i, origin))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let run_s = origin.elapsed().as_secs_f64();
    let mut jobs = Vec::with_capacity(configs.len());
    for r in results {
        jobs.extend(r?);
    }
    jobs.sort_by_key(|j| j.index);
    let rss_mb = peak_rss_mb(Some(daemon.child.id()))?;
    // Terminal markers are written after the watch stream closes; the
    // daemon joins every job before it exits.
    daemon.shutdown()?;
    let spool = dir.join("spool");
    let done = jobs.iter().map(|j| finished(&spool, j.id)).collect();
    let spool_bytes = dir_bytes(&spool);
    Ok(Batch { setup_s, run_s, rss_mb, jobs, done, spool_bytes })
}

/// Run the daemon workload for `seconds`, then, when `trace` is set, one
/// more batch whose client-side spans are kept and written out.
///
/// # Errors
///
/// Daemon start-up, protocol and I/O failures (the daemon is killed).
pub fn run(
    rfsp: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    // Absolute, because the daemon starts in its spool's directory.
    let rfsp = &std::fs::canonicalize(rfsp)
        .map_err(|e| format!("no rfsp binary at {}: {e}", rfsp.display()))?;
    let root = work.join("daemon");
    let configs: Vec<RunConfig> = (0..JOBS).map(|i| job_config(seed, i)).collect();
    // The in-process reference each daemon job must agree with.
    let reference: Vec<Work> = configs.iter().map(reference_work).collect::<Result<_, _>>()?;
    let mut out = Outcome::default();
    let mut failures = Vec::new();
    let check = |b: &Batch, failures: &mut Vec<String>| -> u64 {
        for (j, done) in b.jobs.iter().zip(&b.done) {
            let want = reference[j.index];
            match done {
                Ok(f) if f.s == want.s && f.tau == want.tau => {}
                Ok(f) => failures.push(format!(
                    "job {}: S={} tau={} != in-process {want:?}",
                    j.index, f.s, f.tau
                )),
                Err(e) => failures.push(e.clone()),
            }
        }
        b.jobs.len() as u64
    };

    let (mut setups, mut runs, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ticks, mut latencies) = (Vec::new(), Vec::new());
    let (begun, mut last) = (Instant::now(), None);
    while room_for_another(begun, last, seconds) {
        let t = Instant::now();
        let b = batch(rfsp, &root.join(format!("b{}", runs.len())), &configs)?;
        last = Some(t.elapsed().as_secs_f64());
        out.attempted += check(&b, &mut failures);
        setups.push(b.setup_s);
        runs.push(b.run_s);
        rss.push(b.rss_mb);
        for j in &b.jobs {
            ticks.extend_from_slice(&j.tick_gaps_us);
            latencies.push((j.eof - j.submit) as f64 / 1e9);
        }
    }
    while setups.len() < MIN_SETUPS {
        let (d, setup_s) = Daemon::spawn(rfsp, &root.join(format!("s{}", setups.len())))?;
        d.shutdown()?;
        setups.push(setup_s);
    }
    out.e2e("setup_s", median(&setups));
    let run_s = median(&runs);
    out.e2e("run_s", run_s);
    let ticks = sorted(ticks);
    out.e2e("tick_p50_us", quantile(&ticks, 0.5));
    out.layer("tick_p999_us", tail(&ticks, 999_000)?);
    out.e2e("job_p50_s", median(&latencies));
    out.e2e("job_p90_s", tail(&latencies, 900_000)?);
    out.e2e("peak_rss_mb", median(&rss));
    out.note(format!("{} batches of {JOBS} jobs, {} watched tick gaps", runs.len(), ticks.len()));

    if trace {
        let b = batch(rfsp, &root.join("traced"), &configs)?;
        out.attempted += check(&b, &mut failures);
        let mut spans = Spans::new(Instant::now());
        for j in &b.jobs {
            let first = j.first_line.unwrap_or(j.eof);
            let job = spans.push("serve.job", j.submit, j.eof, None, j.id);
            spans.push("serve.submit", j.submit, j.submitted, Some(job), j.id);
            spans.push("serve.queue_wait", j.submitted, first, Some(job), j.id);
            spans.push("serve.job_run", first, j.eof, Some(job), j.id);
        }
        let ms = |v: Vec<f64>| sorted(v.into_iter().map(|ns| ns / 1e6).collect());
        let per_job =
            |f: &dyn Fn(&JobRec) -> u64| b.jobs.iter().map(|j| f(j) as f64).collect::<Vec<_>>();
        let submit = ms(per_job(&|j| j.submitted - j.submit));
        let wait = ms(per_job(&|j| j.first_line.unwrap_or(j.eof) - j.submitted));
        let running = ms(per_job(&|j| j.eof - j.first_line.unwrap_or(j.eof)));
        out.layer("serve.submit_us", quantile(&submit, 0.5) * 1e3);
        out.layer("serve.queue_wait_ms_p50", quantile(&wait, 0.5));
        out.layer("serve.queue_wait_ms_p90", tail(&wait, 900_000)?);
        out.layer("serve.job_run_ms", quantile(&running, 0.5));
        let n = b.jobs.len() as f64;
        out.layer("serve.events_per_job", b.jobs.iter().map(|j| j.lines).sum::<u64>() as f64 / n);
        let ok: Vec<&Finished> = b.done.iter().filter_map(|d| d.as_ref().ok()).collect();
        let sum = |f: &dyn Fn(&Finished) -> u64| ok.iter().map(|d| f(d)).sum::<u64>() as f64;
        out.layer("serve.ckpts_per_job", sum(&|d| d.checkpoints) / n);
        out.layer("serve.spool_bytes", b.spool_bytes as f64);
        out.layer("serve.jobs", n);
        out.layer("pram.ticks", sum(&|d| d.tau));
        out.layer("pram.work_s", sum(&|d| d.s));
        out.layer("pram.pattern_size", reference.iter().map(|w| w.f).sum::<u64>() as f64);
        out.layer("run.ckpt_count", sum(&|d| d.checkpoints));
        out.layer("run.ckpt_file_bytes", sum(&|d| d.ck_bytes));
        out.layer("run.events_bytes", sum(&|d| d.events_bytes));
        out.layer("trace.overhead", b.run_s / run_s);
        let window = (b.run_s * 1e9) as u64;
        out.layer("trace.unattributed_share", spans.unattributed_share(0, window));
        out.layer("trace.spans", spans.spans().len() as f64);
        let path = work.join("daemon-spans.csv");
        spans.write_csv(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    out.failures = failures;
    // The spools are large and of no use once checked.
    std::fs::remove_dir_all(&root).map_err(|e| format!("cannot remove {}: {e}", root.display()))?;
    Ok(out)
}
