//! Snapshot-machine throughput: the indexed engine vs the preserved
//! pre-rewrite reference.
//!
//! The workload is the §3 core: [`SnapshotBalance`] (Theorem 3.2) driven
//! by the [`Pigeonhole`] halving adversary (Theorem 3.1) with `P = N`,
//! plus the failure-free baseline. Criterion times the new
//! [`SnapshotMachine`] across sizes; `emit_artifact` additionally times
//! one run of [`ReferenceSnapshotMachine`] — the old engine, kept verbatim
//! for differential testing — at `N = 4096` and writes
//! `BENCH_SNAPSHOT.json` with the wall-clock numbers, the work stats, and
//! the measured reference/indexed speedup (the PR's acceptance bar is
//! ≥ 10× at that size). Set `RFSP_BENCH_QUICK=1` to trim the large sizes
//! (CI smoke mode); the N = 4096 comparison is cheap (~0.25 s) and runs
//! in quick mode too.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfsp_adversary::Pigeonhole;
use rfsp_core::{SnapshotBalance, WriteAllTasks};
use rfsp_pram::snapshot::reference::ReferenceSnapshotMachine;
use rfsp_pram::snapshot::{SnapshotMachine, SnapshotProgram, SnapshotView};
use rfsp_pram::{
    LayoutBuilder, NoFailures, Pid, RunLimits, SharedMemory, Step, WorkStats, WriteSet,
};
use serde::{Deserialize, Serialize};

/// The size where old and new engines are compared head to head.
const REFERENCE_N: usize = 4096;

fn sizes() -> Vec<usize> {
    if std::env::var_os("RFSP_BENCH_QUICK").is_some() {
        vec![1024, 4096]
    } else {
        vec![1024, 4096, 16384, 65536]
    }
}

/// One full run of the indexed machine; returns its stats.
fn run_new(n: usize, pigeonhole: bool) -> WorkStats {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let algo = SnapshotBalance::new(tasks, n);
    let mut m = SnapshotMachine::new(&algo, n, 1).expect("snapshot machine");
    let report = if pigeonhole {
        m.run(&mut Pigeonhole::new(tasks.x())).expect("snapshot run")
    } else {
        m.run(&mut NoFailures).expect("snapshot run")
    };
    assert!(tasks.all_written(m.memory()));
    report.stats
}

/// `SnapshotBalance` exactly as it executed before this rewrite: collect
/// the unvisited cells into a fresh `Vec` every cycle, then index it. The
/// current `SnapshotBalance` would run faster even on the old machine (its
/// scan fallbacks are allocation-free), so a faithful old-path measurement
/// needs the old program body too. Semantics are identical — the artifact
/// asserts equal stats.
struct ScanBalance {
    tasks: WriteAllTasks,
    p: usize,
}

impl SnapshotProgram for ScanBalance {
    type Private = ();
    fn shared_size(&self) -> usize {
        self.tasks.x().base() + self.tasks.x().len()
    }
    fn on_start(&self, _pid: Pid) {}
    fn execute(
        &self,
        pid: Pid,
        _state: &mut (),
        view: &SnapshotView<'_>,
        writes: &mut WriteSet,
    ) -> Step {
        let x = self.tasks.x();
        let unvisited: Vec<usize> = (0..x.len()).filter(|&i| view.peek(x.at(i)) == 0).collect();
        let u = unvisited.len();
        if u == 0 {
            return Step::Halt;
        }
        let k = (pid.0 * u / self.p).min(u - 1);
        writes.push(x.at(unvisited[k]), 1);
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        self.tasks.all_written(mem)
    }
}

/// One full run of the preserved pre-rewrite engine driving the
/// pre-rewrite program body; returns its stats.
fn run_reference(n: usize, pigeonhole: bool) -> WorkStats {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let algo = ScanBalance { tasks, p: n };
    let mut m = ReferenceSnapshotMachine::new(&algo, n, 1).expect("reference machine");
    let report = if pigeonhole {
        m.run(&mut Pigeonhole::new(tasks.x()), RunLimits::default()).expect("reference run")
    } else {
        m.run(&mut NoFailures, RunLimits::default()).expect("reference run")
    };
    assert!(tasks.all_written(m.memory()));
    report.stats
}

fn bench_snapshot_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_model");
    for &n in &sizes() {
        group.bench_with_input(BenchmarkId::new("pigeonhole", n), &n, |b, &n| {
            b.iter(|| run_new(n, true))
        });
        group.bench_with_input(BenchmarkId::new("no-failures", n), &n, |b, &n| {
            b.iter(|| run_new(n, false))
        });
    }
    group.finish();
}

/// One timed run inside `BENCH_SNAPSHOT.json`.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
struct SnapshotBenchRun {
    /// Row label (e.g. `"pigeonhole-n4096"`).
    label: String,
    /// `"indexed"` (the rewritten machine) or `"reference"` (the old one).
    machine: String,
    /// Problem size `N` (`P = N` throughout).
    n: u64,
    /// Wall-clock time of one complete run, in nanoseconds.
    wall_ns: u64,
    /// The run's work statistics (identical across machines by the
    /// equivalence proptests; recorded from this run for self-containment).
    stats: WorkStats,
}

/// Everything `BENCH_SNAPSHOT.json` holds.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
struct SnapshotBenchArtifact {
    /// Size of the head-to-head reference comparison.
    reference_n: u64,
    /// Old-engine wall clock at `reference_n` under the pigeonhole
    /// adversary, in nanoseconds.
    reference_wall_ns: u64,
    /// New-engine wall clock at `reference_n` under the pigeonhole
    /// adversary, in nanoseconds.
    indexed_wall_ns: u64,
    /// `reference_wall_ns / indexed_wall_ns` (the acceptance bar is 10.0).
    speedup: f64,
    /// All timed runs, in execution order.
    runs: Vec<SnapshotBenchRun>,
}

fn timed<F: FnMut() -> WorkStats>(mut f: F) -> (u64, WorkStats) {
    let t0 = Instant::now();
    let stats = f();
    (t0.elapsed().as_nanos() as u64, stats)
}

/// Time one run per configuration plus the old-vs-new comparison at
/// [`REFERENCE_N`], and write `BENCH_SNAPSHOT.json` — kept outside the
/// criterion loops so artifact I/O never pollutes the wall-time numbers.
fn emit_artifact(_c: &mut Criterion) {
    let dir = std::env::var("RFSP_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let mut runs = Vec::new();
    for &n in &sizes() {
        for (adversary, pigeonhole) in [("pigeonhole", true), ("nofail", false)] {
            let (wall_ns, stats) = timed(|| run_new(n, pigeonhole));
            runs.push(SnapshotBenchRun {
                label: format!("{adversary}-n{n}"),
                machine: "indexed".to_string(),
                n: n as u64,
                wall_ns,
                stats,
            });
        }
    }
    let (reference_wall_ns, ref_stats) = timed(|| run_reference(REFERENCE_N, true));
    runs.push(SnapshotBenchRun {
        label: format!("pigeonhole-n{REFERENCE_N}"),
        machine: "reference".to_string(),
        n: REFERENCE_N as u64,
        wall_ns: reference_wall_ns,
        stats: ref_stats,
    });
    let (indexed_wall_ns, new_stats) = timed(|| run_new(REFERENCE_N, true));
    assert_eq!(
        ref_stats, new_stats,
        "old and new snapshot machines diverged on the benchmark workload"
    );
    let speedup = reference_wall_ns as f64 / indexed_wall_ns.max(1) as f64;
    let artifact = SnapshotBenchArtifact {
        reference_n: REFERENCE_N as u64,
        reference_wall_ns,
        indexed_wall_ns,
        speedup,
        runs,
    };
    let path = std::path::Path::new(&dir).join("BENCH_SNAPSHOT.json");
    let json = serde::json::to_string_pretty(&artifact);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .expect("write artifact");
    println!("wrote {} (speedup at N = {REFERENCE_N}: {speedup:.1}x)", path.display());
}

criterion_group!(benches, bench_snapshot_model, emit_artifact);
criterion_main!(benches);
