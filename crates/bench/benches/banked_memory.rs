//! Banked shared memory: layout overhead and network cost.
//!
//! Two questions, one workload (algorithm X on Write-All, no failures):
//!
//! 1. **Layout overhead** (criterion group `banked_memory`): wall time of
//!    the same run under the flat layout and under word- and block-
//!    interleaved banked layouts. Cells are one flat array under every
//!    layout, so the only layout cost is mapping each charged read and
//!    write to its bank's counter; the timing difference measures that.
//!
//! 2. **Network cost per bank mapping** (`BENCH_BANKS.json`): one *real*
//!    machine execution per bank count, metered through the omega network
//!    by [`NetworkMeter`] — the exact access batches the machine commits
//!    are routed to the banks the layout maps each cell to, not a
//!    standalone replay. The artifact records, per bank count, the work
//!    stats, the network profile, and the per-bank write balance, so the
//!    sweep shows how contention falls as cells spread over more banks.
//!
//! Set `RFSP_BENCH_QUICK=1` to shrink the instance (CI smoke mode);
//! `RFSP_BENCH_DIR` chooses the artifact directory (default `.`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
use rfsp_net::{NetworkMeter, NetworkProfile, OmegaNetwork};
use rfsp_pram::{
    CycleBudget, LayoutBuilder, Machine, MemoryLayout, NoFailures, PramError, WorkStats,
};
use serde::{Deserialize, Serialize};

fn instance() -> (usize, usize) {
    if std::env::var_os("RFSP_BENCH_QUICK").is_some() {
        (4096, 16)
    } else {
        (65_536, 64)
    }
}

fn bank_sweep(p: usize) -> Vec<MemoryLayout> {
    let mut sweep = vec![MemoryLayout::Flat];
    let mut banks = 2;
    while banks <= 4 * p {
        sweep.push(MemoryLayout::banked(banks));
        banks *= 4;
    }
    // One block-interleaved point: same bank count as the network, cache
    // -line-sized blocks.
    sweep.push(MemoryLayout::Banked { banks: p, interleave: 8 });
    sweep
}

struct MeteredRun {
    stats: WorkStats,
    profile: NetworkProfile,
    bank_writes: Vec<u64>,
    verified: bool,
}

/// One full Write-All execution under `layout`, with every charged access
/// batch routed through the omega network to the layout's real banks.
fn run_metered(layout: MemoryLayout, n: usize, p: usize) -> Result<MeteredRun, PramError> {
    let mut lb = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut lb, n);
    let algo = AlgoX::new(&mut lb, tasks, p, XOptions::default());
    let mut m = Machine::with_layout(&algo, p, CycleBudget::PAPER, layout)?;
    let mut meter = NetworkMeter::new(NoFailures, OmegaNetwork::new(p)).with_layout(layout);
    let report = m.run(&mut meter)?;
    Ok(MeteredRun {
        stats: report.stats,
        profile: meter.profile(),
        bank_writes: m.memory().bank_counters().iter().map(|&(_, w)| w).collect(),
        verified: tasks.all_written(m.memory()),
    })
}

/// Plain timed run (no meter) for the criterion group.
fn run_plain(layout: MemoryLayout, n: usize, p: usize) -> u64 {
    let mut lb = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut lb, n);
    let algo = AlgoX::new(&mut lb, tasks, p, XOptions::default());
    let mut m = Machine::with_layout(&algo, p, CycleBudget::PAPER, layout).expect("valid layout");
    let report = m.run(&mut NoFailures).expect("bench run");
    assert!(tasks.all_written(m.memory()));
    report.stats.parallel_time
}

fn bench_banked_memory(c: &mut Criterion) {
    let (n, p) =
        if std::env::var_os("RFSP_BENCH_QUICK").is_some() { (1024, 16) } else { (8192, 64) };
    let mut group = c.benchmark_group("banked_memory");
    for layout in [
        MemoryLayout::Flat,
        MemoryLayout::banked(p),
        MemoryLayout::Banked { banks: p, interleave: 8 },
    ] {
        group.bench_with_input(BenchmarkId::new(layout.to_string(), n), &layout, |b, &layout| {
            b.iter(|| run_plain(layout, n, p))
        });
    }
    group.finish();
}

/// One row of `BENCH_BANKS.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct BankRow {
    layout: String,
    banks: u64,
    interleave: u64,
    verified: bool,
    completed_cycles: u64,
    parallel_time: u64,
    ticks: u64,
    network_cycles: u64,
    worst_tick: u64,
    packets: u64,
    combined: u64,
    slowdown_milli: u64,
    max_bank_writes: u64,
    min_bank_writes: u64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct BanksArtifact {
    experiment: String,
    algo: String,
    n: u64,
    p: u64,
    rows: Vec<BankRow>,
}

fn emit_artifact(_c: &mut Criterion) {
    let (n, p) = instance();
    let mut rows = Vec::new();
    for layout in bank_sweep(p) {
        let run = run_metered(layout, n, p).expect("metered run");
        assert!(run.verified, "write-all postcondition failed under {layout}");
        let (banks, interleave) = match layout {
            MemoryLayout::Flat => (1, 1),
            MemoryLayout::Banked { banks, interleave } => (banks as u64, interleave as u64),
        };
        rows.push(BankRow {
            layout: layout.to_string(),
            banks,
            interleave,
            verified: run.verified,
            completed_cycles: run.stats.completed_cycles,
            parallel_time: run.stats.parallel_time,
            ticks: run.profile.ticks,
            network_cycles: run.profile.network_cycles,
            worst_tick: run.profile.worst_tick,
            packets: run.profile.packets,
            combined: run.profile.combined,
            slowdown_milli: (run.profile.slowdown() * 1000.0) as u64,
            max_bank_writes: run.bank_writes.iter().copied().max().unwrap_or(0),
            min_bank_writes: run.bank_writes.iter().copied().min().unwrap_or(0),
        });
    }
    // Every layout runs the same program to the same result; the network
    // sweep only varies where the cells live.
    let first = &rows[0];
    assert!(
        rows.iter().all(|r| r.completed_cycles == first.completed_cycles
            && r.parallel_time == first.parallel_time),
        "bank layout changed the execution"
    );
    let artifact = BanksArtifact {
        experiment: "BANKS".to_string(),
        algo: "X".to_string(),
        n: n as u64,
        p: p as u64,
        rows,
    };
    let dir = std::env::var("RFSP_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_BANKS.json");
    let json = serde::json::to_string_pretty(&artifact);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .expect("write artifact");
    println!("wrote {}", path.display());
}

criterion_group!(benches, bench_banked_memory, emit_artifact);
criterion_main!(benches);
