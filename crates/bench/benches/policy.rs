//! Checkpoint-policy sweep: fixed intervals vs the adaptive engine.
//!
//! The question this artifact answers: over a swept burst intensity, does
//! the adaptive [`PolicyEngine`] keep the fault-tolerance bill — ticks
//! replayed after restores plus ticks spent writing checkpoints — at or
//! below the *better* of the two fixed-interval extremes at every
//! intensity? A fixed interval can only be right at one intensity; the
//! adaptive engine must be acceptable at all of them.
//!
//! The sweep has two halves:
//!
//! 1. **Record** — a real machine run: Algorithm X under
//!    [`BurstyFaults`] (Markov-modulated calm/burst churn) at the swept
//!    burst intensity, with an observer collecting the per-tick failure
//!    counts and a mid-run machine checkpoint measured for its serialized
//!    byte size. Everything the policy engine is allowed to see.
//! 2. **Simulate** — a deterministic crash/replay simulation over that
//!    recorded series (tiled to a fixed horizon), one pass per policy:
//!    `fixed:8`, `fixed:2048`, and `adaptive`. The engine under test is
//!    the *production* [`PolicyEngine`] — the same `observe_tick` /
//!    `checkpoint_due` / `record_checkpoint` / state-snapshot code path
//!    the crash-safe runner drives.
//!
//! **Host crashes** are derived from the recorded series itself: one
//! crash per [`F_CRASH`]-th machine failure, so the crash rate scales
//! with the swept intensity and is *identical across policies* (the only
//! fair comparison). A crash rewinds the position and the engine to the
//! last checkpoint snapshot — or to the start when none exists — and the
//! rewound distance is the replayed-work bill.
//!
//! **Calibration.** The engine's EWMA `λ` counts *machine* failures per
//! tick, while a host crash arrives once per `F_CRASH` of them; the
//! Young/Daly optimum for the crash process is therefore
//! `√(2·(C·F_CRASH)/λ)`. The bench passes the engine a [`PolicyConfig`]
//! whose cost prior is `C·F_CRASH` tick units and whose `bytes_per_tick`
//! keeps the byte-refined cost on that scale — a pure unit conversion,
//! stated here so nobody mistakes it for tuning-to-pass.
//!
//! The run **asserts** the acceptance claim (adaptive ≤ min of the fixed
//! extremes on wasted ticks at every intensity) and writes
//! `BENCH_POLICY.json`. `RFSP_BENCH_QUICK=1` shrinks the sweep for CI
//! smoke; `RFSP_BENCH_DIR` picks the artifact directory (default `.`).

use rfsp_adversary::BurstyFaults;
use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
use rfsp_pram::{
    CycleBudget, LayoutBuilder, Machine, Observer, PolicyConfig, PolicyEngine, PolicyKind,
    RunControl, RunSpec, RunStatus, TraceEvent,
};
use serde::{Deserialize, Serialize};

/// Wall cost of writing one checkpoint, in tick units.
const COST_TICKS: u64 = 8;
/// Wall cost of one restore (process relaunch + state rehydration).
const RESTORE_TICKS: u64 = 20;
/// One host crash per this many machine failures: the crash process the
/// policies are judged against, derived from the recorded series so it
/// scales with intensity and is identical for every policy.
const F_CRASH: u64 = 400;
/// The fixed-interval extremes the adaptive engine must not lose to.
const K_SMALL: u64 = 8;
const K_LARGE: u64 = 2048;

fn quick() -> bool {
    std::env::var_os("RFSP_BENCH_QUICK").is_some()
}

/// Simulation horizon in ticks (the recorded series is tiled to this).
fn horizon() -> usize {
    if quick() {
        4096
    } else {
        16384
    }
}

/// Swept burst intensities (`p_fail_burst` of the bursty adversary).
fn intensities() -> Vec<f64> {
    if quick() {
        vec![0.1, 0.6]
    } else {
        vec![0.05, 0.2, 0.4, 0.8]
    }
}

/// Recorded-workload instance size.
fn workload_n() -> usize {
    if quick() {
        512
    } else {
        2048
    }
}

const WORKLOAD_P: usize = 32;

/// Collects per-tick machine failure counts from the event stream — the
/// same signal the production engine folds.
#[derive(Default)]
struct FailureSeries {
    per_tick: Vec<u64>,
}

impl Observer for FailureSeries {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::TickStart { .. } => self.per_tick.push(0),
            TraceEvent::Failure { .. } => {
                if let Some(last) = self.per_tick.last_mut() {
                    *last += 1;
                }
            }
            _ => {}
        }
    }
}

/// One real machine run at `intensity`: returns the per-tick failure
/// series and the encoded size of a mid-run machine checkpoint — the
/// machine-state bytes a crash-safe session feeds its engine.
fn record(intensity: f64, seed: u64) -> (Vec<u64>, u64) {
    let n = workload_n();
    let mut lb = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut lb, n);
    let algo = AlgoX::new(&mut lb, tasks, WORKLOAD_P, XOptions::default());
    let mut m = Machine::new(&algo, WORKLOAD_P, CycleBudget::PAPER).expect("workload machine");
    let mut adv = BurstyFaults::preset(intensity, seed);
    let mut series = FailureSeries::default();
    let mut ck_bytes = 0u64;
    let mut last_pause = None;
    loop {
        let lp = last_pause;
        let pause = &mut |cycle| {
            // One pause to measure a live checkpoint's byte size.
            if cycle >= 32 && lp.is_none() {
                RunControl::Pause
            } else {
                RunControl::Continue
            }
        };
        let spec =
            RunSpec { observer: Some(&mut series), control: Some(pause), ..RunSpec::default() };
        let status = m.run_with(&mut adv, spec).expect("workload run");
        match status {
            RunStatus::Completed(_) => break,
            RunStatus::Paused { cycle } => {
                last_pause = Some(cycle);
                let ck = m.save_checkpoint(&adv).expect("measure checkpoint");
                let mut bytes = Vec::new();
                ck_bytes = ck.encode_state_into(&mut bytes) as u64;
            }
        }
    }
    assert!(tasks.all_written(m.memory()), "workload postcondition failed");
    assert!(!series.per_tick.is_empty(), "workload produced no ticks");
    (series.per_tick, ck_bytes)
}

/// Tile `series` to exactly `len` ticks, preserving its burst structure.
fn tile(series: &[u64], len: usize) -> Vec<u64> {
    series.iter().copied().cycle().take(len).collect()
}

/// Tick boundaries at which a host crash fires: after every `F_CRASH`-th
/// machine failure of the (tiled) series. Strictly increasing; each fires
/// once, on first reaching the boundary.
fn crash_positions(series: &[u64]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut cum = 0u64;
    let mut next = F_CRASH;
    for (i, &f) in series.iter().enumerate() {
        cum += f;
        while cum >= next {
            out.push(i + 1);
            next += F_CRASH;
        }
    }
    out.dedup();
    out
}

/// The engine tuning for this sweep — the calibration described in the
/// module docs: cost and byte scale carry the `F_CRASH` unit conversion.
fn engine_config(ck_bytes: u64) -> PolicyConfig {
    let cost = COST_TICKS * F_CRASH;
    PolicyConfig {
        cost_ticks: cost,
        bytes_per_tick: (ck_bytes / cost).max(1),
        ..PolicyConfig::default()
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct PolicyRow {
    intensity: f64,
    policy: String,
    checkpoints: u64,
    restores: u64,
    replayed_ticks: u64,
    checkpoint_overhead_ticks: u64,
    /// The judged quantity: replayed + checkpoint overhead.
    wasted_ticks: u64,
    /// Time to completion: horizon + waste + restore downtime.
    wall_ticks: u64,
    /// Interval in force when the horizon was reached.
    k_final: u64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct IntensityPoint {
    intensity: f64,
    recorded_ticks: u64,
    total_failures: u64,
    crashes: u64,
    machine_ck_bytes: u64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct PolicyArtifact {
    experiment: String,
    quick: bool,
    horizon_ticks: u64,
    f_crash: u64,
    cost_ticks: u64,
    restore_ticks: u64,
    workload_n: u64,
    workload_p: u64,
    points: Vec<IntensityPoint>,
    rows: Vec<PolicyRow>,
}

/// Deterministic crash/replay simulation of one policy over the series.
fn simulate(series: &[u64], crashes: &[usize], kind: PolicyKind, ck_bytes: u64) -> PolicyRow {
    let config = engine_config(ck_bytes);
    let mut engine = PolicyEngine::with_config(kind, config);
    // The last checkpoint: rewind target position + engine snapshot, the
    // in-simulation analogue of the v4 checkpoint's policy payload.
    let mut saved: Option<(usize, PolicyEngine)> = None;
    let mut pos = 0usize;
    let mut high_water = 0usize;
    let mut crash_idx = 0usize;
    let (mut checkpoints, mut restores, mut replayed, mut overhead, mut wall) = (0, 0, 0, 0, 0u64);
    while pos < series.len() {
        engine.observe_tick(series[pos]);
        pos += 1;
        wall += 1;
        // Host crashes fire once, on first reaching their boundary —
        // replayed ticks never re-trigger them (the external world does
        // not crash again because we rewound our own clock).
        if pos > high_water {
            high_water = pos;
            if crash_idx < crashes.len() && crashes[crash_idx] == pos {
                crash_idx += 1;
                restores += 1;
                wall += RESTORE_TICKS;
                match &saved {
                    Some((at, snapshot)) => {
                        replayed += (pos - at) as u64;
                        pos = *at;
                        engine = snapshot.clone();
                    }
                    None => {
                        replayed += pos as u64;
                        pos = 0;
                        engine = PolicyEngine::with_config(kind, config);
                    }
                }
                continue;
            }
        }
        let cycle = pos as u64;
        if engine.checkpoint_due(cycle) {
            engine.record_checkpoint(cycle, ck_bytes);
            saved = Some((pos, engine.clone()));
            checkpoints += 1;
            overhead += COST_TICKS;
            wall += COST_TICKS;
        }
    }
    PolicyRow {
        intensity: 0.0, // filled by the caller
        policy: kind.to_string(),
        checkpoints,
        restores,
        replayed_ticks: replayed,
        checkpoint_overhead_ticks: overhead,
        wasted_ticks: replayed + overhead,
        wall_ticks: wall,
        k_final: engine.interval(),
    }
}

fn main() {
    let horizon = horizon();
    let mut points = Vec::new();
    let mut rows: Vec<PolicyRow> = Vec::new();
    for (i, intensity) in intensities().into_iter().enumerate() {
        let (recorded, ck_bytes) = record(intensity, 0xC0FFEE + i as u64);
        let series = tile(&recorded, horizon);
        let crashes = crash_positions(&series);
        points.push(IntensityPoint {
            intensity,
            recorded_ticks: recorded.len() as u64,
            total_failures: series.iter().sum(),
            crashes: crashes.len() as u64,
            machine_ck_bytes: ck_bytes,
        });
        for kind in [PolicyKind::Fixed(K_SMALL), PolicyKind::Fixed(K_LARGE), PolicyKind::Adaptive] {
            let mut row = simulate(&series, &crashes, kind, ck_bytes);
            row.intensity = intensity;
            println!(
                "intensity {intensity:>4}: {:<12} wasted {:>7} (replayed {:>7} + overhead {:>6})  \
                 checkpoints {:>5}  restores {:>3}  k_final {:>4}",
                row.policy,
                row.wasted_ticks,
                row.replayed_ticks,
                row.checkpoint_overhead_ticks,
                row.checkpoints,
                row.restores,
                row.k_final,
            );
            rows.push(row);
        }
    }

    // The acceptance claim, asserted so the bench's exit code gates it:
    // at EVERY swept intensity the adaptive policy wastes no more than
    // the better of the two fixed extremes.
    for point in &points {
        let wasted = |tag: &str| {
            rows.iter()
                .find(|r| r.intensity == point.intensity && r.policy == tag)
                .map(|r| r.wasted_ticks)
                .expect("row present")
        };
        let adaptive = wasted("adaptive");
        let best_fixed =
            wasted(&format!("fixed:{K_SMALL}")).min(wasted(&format!("fixed:{K_LARGE}")));
        assert!(
            adaptive <= best_fixed,
            "adaptive policy wasted {adaptive} ticks at intensity {}, worse than the better \
             fixed extreme ({best_fixed})",
            point.intensity
        );
    }

    let artifact = PolicyArtifact {
        experiment: "POLICY".to_string(),
        quick: quick(),
        horizon_ticks: horizon as u64,
        f_crash: F_CRASH,
        cost_ticks: COST_TICKS,
        restore_ticks: RESTORE_TICKS,
        workload_n: workload_n() as u64,
        workload_p: WORKLOAD_P as u64,
        points,
        rows,
    };
    let dir = std::env::var("RFSP_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_POLICY.json");
    let json = serde::json::to_string_pretty(&artifact.to_value());
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .expect("write artifact");
    println!("wrote {}", path.display());
}
