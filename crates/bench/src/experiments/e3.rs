//! E3 — Theorem 3.2: the oblivious balanced-allocation algorithm matches
//! the lower bound in the snapshot model: `S = Θ(N log N)`.

use rfsp_adversary::Pigeonhole;
use rfsp_core::{SnapshotBalance, WriteAllTasks};
use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{LayoutBuilder, NoFailures, Observer, RunLimits, RunSpec, WorkStats};

use crate::{fmt, print_table, TelemetrySink};

fn run_snapshot(n: usize, with_adversary: bool, observer: &mut dyn Observer) -> WorkStats {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let algo = SnapshotBalance::new(tasks, n);
    let mut m = SnapshotMachine::new(&algo, n, 1).expect("snapshot machine");
    let limits = RunLimits::default();
    let spec = RunSpec { limits, observer: Some(observer), ..RunSpec::default() };
    let status = if with_adversary {
        m.run_with(&mut Pigeonhole::new(tasks.x()), spec)
    } else {
        m.run_with(&mut NoFailures, spec)
    };
    let report =
        status.expect("snapshot run").completed().expect("a run without a control hook completes");
    assert!(tasks.all_written(m.memory()));
    report.stats
}

/// Run experiment E3.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e3");
    let mut rows = Vec::new();
    // ×4 ladder up to 64k (see E2); both columns run on the indexed
    // snapshot machine, so even N = 65536 finishes in well under a second.
    for n in [256usize, 1024, 4096, 16384, 65536] {
        let nlogn = n as f64 * (n as f64).log2();
        // The unified core streams snapshot-model events like any other
        // run, so both columns carry full per-tick telemetry.
        let adv_stats =
            sink.observe_snapshot(format!("snapshot-pigeonhole-n{n}"), "snapshot", n, n, |obs| {
                run_snapshot(n, true, obs)
            });
        let free_stats =
            sink.observe_snapshot(format!("snapshot-nofail-n{n}"), "snapshot", n, n, |obs| {
                run_snapshot(n, false, obs)
            });
        let s_adv = adv_stats.completed_work();
        let s_free = free_stats.completed_work();
        rows.push(vec![
            n.to_string(),
            s_adv.to_string(),
            fmt(s_adv as f64 / nlogn),
            s_free.to_string(),
            fmt(s_free as f64 / n as f64),
        ]);
    }
    print_table(
        "E3 (Theorem 3.2) — snapshot-model balanced allocation, P = N",
        &["N", "S (pigeonhole)", "S/(N log₂ N)", "S (no failures)", "S/N (no failures)"],
        &rows,
    );
    println!();
    println!(
        "Paper: S = Θ(N log N) under the worst-case adversary — the ratio \
         S/(N log₂ N) converges to a constant — and S = N exactly with no \
         failures (one balanced cycle per processor)."
    );
    sink.finish();
}
