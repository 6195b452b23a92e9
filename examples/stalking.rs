//! §5 live: the stalking adversary vs randomized vs deterministic.
//!
//! Reproduces the paper's closing observation — a trivially simple on-line
//! adversary (watch one leaf, fail whoever touches it) devastates the
//! randomized coupon-clipping algorithm but cannot slow deterministic
//! algorithm X, whose processors converge on the stalked leaf in lockstep.
//!
//! ```sh
//! cargo run --release --example stalking
//! ```

use rfsp::adversary::{Stalking, StalkingMode};
use rfsp::core::{AccOptions, AlgoAcc, AlgoX, WriteAllTasks, XOptions};
use rfsp::pram::{CycleBudget, LayoutBuilder, Machine, PramError, RunLimits, RunSpec, RunStatus};

const N: usize = 32;
const P: usize = 6;
const LIMIT: u64 = 1_000_000;

fn stalk_x(mode: StalkingMode) -> String {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, N);
    let prog = AlgoX::new(&mut layout, tasks, P, XOptions::default());
    let mut adv = Stalking::new(tasks.x(), N - 1, mode);
    let mut m = Machine::new(&prog, P, CycleBudget::PAPER).expect("machine");
    match m.run_with(
        &mut adv,
        RunSpec { limits: RunLimits { max_cycles: LIMIT }, ..RunSpec::default() },
    ) {
        Ok(RunStatus::Completed(r)) => {
            format!("S = {:>8}  |F| = {:>6}", r.stats.completed_work(), r.stats.pattern_size())
        }
        Err(PramError::CycleLimit { .. }) => format!("held hostage ≥ {LIMIT} cycles"),
        other => panic!("unexpected outcome: {other:?}"),
    }
}

fn stalk_acc(mode: StalkingMode, seed: u64) -> String {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, N);
    let prog = AlgoAcc::new(&mut layout, tasks, AccOptions { seed });
    let mut adv = Stalking::new(tasks.x(), N - 1, mode);
    let mut m = Machine::new(&prog, P, CycleBudget::PAPER).expect("machine");
    match m.run_with(
        &mut adv,
        RunSpec { limits: RunLimits { max_cycles: LIMIT }, ..RunSpec::default() },
    ) {
        Ok(RunStatus::Completed(r)) => {
            format!("S = {:>8}  |F| = {:>6}", r.stats.completed_work(), r.stats.pattern_size())
        }
        Err(PramError::CycleLimit { .. }) => format!("held hostage ≥ {LIMIT} cycles"),
        other => panic!("unexpected outcome: {other:?}"),
    }
}

fn main() {
    println!("Stalking adversary (§5), Write-All N = {N}, P = {P}, target = last cell\n");
    println!("deterministic X, fail-stop stalker : {}", stalk_x(StalkingMode::FailStop));
    println!("deterministic X, restart stalker   : {}", stalk_x(StalkingMode::Restart));
    println!();
    for seed in [1u64, 2, 3] {
        println!(
            "randomized ACC (seed {seed}), fail-stop : {}",
            stalk_acc(StalkingMode::FailStop, seed)
        );
    }
    println!();
    for seed in [1u64, 2, 3] {
        println!(
            "randomized ACC (seed {seed}), restart   : {}",
            stalk_acc(StalkingMode::Restart, seed)
        );
    }
    println!(
        "\nThe restart-mode stalker releases its victims only when every \
         processor touches the leaf in the same cycle — an event that is \
         immediate for X (deterministic convergence) and exponentially rare \
         for ACC (independent random restarts), exactly as §5 argues."
    );
}
