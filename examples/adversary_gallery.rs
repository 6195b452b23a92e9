//! A tour of the paper's adversaries.
//!
//! Pits each Write-All algorithm against each of the paper's constructive
//! adversary strategies and prints the completed-work matrix — a compact
//! live demonstration of every lower-bound argument in the paper.
//!
//! ```sh
//! cargo run --release --example adversary_gallery
//! ```

use rfsp::adversary::{Pigeonhole, RandomFaults, Thrashing, XKiller};
use rfsp::core::{AlgoV, AlgoW, AlgoX, Interleaved, WriteAllTasks, XOptions};
use rfsp::pram::{Adversary, CycleBudget, LayoutBuilder, Machine, NoFailures};

const N: usize = 512;
const P: usize = 512;

/// Constructor for an adversary, given what the algorithm exposes.
type AdversaryMaker = Box<
    dyn Fn(
        &WriteAllTasks,
        Option<rfsp::core::XLayout>,
        Option<rfsp::core::HeapTree>,
    ) -> Box<dyn Adversary>,
>;

/// Run one (algorithm, adversary) cell and return completed work.
#[allow(clippy::type_complexity)] // the alias cannot name an unboxed dyn Fn
fn cell(
    algo: &str,
    mk_adv: &dyn Fn(
        &WriteAllTasks,
        Option<rfsp::core::XLayout>,
        Option<rfsp::core::HeapTree>,
    ) -> Box<dyn Adversary>,
) -> u64 {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, N);
    match algo {
        "X" => {
            let prog = AlgoX::new(&mut layout, tasks, P, XOptions::default());
            let mut adv = mk_adv(&tasks, Some(*prog.layout()), Some(prog.tree()));
            let mut m = Machine::new(&prog, P, CycleBudget::PAPER).expect("machine");
            let r = m.run(&mut adv).expect("run");
            assert!(tasks.all_written(m.memory()));
            r.stats.completed_work()
        }
        "V" => {
            let prog = AlgoV::new(&mut layout, tasks, P);
            let mut adv = mk_adv(&tasks, None, None);
            let mut m = Machine::new(&prog, P, CycleBudget::PAPER).expect("machine");
            let r = m.run(&mut adv).expect("run");
            assert!(tasks.all_written(m.memory()));
            r.stats.completed_work()
        }
        "W" => {
            let prog = AlgoW::new(&mut layout, tasks, P);
            let mut adv = mk_adv(&tasks, None, None);
            let mut m = Machine::new(&prog, P, CycleBudget::PAPER).expect("machine");
            let r = m.run(&mut adv).expect("run");
            assert!(tasks.all_written(m.memory()));
            r.stats.completed_work()
        }
        "V+X" => {
            let prog = Interleaved::new(&mut layout, tasks, P);
            let mut adv = mk_adv(&tasks, Some(*prog.x_half().layout()), Some(prog.x_half().tree()));
            let budget = prog.required_budget();
            let mut m = Machine::new(&prog, P, budget).expect("machine");
            let r = m.run(&mut adv).expect("run");
            assert!(tasks.all_written(m.memory()));
            r.stats.completed_work()
        }
        other => unreachable!("unknown algorithm {other}"),
    }
}

fn main() {
    let adversaries: Vec<(&str, AdversaryMaker)> = vec![
        ("none", Box::new(|_, _, _| Box::new(NoFailures))),
        ("thrashing (Ex 2.2)", Box::new(|_, _, _| Box::new(Thrashing::new()))),
        (
            "pigeonhole (Thm 3.1)",
            Box::new(|t: &WriteAllTasks, _, _| Box::new(Pigeonhole::new(t.x()))),
        ),
        ("random churn", Box::new(|_, _, _| Box::new(RandomFaults::new(0.05, 0.5, 99)))),
        (
            "x-killer (Thm 4.8)",
            Box::new(|t: &WriteAllTasks, xl, tree| match (xl, tree) {
                (Some(xl), Some(tree)) => Box::new(XKiller::new(t.x(), xl, tree)),
                // The X-killer needs X's layout; degrade to thrashing elsewhere.
                _ => Box::new(Thrashing::new()),
            }),
        ),
    ];

    println!("Completed work S, Write-All N = {N}, P = {P}");
    println!("(x-killer degrades to thrashing against non-X algorithms)\n");
    print!("{:<22}", "adversary \\ algorithm");
    for algo in ["X", "V", "W", "V+X"] {
        print!("{algo:>12}");
    }
    println!();
    for (name, mk) in &adversaries {
        print!("{name:<22}");
        for algo in ["X", "V", "W", "V+X"] {
            print!("{:>12}", cell(algo, mk.as_ref()));
        }
        println!();
    }
    println!(
        "\nReadings: thrashing barely moves S (Example 2.2's point); the \
         pigeonhole adversary forces ≥ c·N log N everywhere (Theorem 3.1); \
         the X-killer blows X up super-linearly (Theorem 4.8) while V+X \
         stays efficient (Theorem 4.9)."
    );
}
