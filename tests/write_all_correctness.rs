//! Property tests: every Write-All algorithm is correct under arbitrary
//! random failure/restart patterns, and the accounting invariants of §2
//! hold on every run.

use proptest::prelude::*;
use rfsp::adversary::RandomFaults;
use rfsp::core::{AlgoV, AlgoW, AlgoX, AlgoXInPlace, Interleaved, WriteAllTasks, XOptions};
use rfsp::pram::{CycleBudget, LayoutBuilder, Machine, RunLimits, RunReport, RunSpec};

#[derive(Clone, Copy, Debug)]
enum Which {
    X,
    XCounting,
    XInPlace,
    V,
    W,
    Combined,
}

fn run(which: Which, n: usize, p: usize, p_fail: f64, p_restart: f64, seed: u64) -> RunReport {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let mut adv = RandomFaults::new(p_fail, p_restart, seed);
    let limits = RunLimits { max_cycles: 5_000_000 };
    let spec = || RunSpec { limits, ..RunSpec::default() };
    let report = match which {
        Which::X => {
            let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
            let mut m = Machine::new(&prog, p, CycleBudget::PAPER).expect("machine");
            let r = m.run_with(&mut adv, spec()).expect("X must terminate").completed().unwrap();
            assert!(tasks.all_written(m.memory()), "X left unwritten cells");
            r
        }
        Which::XCounting => {
            let prog = AlgoX::new(
                &mut layout,
                tasks,
                p,
                XOptions { counting: true, spread_initial: true },
            );
            let mut m = Machine::new(&prog, p, CycleBudget::PAPER).expect("machine");
            let r = m
                .run_with(&mut adv, spec())
                .expect("X-counting must terminate")
                .completed()
                .unwrap();
            assert!(tasks.all_written(m.memory()), "X-counting left unwritten cells");
            r
        }
        Which::XInPlace => {
            let prog = AlgoXInPlace::new(&mut layout, tasks, p);
            let mut m = Machine::new(&prog, p, CycleBudget::PAPER).expect("machine");
            let r = m
                .run_with(&mut adv, spec())
                .expect("in-place X must terminate")
                .completed()
                .unwrap();
            assert!(tasks.all_written(m.memory()), "in-place X left unwritten cells");
            r
        }
        Which::V => {
            let prog = AlgoV::new(&mut layout, tasks, p);
            let mut m = Machine::new(&prog, p, CycleBudget::PAPER).expect("machine");
            let r = m.run_with(&mut adv, spec()).expect("V must terminate").completed().unwrap();
            assert!(tasks.all_written(m.memory()), "V left unwritten cells");
            r
        }
        Which::W => {
            let prog = AlgoW::new(&mut layout, tasks, p);
            let mut m = Machine::new(&prog, p, CycleBudget::PAPER).expect("machine");
            let r = m.run_with(&mut adv, spec()).expect("W must terminate").completed().unwrap();
            assert!(tasks.all_written(m.memory()), "W left unwritten cells");
            r
        }
        Which::Combined => {
            let prog = Interleaved::new(&mut layout, tasks, p);
            let budget = prog.required_budget();
            let mut m = Machine::new(&prog, p, budget).expect("machine");
            let r = m.run_with(&mut adv, spec()).expect("V+X must terminate").completed().unwrap();
            assert!(tasks.all_written(m.memory()), "V+X left unwritten cells");
            r
        }
    };
    report
}

fn accounting_invariants(report: &RunReport, p: usize) {
    let s = report.stats.completed_work();
    let s_prime = report.stats.s_prime();
    // Remark 2: S <= S' <= S + |F|.
    assert!(s <= s_prime);
    assert!(
        s_prime <= s + report.stats.pattern_size(),
        "S'={} S={} |F|={}",
        s_prime,
        s,
        report.stats.pattern_size()
    );
    // At most P completions per tick.
    assert!(s <= report.stats.parallel_time * p as u64);
    // The recorded pattern matches the counters.
    assert_eq!(report.pattern.size() as u64, report.stats.pattern_size());
    assert_eq!(report.pattern.failure_count() as u64, report.stats.failures);
    assert_eq!(report.pattern.restart_count() as u64, report.stats.restarts);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn algorithm_x_is_correct_under_any_churn(
        n in 1usize..200,
        p in 1usize..64,
        p_fail in 0.0f64..0.4,
        p_restart in 0.1f64..1.0,
        seed in any::<u64>(),
    ) {
        let report = run(Which::X, n, p, p_fail, p_restart, seed);
        accounting_invariants(&report, p);
    }

    #[test]
    fn x_variants_are_correct_under_any_churn(
        n_log in 2usize..9,
        p in 1usize..48,
        p_fail in 0.0f64..0.4,
        p_restart in 0.1f64..1.0,
        seed in any::<u64>(),
    ) {
        // In-place X needs a power-of-two array ≥ 4.
        let n = 1usize << n_log;
        let report = run(Which::XCounting, n, p, p_fail, p_restart, seed);
        accounting_invariants(&report, p);
        let report = run(Which::XInPlace, n, p, p_fail, p_restart, seed);
        accounting_invariants(&report, p);
    }

    #[test]
    fn algorithm_v_is_correct_under_any_churn(
        n in 1usize..200,
        p in 1usize..64,
        p_fail in 0.0f64..0.3,
        p_restart in 0.3f64..1.0,
        seed in any::<u64>(),
    ) {
        let report = run(Which::V, n, p, p_fail, p_restart, seed);
        accounting_invariants(&report, p);
    }

    #[test]
    fn algorithm_w_is_correct_under_any_churn(
        n in 1usize..150,
        p in 1usize..48,
        p_fail in 0.0f64..0.2,
        p_restart in 0.3f64..1.0,
        seed in any::<u64>(),
    ) {
        let report = run(Which::W, n, p, p_fail, p_restart, seed);
        accounting_invariants(&report, p);
    }

    #[test]
    fn interleaved_is_correct_under_any_churn(
        n in 1usize..150,
        p in 1usize..48,
        p_fail in 0.0f64..0.4,
        p_restart in 0.1f64..1.0,
        seed in any::<u64>(),
    ) {
        let report = run(Which::Combined, n, p, p_fail, p_restart, seed);
        accounting_invariants(&report, p);
    }

    /// Work never shrinks when the adversary interferes more (sanity of
    /// the S measure): a failure-free run is a lower bound for X up to the
    /// nondeterminism-free structure of the algorithm.
    #[test]
    fn x_failure_free_work_is_reproducible(n in 1usize..256, p in 1usize..64) {
        let a = run(Which::X, n, p, 0.0, 1.0, 1);
        let b = run(Which::X, n, p, 0.0, 1.0, 2);
        prop_assert_eq!(a.stats.completed_work(), b.stats.completed_work());
        prop_assert_eq!(a.stats.parallel_time, b.stats.parallel_time);
    }
}
