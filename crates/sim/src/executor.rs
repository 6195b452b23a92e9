//! The fault-tolerant simulation driver (Theorem 4.1).
//!
//! Wires a [`SimProgram`] through [`SimTasks`] into one of the Write-All
//! engines of `rfsp-core` and runs it on the restartable fail-stop machine
//! under an arbitrary adversary. The choice of engine maps onto the
//! paper's results:
//!
//! * [`Engine::X`] — terminates under **any** failure/restart pattern with
//!   sub-quadratic work (`O(N·P^{0.59})` per step);
//! * [`Engine::V`] — `O(N + P log²N + M log N)` per step, the efficient
//!   half;
//! * [`Engine::Interleaved`] — both at once: the Theorem 4.1/4.9 strategy,
//!   `S = O(min{N + P log²N + M log N, N·P^{0.59}})` per simulated step
//!   and overhead ratio `O(log² N)`.

use rfsp_core::{AlgoV, AlgoX, Interleaved, XOptions};
use rfsp_pram::{
    Adversary, LayoutBuilder, Machine, NoopObserver, Observer, PramError, Program, RunLimits,
    RunReport, RunSpec, Word, WriteMode,
};

use crate::program::SimProgram;
use crate::tasks::SimTasks;

/// Which Write-All engine drives the simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// Algorithm X: guaranteed termination under any adversary.
    X,
    /// Algorithm V: efficient when failures are bounded.
    V,
    /// Interleaved V+X (the paper's Theorem 4.1 configuration).
    #[default]
    Interleaved,
}

/// Result of a fault-tolerant simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// The machine-level run report (completed work, pattern, …).
    pub run: RunReport,
    /// Final simulated shared memory.
    pub memory: Vec<Word>,
    /// Number of simulated processors `N`.
    pub sim_processors: usize,
    /// Number of simulated steps `τ`.
    pub sim_steps: usize,
}

impl SimReport {
    /// The work-optimality ratio of Corollary 4.12: completed work divided
    /// by the simulated `Parallel-time × Processors` product `τ·N`.
    pub fn work_ratio(&self) -> f64 {
        self.run.stats.completed_work() as f64
            / (self.sim_steps as f64 * self.sim_processors as f64).max(1.0)
    }
}

/// Run `prog` on `p` restartable fail-stop processors under `adversary`.
///
/// The simulated machine's COMMON CRCW semantics are enforced end-to-end:
/// concurrent simulated writes become concurrent machine writes in the
/// commit rounds. Use [`simulate_with_mode`] for ARBITRARY simulated
/// programs (simulated on a machine of the same type, per Theorem 4.1's
/// statement).
///
/// # Errors
///
/// Any [`PramError`] from the underlying machine; notably
/// [`PramError::CycleLimit`] if `limits` are exhausted.
pub fn simulate<P, A>(
    prog: P,
    p: usize,
    engine: Engine,
    adversary: &mut A,
    limits: RunLimits,
) -> Result<SimReport, PramError>
where
    P: SimProgram + Sync + Clone,
    A: Adversary,
{
    simulate_with_mode(prog, p, engine, adversary, limits, WriteMode::Common)
}

/// [`simulate`] streaming every machine event of the simulating run to
/// `observer` (see `rfsp_pram::trace`).
///
/// # Errors
///
/// Any [`PramError`] from the underlying machine.
pub fn simulate_observed<P, A>(
    prog: P,
    p: usize,
    engine: Engine,
    adversary: &mut A,
    limits: RunLimits,
    observer: &mut dyn Observer,
) -> Result<SimReport, PramError>
where
    P: SimProgram + Sync + Clone,
    A: Adversary,
{
    simulate_with_mode_observed(prog, p, engine, adversary, limits, WriteMode::Common, observer)
}

/// [`simulate`] with explicit machine write semantics.
///
/// # Errors
///
/// Any [`PramError`] from the underlying machine.
pub fn simulate_with_mode<P, A>(
    prog: P,
    p: usize,
    engine: Engine,
    adversary: &mut A,
    limits: RunLimits,
    mode: WriteMode,
) -> Result<SimReport, PramError>
where
    P: SimProgram + Sync + Clone,
    A: Adversary,
{
    simulate_with_mode_observed(prog, p, engine, adversary, limits, mode, &mut NoopObserver)
}

/// [`simulate_with_mode`] with an event stream.
///
/// # Errors
///
/// Any [`PramError`] from the underlying machine.
pub fn simulate_with_mode_observed<P, A>(
    prog: P,
    p: usize,
    engine: Engine,
    adversary: &mut A,
    limits: RunLimits,
    mode: WriteMode,
    observer: &mut dyn Observer,
) -> Result<SimReport, PramError>
where
    P: SimProgram + Sync + Clone,
    A: Adversary,
{
    if mode == WriteMode::Priority {
        // Remark 4 of the paper: PRIORITY CRCW PRAMs cannot be directly
        // simulated with this framework — algorithm X lacks the processor
        // allocation monotonicity that would map higher-numbered simulating
        // processors onto higher-numbered simulated ones.
        return Err(PramError::InvalidConfig {
            detail: "PRIORITY CRCW programs cannot be directly simulated (paper Remark 4)".into(),
        });
    }
    let sim_processors = prog.processors();
    let sim_steps = prog.steps();
    let mut layout = LayoutBuilder::new();
    let tasks = SimTasks::new(&mut layout, prog);

    // A small shim is needed because each engine is a different Program
    // type; macro-free dispatch via three arms.
    let spec = RunSpec { limits, observer: Some(observer), ..RunSpec::default() };
    match engine {
        Engine::X => {
            let algo = XSim { inner: AlgoX::new(&mut layout, tasks, p, XOptions::default()) };
            let budget = algo.inner.required_budget();
            let mut machine = Machine::new(&algo, p, budget)?;
            machine.set_write_mode(mode);
            let status = machine.run_with(adversary, spec)?;
            let run = status.completed().expect("a run without a control hook completes");
            let memory = algo.inner.tasks().extract_memory(machine.memory());
            Ok(SimReport { run, memory, sim_processors, sim_steps })
        }
        Engine::V => {
            let algo = VSim { inner: AlgoV::new(&mut layout, tasks, p) };
            let budget = algo.inner.required_budget();
            let mut machine = Machine::new(&algo, p, budget)?;
            machine.set_write_mode(mode);
            let status = machine.run_with(adversary, spec)?;
            let run = status.completed().expect("a run without a control hook completes");
            let memory = algo.inner.tasks().extract_memory(machine.memory());
            Ok(SimReport { run, memory, sim_processors, sim_steps })
        }
        Engine::Interleaved => {
            let algo = ISim { inner: Interleaved::new(&mut layout, tasks, p) };
            let budget = algo.inner.required_budget();
            let mut machine = Machine::new(&algo, p, budget)?;
            machine.set_write_mode(mode);
            let status = machine.run_with(adversary, spec)?;
            let run = status.completed().expect("a run without a control hook completes");
            let memory = algo.inner.x_half().tasks().extract_memory(machine.memory());
            Ok(SimReport { run, memory, sim_processors, sim_steps })
        }
    }
}

// The engines' `init_memory` initializes their own bookkeeping; the shims
// additionally initialize the simulated input.
macro_rules! sim_shim {
    ($name:ident, $inner:ty) => {
        struct $name<P: SimProgram + Sync + Clone> {
            inner: $inner,
        }

        impl<P: SimProgram + Sync + Clone> Program for $name<P> {
            type Private = <$inner as Program>::Private;

            fn shared_size(&self) -> usize {
                self.inner.shared_size()
            }

            fn init_memory(&self, mem: &mut rfsp_pram::SharedMemory) {
                self.inner.init_memory(mem);
                self.tasks().init_memory(mem);
            }

            fn on_start(&self, pid: rfsp_pram::Pid) -> Self::Private {
                self.inner.on_start(pid)
            }

            fn plan(
                &self,
                pid: rfsp_pram::Pid,
                state: &Self::Private,
                values: &[Word],
                reads: &mut rfsp_pram::ReadSet,
            ) {
                self.inner.plan(pid, state, values, reads)
            }

            fn execute(
                &self,
                pid: rfsp_pram::Pid,
                state: &mut Self::Private,
                values: &[Word],
                writes: &mut rfsp_pram::WriteSet,
            ) -> rfsp_pram::Step {
                self.inner.execute(pid, state, values, writes)
            }

            fn is_complete(&self, mem: &rfsp_pram::SharedMemory) -> bool {
                self.inner.is_complete(mem)
            }

            fn completion_hint(&self, addr: usize, value: Word) -> rfsp_pram::CompletionHint {
                self.inner.completion_hint(addr, value)
            }
        }
    };
}

sim_shim!(XSim, AlgoX<SimTasks<P>>);
sim_shim!(VSim, AlgoV<SimTasks<P>>);
sim_shim!(ISim, Interleaved<SimTasks<P>>);

impl<P: SimProgram + Sync + Clone> XSim<P> {
    fn tasks(&self) -> &SimTasks<P> {
        self.inner.tasks()
    }
}
impl<P: SimProgram + Sync + Clone> VSim<P> {
    fn tasks(&self) -> &SimTasks<P> {
        self.inner.tasks()
    }
}
impl<P: SimProgram + Sync + Clone> ISim<P> {
    fn tasks(&self) -> &SimTasks<P> {
        self.inner.x_half().tasks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{reference_run, Regs, SimWrite};
    use rfsp_pram::NoFailures;

    /// Doubling counter: each processor increments its own cell twice.
    #[derive(Clone)]
    struct Inc {
        n: usize,
    }
    impl SimProgram for Inc {
        fn processors(&self) -> usize {
            self.n
        }
        fn memory_size(&self) -> usize {
            self.n
        }
        fn steps(&self) -> usize {
            2
        }
        fn init_memory(&self, _mem: &mut [Word]) {}
        fn read_addr(&self, pid: usize, _t: usize, _r: &Regs) -> usize {
            pid
        }
        fn step(&self, pid: usize, _t: usize, _r: &Regs, v: u32) -> (Regs, SimWrite) {
            (Regs::default(), SimWrite::Write { addr: pid, value: v + 1 })
        }
    }

    #[test]
    fn all_engines_match_the_reference() {
        let prog = Inc { n: 8 };
        let expected = reference_run(&prog);
        for engine in [Engine::X, Engine::V, Engine::Interleaved] {
            let report =
                simulate(prog.clone(), 4, engine, &mut NoFailures, RunLimits::default()).unwrap();
            assert_eq!(report.memory, expected, "engine {engine:?}");
        }
    }

    #[test]
    fn priority_simulation_is_rejected_per_remark_4() {
        let prog = Inc { n: 4 };
        let err = simulate_with_mode(
            prog,
            2,
            Engine::X,
            &mut NoFailures,
            RunLimits::default(),
            WriteMode::Priority,
        )
        .unwrap_err();
        assert!(matches!(err, rfsp_pram::PramError::InvalidConfig { .. }));
        assert!(err.to_string().contains("Remark 4"));
    }

    #[test]
    fn arbitrary_simulation_is_allowed() {
        let prog = Inc { n: 4 };
        let report = simulate_with_mode(
            prog.clone(),
            2,
            Engine::X,
            &mut NoFailures,
            RunLimits::default(),
            WriteMode::Arbitrary,
        )
        .unwrap();
        assert_eq!(report.memory, reference_run(&prog));
    }

    #[test]
    fn work_ratio_is_reported() {
        let prog = Inc { n: 8 };
        let report = simulate(prog, 2, Engine::X, &mut NoFailures, RunLimits::default()).unwrap();
        assert!(report.work_ratio() > 0.0);
        assert_eq!(report.sim_processors, 8);
        assert_eq!(report.sim_steps, 2);
    }
}
