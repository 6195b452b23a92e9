//! [`RunHost`] — the machine-shape abstraction the session layer runs on.
//!
//! A [`RunSession`](crate::RunSession) does not care whether it is driving
//! the word-model [`Machine`] or the §3 [`SnapshotMachine`]; it needs a
//! handful of capabilities — run with a pause hook, run armored (panic
//! isolation + a choice of tick engine), checkpoint, restore — expressed
//! here as object-safe-ish methods over `&mut dyn Adversary` (the
//! adversary blanket impls for `&mut A` make the concrete machines'
//! generic entry points accept that shape directly).

use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{
    Adversary, Checkpoint, Machine, Observer, PanicPolicy, PramError, Program, RunControl,
    RunLimits, RunReport, RunStatus, SharedMemory, SharedPool, SnapshotProgram,
};
use serde::{Deserialize, Serialize};

/// Which tick engine an armored run segment uses.
#[derive(Clone, Copy)]
pub enum ExecMode<'a> {
    /// The sequential engine (with panic catching).
    Sequential,
    /// A private per-run worker pool of this many threads (1 = sequential).
    Threads(usize),
    /// A caller-owned [`SharedPool`], time-shared between sessions; the
    /// driving thread holds the pool's turn for the whole segment.
    Pool(&'a SharedPool),
}

/// What the session layer needs from a machine.
pub trait RunHost {
    /// Plain sequential run with a pause hook (the engine the soak
    /// harness's reference lanes use).
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    fn host_run_controlled(
        &mut self,
        adversary: &mut dyn Adversary,
        limits: RunLimits,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError>;

    /// Plain sequential run to completion.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    fn host_run(
        &mut self,
        adversary: &mut dyn Adversary,
        limits: RunLimits,
        observer: &mut dyn Observer,
    ) -> Result<RunReport, PramError>;

    /// The armored run: panic isolation under `policy`, the tick engine
    /// `exec` names, and a pause hook at every tick boundary. Machines
    /// without a threaded engine (the snapshot model) run sequentially and
    /// ignore `exec`/`policy`.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    fn host_run_armored(
        &mut self,
        adversary: &mut dyn Adversary,
        limits: RunLimits,
        exec: ExecMode<'_>,
        policy: PanicPolicy,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError>;

    /// Snapshot machine + adversary state at a tick boundary.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    fn host_save_checkpoint(
        &self,
        adversary: &dyn SaveableAdversary,
    ) -> Result<Checkpoint, PramError>;

    /// Append the machine-state frame of a checkpoint of machine +
    /// adversary to `out` — the bytes
    /// `host_save_checkpoint(adversary)?.encode_state_into(out)` writes,
    /// without building the [`Checkpoint`] — and return its length.
    ///
    /// # Errors
    ///
    /// See [`PramError`]; nothing is appended then.
    fn host_encode_checkpoint(
        &self,
        adversary: &dyn SaveableAdversary,
        out: &mut Vec<u8>,
    ) -> Result<usize, PramError>;

    /// Rehydrate machine + adversary from a checkpoint.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    fn host_restore_checkpoint(
        &mut self,
        ck: &Checkpoint,
        adversary: &mut dyn Adversary,
    ) -> Result<(), PramError>;

    /// Current tick number.
    fn host_cycle(&self) -> u64;

    /// The shared memory (for postcondition checks).
    fn host_memory(&self) -> &SharedMemory;
}

/// The save-side adversary capability: [`Adversary::save_state`] through a
/// shared reference (saving must not disturb the adversary).
pub trait SaveableAdversary {
    /// See [`Adversary::save_state`].
    fn save(&self) -> Option<serde::Value>;
}

impl<A: Adversary + ?Sized> SaveableAdversary for A {
    fn save(&self) -> Option<serde::Value> {
        self.save_state()
    }
}

/// Adapter giving a `&dyn SaveableAdversary` the [`Adversary`] surface the
/// machines' generic `save_checkpoint` expects (only `save_state` is ever
/// consulted on the save path).
struct SaveView<'a>(&'a dyn SaveableAdversary);

impl Adversary for SaveView<'_> {
    fn decide(&mut self, _view: &rfsp_pram::MachineView<'_>) -> rfsp_pram::Decisions {
        unreachable!("save_checkpoint never consults decide")
    }

    fn save_state(&self) -> Option<serde::Value> {
        self.0.save()
    }

    fn restore_state(&mut self, _state: &serde::Value) -> Result<(), String> {
        unreachable!("save_checkpoint never restores")
    }
}

impl<'p, P> RunHost for Machine<'p, P>
where
    P: Program + Sync,
    P::Private: Send + Serialize + Deserialize,
{
    fn host_run_controlled(
        &mut self,
        mut adversary: &mut dyn Adversary,
        limits: RunLimits,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError> {
        self.run_controlled(&mut adversary, limits, observer, control)
    }

    fn host_run(
        &mut self,
        mut adversary: &mut dyn Adversary,
        limits: RunLimits,
        observer: &mut dyn Observer,
    ) -> Result<RunReport, PramError> {
        self.run_observed(&mut adversary, limits, observer)
    }

    fn host_run_armored(
        &mut self,
        mut adversary: &mut dyn Adversary,
        limits: RunLimits,
        exec: ExecMode<'_>,
        policy: PanicPolicy,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError> {
        match exec {
            ExecMode::Sequential => self.run_threaded_isolated_controlled(
                &mut adversary,
                limits,
                1,
                policy,
                observer,
                control,
            ),
            ExecMode::Threads(threads) => self.run_threaded_isolated_controlled(
                &mut adversary,
                limits,
                threads,
                policy,
                observer,
                control,
            ),
            ExecMode::Pool(pool) => self.run_pooled_isolated_controlled(
                &mut adversary,
                limits,
                pool,
                policy,
                observer,
                control,
            ),
        }
    }

    fn host_save_checkpoint(
        &self,
        adversary: &dyn SaveableAdversary,
    ) -> Result<Checkpoint, PramError> {
        self.save_checkpoint(&SaveView(adversary))
    }

    fn host_encode_checkpoint(
        &self,
        adversary: &dyn SaveableAdversary,
        out: &mut Vec<u8>,
    ) -> Result<usize, PramError> {
        self.encode_checkpoint_into(&SaveView(adversary), out)
    }

    fn host_restore_checkpoint(
        &mut self,
        ck: &Checkpoint,
        mut adversary: &mut dyn Adversary,
    ) -> Result<(), PramError> {
        self.restore_checkpoint(ck, &mut adversary)
    }

    fn host_cycle(&self) -> u64 {
        self.cycle()
    }

    fn host_memory(&self) -> &SharedMemory {
        self.memory()
    }
}

impl<'p, P> RunHost for SnapshotMachine<'p, P>
where
    P: SnapshotProgram,
    P::Private: Serialize + Deserialize,
{
    fn host_run_controlled(
        &mut self,
        mut adversary: &mut dyn Adversary,
        limits: RunLimits,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError> {
        self.run_controlled(&mut adversary, limits, observer, control)
    }

    fn host_run(
        &mut self,
        mut adversary: &mut dyn Adversary,
        limits: RunLimits,
        observer: &mut dyn Observer,
    ) -> Result<RunReport, PramError> {
        self.run_observed(&mut adversary, limits, observer)
    }

    fn host_run_armored(
        &mut self,
        adversary: &mut dyn Adversary,
        limits: RunLimits,
        _exec: ExecMode<'_>,
        _policy: PanicPolicy,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError> {
        // The snapshot engine is sequential-only; there is no pool to
        // isolate panics on, so the armored run is the plain run.
        self.host_run_controlled(adversary, limits, observer, control)
    }

    fn host_save_checkpoint(
        &self,
        adversary: &dyn SaveableAdversary,
    ) -> Result<Checkpoint, PramError> {
        self.save_checkpoint(&SaveView(adversary))
    }

    fn host_encode_checkpoint(
        &self,
        adversary: &dyn SaveableAdversary,
        out: &mut Vec<u8>,
    ) -> Result<usize, PramError> {
        self.encode_checkpoint_into(&SaveView(adversary), out)
    }

    fn host_restore_checkpoint(
        &mut self,
        ck: &Checkpoint,
        mut adversary: &mut dyn Adversary,
    ) -> Result<(), PramError> {
        self.restore_checkpoint(ck, &mut adversary)
    }

    fn host_cycle(&self) -> u64 {
        self.cycle()
    }

    fn host_memory(&self) -> &SharedMemory {
        self.memory()
    }
}
