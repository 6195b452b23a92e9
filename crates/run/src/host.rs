//! [`RunHost`] — the machine-shape abstraction the session layer runs on.
//!
//! A [`RunSession`](crate::RunSession) does not care whether it is driving
//! the word-model [`Machine`] or the §3 [`SnapshotMachine`]; it needs a
//! handful of capabilities — run a segment, checkpoint, restore —
//! expressed here as object-safe-ish methods over `&mut dyn Adversary`
//! (the adversary blanket impls for `&mut A` make the concrete machines'
//! generic entry points accept that shape directly).

use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{
    Adversary, Checkpoint, ExecMode, Machine, Observer, PanicPolicy, PramError, Program,
    RunControl, RunLimits, RunSpec, RunStatus, SharedMemory, SnapshotProgram,
};
use serde::{Deserialize, Serialize};

/// What the session layer needs from a machine.
pub trait RunHost {
    /// Run one segment with panic isolation under `policy`, the tick
    /// engine `exec` names, and a pause hook at every tick boundary — the
    /// machine's `run_with` with every [`RunSpec`] field set. Machines
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

/// The [`RunSpec`] of [`RunHost::host_run_armored`].
fn armored<'a>(
    limits: RunLimits,
    exec: ExecMode<'a>,
    policy: PanicPolicy,
    observer: &'a mut dyn Observer,
    control: &'a mut dyn FnMut(u64) -> RunControl,
) -> RunSpec<'a> {
    RunSpec {
        limits,
        exec,
        isolation: Some(policy),
        observer: Some(observer),
        control: Some(control),
    }
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
    fn host_run_armored(
        &mut self,
        mut adversary: &mut dyn Adversary,
        limits: RunLimits,
        exec: ExecMode<'_>,
        policy: PanicPolicy,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError> {
        self.run_with(&mut adversary, armored(limits, exec, policy, observer, control))
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
    fn host_run_armored(
        &mut self,
        mut adversary: &mut dyn Adversary,
        limits: RunLimits,
        exec: ExecMode<'_>,
        policy: PanicPolicy,
        observer: &mut dyn Observer,
        control: &mut dyn FnMut(u64) -> RunControl,
    ) -> Result<RunStatus, PramError> {
        self.run_with(&mut adversary, armored(limits, exec, policy, observer, control))
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
