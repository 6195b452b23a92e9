//! Versioned machine checkpoints for crash-safe long runs.
//!
//! A [`Checkpoint`] captures everything a paused [`Machine`](crate::Machine)
//! needs to resume bit-for-bit: shared memory (cells plus instrumentation
//! counters), every processor's status and private state, the accumulated
//! [`WorkStats`], the failure pattern recorded so far, and the adversary's
//! own state (via [`Adversary::save_state`](crate::Adversary::save_state)).
//! Checkpoints are taken only at **tick boundaries** — between the commit
//! phase of one tick and the tentative phase of the next — where the
//! machine has no transient state, so a restored run replays the exact
//! event stream the uninterrupted run would have produced (see
//! `crates/pram/tests/checkpoint.rs` for the property test).
//!
//! # Encoding
//!
//! [`Checkpoint::encode_into`] writes one binary frame straight from the
//! struct, and
//! [`Machine::encode_checkpoint_into`](crate::Machine::encode_checkpoint_into)
//! writes the same bytes straight
//! from the running machine, without building a `Checkpoint` first. Both
//! go through one frame writer; only the small header goes through JSON:
//!
//! ```text
//! "RFCK"                          magic tag (4 bytes)
//! uleb  version                   CHECKPOINT_VERSION (5)
//! json  header                    model, cycle, mode, budget, layout,
//!                                 stats, procs (+ private states), adversary
//! uleb n, n × uleb                memory cells, address order
//! uleb b, b × uleb                per-bank read counters
//! uleb b, b × uleb                per-bank write counters
//! uleb e, e × record              failure pattern: uleb pid, uleb Δtime,
//!                                 uleb fate (0 restart, 1 before-reads,
//!                                 2 before-writes, 3 after-write + uleb k)
//! json  policy                    policy-engine state (trails the frame)
//! ```
//!
//! `uleb` is an unsigned LEB128 varint and `json` a uleb byte length
//! followed by compact JSON (see [`wire`]). Cells are varints because a
//! Write-All memory is mostly zeros and ones: one byte per cell, where a
//! fixed eight-byte word would outweigh even the old JSON rendering.
//! [`Checkpoint::decode`] refuses JSON checkpoints (v4 and older), other
//! versions, and truncated or garbled frames with
//! [`PramError::Checkpoint`]; restore then
//! rejects mismatched machine shapes, budgets and write modes instead of
//! resuming nondeterministically.

use serde::{Deserialize, Serialize, Value};

use crate::accounting::WorkStats;
use crate::adversary::{FailPoint, ProcStatus};
use crate::error::PramError;
use crate::failure::{FailureEvent, FailureKind, FailurePattern};
use crate::memory::MemoryLayout;
use crate::mode::WriteMode;
use crate::word::Word;

/// Format version written into every checkpoint. Bump on any breaking
/// layout change; restore refuses other versions.
///
/// Version history: v1 — word machine only; v2 — adds the
/// [`model`](Checkpoint::model) tag so checkpoints from the word and snapshot
/// machines cannot be restored into each other; v3 — records the
/// [`MemoryLayout`] and replaces the two global read/write counters with
/// per-bank counter vectors (restore refuses cross-layout resumes); v4 —
/// adds the `policy` field carrying the checkpoint/restart
/// [`PolicyEngine`](crate::policy::PolicyEngine) state, so a resumed run
/// continues the same policy trajectory (and a cross-policy resume is
/// refused by the engine's own restore); v5 — replaces the pretty-printed
/// JSON document with the binary frame described in the module docs.
pub const CHECKPOINT_VERSION: u32 = 5;

/// One processor's checkpointed state.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ProcCheckpoint {
    /// Liveness at the checkpointed tick boundary.
    pub status: ProcStatus,
    /// Completed update cycles charged to this processor.
    pub completed: u64,
    /// Serialized private state. Meaningful only while the processor is
    /// alive or halted; a failed processor has no private memory (by the
    /// model) and stores [`Value::Null`] here. A plain [`Value`] rather
    /// than an `Option` because JSON cannot distinguish `Some(Null)` — a
    /// unit private state — from `None`.
    pub state: Value,
}

/// A complete, versioned snapshot of a paused machine plus its adversary.
///
/// Produced by [`Machine::save_checkpoint`](crate::Machine::save_checkpoint)
/// and consumed by
/// [`Machine::restore_checkpoint`](crate::Machine::restore_checkpoint).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Name of the [`ExecutionModel`](crate::ExecutionModel) the checkpoint
    /// was taken under (`"word"` or `"snapshot"`); restore refuses a
    /// checkpoint from a different model.
    pub model: String,
    /// The tick at which the machine paused (the next tick to execute).
    pub cycle: u64,
    /// Concurrent-write semantics the run was using.
    pub mode: WriteMode,
    /// Read half of the cycle budget.
    pub budget_reads: usize,
    /// Write half of the cycle budget.
    pub budget_writes: usize,
    /// Physical memory layout of the run. Restore refuses a checkpoint
    /// taken under a different layout: the per-bank counters below are
    /// meaningless under any other bank mapping.
    pub layout: MemoryLayout,
    /// Shared-memory cells — always the merged, address-ordered image,
    /// whatever the physical layout.
    pub mem: Vec<Word>,
    /// Charged read count per bank at the pause point (one entry for the
    /// flat layout).
    pub bank_reads: Vec<u64>,
    /// Charged (committed) write count per bank at the pause point.
    pub bank_writes: Vec<u64>,
    /// Accumulated work statistics.
    pub stats: WorkStats,
    /// Per-processor status and private state, indexed by PID.
    pub procs: Vec<ProcCheckpoint>,
    /// The failure pattern recorded so far.
    pub pattern: FailurePattern,
    /// The adversary's state, from
    /// [`Adversary::save_state`](crate::Adversary::save_state).
    pub adversary: Value,
    /// Checkpoint/restart policy state, from
    /// [`PolicyEngine::save_state`](crate::policy::PolicyEngine::save_state).
    /// [`Value::Null`] for runs driven without a policy engine. Opaque to
    /// the core's restore path — the machine resumes identically whatever
    /// policy chose the checkpoint's tick — but a policy-driven runner
    /// must hand it back to its engine, whose restore refuses state from
    /// a different policy.
    pub policy: Value,
}

/// Magic tag opening every machine checkpoint frame.
const MAGIC: &[u8; 4] = b"RFCK";

/// Fate codes of the failure-pattern section: one per record, after the
/// record's PID and time delta. [`FATE_AFTER_WRITE`] is followed by the
/// write count `k` as its own LEB128 varint.
const FATE_RESTART: u64 = 0;
const FATE_BEFORE_READS: u64 = 1;
const FATE_BEFORE_WRITES: u64 = 2;
const FATE_AFTER_WRITE: u64 = 3;

impl Checkpoint {
    /// Append the v5 binary encoding of this checkpoint to `out`: the
    /// machine state ([`Checkpoint::encode_state_into`]) followed by the
    /// policy payload ([`Checkpoint::encode_policy_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_state_into(out);
        Self::encode_policy_into(&self.policy, out);
    }

    /// Append everything but the trailing policy payload — magic, version,
    /// header and the cell, counter and pattern sections — and return the
    /// number of bytes appended.
    ///
    /// That length is the deterministic checkpoint size a
    /// [`PolicyEngine`](crate::policy::PolicyEngine) is fed: it depends on
    /// machine state alone, so a resumed run and an uninterrupted one see
    /// the same costs, and the policy state it steers can be appended
    /// afterwards without encoding the machine a second time.
    pub fn encode_state_into(&self, out: &mut Vec<u8>) -> usize {
        put_state_frame(
            out,
            self.header(),
            (self.mem.len(), std::iter::once(&self.mem[..])),
            self.bank_reads.iter().copied(),
            self.bank_writes.iter().copied(),
            self.pattern.events(),
        )
    }

    /// Append the trailing policy payload (`policy` as length-prefixed
    /// compact JSON) that completes a frame begun by
    /// [`Checkpoint::encode_state_into`].
    pub fn encode_policy_into(policy: &Value, out: &mut Vec<u8>) {
        wire::put_json(out, policy);
    }

    /// Decode a checkpoint written by [`Checkpoint::encode_into`]. The
    /// frame must be consumed exactly: trailing bytes are an error.
    ///
    /// This only checks that the bytes decode into the checkpoint shape;
    /// [`Machine::restore_checkpoint`](crate::Machine::restore_checkpoint)
    /// performs the semantic validation (machine shape, pattern legality).
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] on a JSON (v4 or older) checkpoint, a
    /// wrong magic tag or version, and any truncated or malformed frame.
    /// Decoding never panics and never allocates more than the input's
    /// length can justify.
    pub fn decode(bytes: &[u8]) -> Result<Self, PramError> {
        if bytes.first() == Some(&b'{') {
            return Err(wire::fail(format!(
                "this is a JSON checkpoint (format v4 or older); this build reads only the \
                 binary format v{CHECKPOINT_VERSION} and cannot resume it — re-run from the start"
            )));
        }
        let Some(body) = bytes.strip_prefix(MAGIC) else {
            return Err(wire::fail("not a machine checkpoint (bad magic tag)".into()));
        };
        let mut c = wire::Cursor::new(body);
        let version = c.uleb()?;
        if version != u64::from(CHECKPOINT_VERSION) {
            return Err(wire::fail(format!(
                "checkpoint format v{version}; this build reads only v{CHECKPOINT_VERSION}"
            )));
        }
        let header = c.json()?;
        let mem = c.uleb_vec()?;
        let bank_reads = c.uleb_vec()?;
        let bank_writes = c.uleb_vec()?;
        let count = c.uleb_usize()?;
        let mut events = Vec::with_capacity(count.min(c.remaining()));
        let mut time = 0u64;
        for _ in 0..count {
            let pid = c.uleb_usize()?;
            time = time.wrapping_add(c.uleb()?);
            let kind = match c.uleb()? {
                FATE_RESTART => FailureKind::Restart,
                FATE_BEFORE_READS => FailureKind::Failure { point: FailPoint::BeforeReads },
                FATE_BEFORE_WRITES => FailureKind::Failure { point: FailPoint::BeforeWrites },
                FATE_AFTER_WRITE => {
                    FailureKind::Failure { point: FailPoint::AfterWrite(c.uleb_usize()?) }
                }
                code => {
                    return Err(wire::fail(format!("unknown failure-pattern fate code {code}")))
                }
            };
            events.push(FailureEvent { kind, pid, time });
        }
        let policy = c.json()?;
        c.finish()?;
        Ok(Checkpoint {
            version: CHECKPOINT_VERSION,
            model: field(&header, "model")?,
            cycle: field(&header, "cycle")?,
            mode: field(&header, "mode")?,
            budget_reads: field(&header, "budget_reads")?,
            budget_writes: field(&header, "budget_writes")?,
            layout: field(&header, "layout")?,
            mem,
            bank_reads,
            bank_writes,
            stats: field(&header, "stats")?,
            procs: field(&header, "procs")?,
            pattern: FailurePattern::from_events_unchecked(events),
            adversary: field(&header, "adversary")?,
            policy,
        })
    }

    /// The frame's header: every field except the bulk sections and the
    /// policy payload.
    fn header(&self) -> FrameHeader<'_> {
        FrameHeader {
            version: self.version,
            model: &self.model,
            cycle: self.cycle,
            mode: self.mode,
            budget: (self.budget_reads, self.budget_writes),
            layout: self.layout,
            stats: &self.stats,
            procs: self.procs.to_value(),
            adversary: self.adversary.clone(),
        }
    }
}

/// The header fields of a machine-state frame, borrowed from wherever the
/// state lives: a [`Checkpoint`], or the running core itself.
pub(crate) struct FrameHeader<'a> {
    /// Written as the varint after the magic tag, outside the JSON.
    pub(crate) version: u32,
    pub(crate) model: &'a str,
    pub(crate) cycle: u64,
    pub(crate) mode: WriteMode,
    /// `(reads, writes)` halves of the cycle budget.
    pub(crate) budget: (usize, usize),
    pub(crate) layout: MemoryLayout,
    pub(crate) stats: &'a WorkStats,
    /// The serialized `Vec<ProcCheckpoint>`.
    pub(crate) procs: Value,
    pub(crate) adversary: Value,
}

impl FrameHeader<'_> {
    /// The frame's JSON section; [`Checkpoint::decode`] reads the fields
    /// back by name.
    fn into_json(self) -> Value {
        Value::Map(vec![
            ("model".into(), self.model.to_value()),
            ("cycle".into(), self.cycle.to_value()),
            ("mode".into(), self.mode.to_value()),
            ("budget_reads".into(), self.budget.0.to_value()),
            ("budget_writes".into(), self.budget.1.to_value()),
            ("layout".into(), self.layout.to_value()),
            ("stats".into(), self.stats.to_value()),
            ("procs".into(), self.procs),
            ("adversary".into(), self.adversary),
        ])
    }
}

/// Append a v5 machine-state frame — magic, version, `header`, then the
/// cell, per-bank counter and failure-pattern sections — and return its
/// length. The one writer of the layout in the module docs: a
/// [`Checkpoint`] encodes through it, and so does the core straight from
/// live machine state, without copying memory or pattern first.
///
/// `cells` is the cell count and the cells themselves, in address order,
/// as any run of contiguous chunks.
pub(crate) fn put_state_frame<'c>(
    out: &mut Vec<u8>,
    header: FrameHeader<'_>,
    cells: (usize, impl Iterator<Item = &'c [Word]>),
    bank_reads: impl ExactSizeIterator<Item = u64>,
    bank_writes: impl ExactSizeIterator<Item = u64>,
    pattern: &[FailureEvent],
) -> usize {
    let start = out.len();
    out.extend_from_slice(MAGIC);
    wire::put_uleb(out, u64::from(header.version));
    wire::put_json(out, &header.into_json());
    let (count, chunks) = cells;
    // At least one byte per cell.
    out.reserve(count);
    wire::put_uleb(out, count as u64);
    for chunk in chunks {
        for &x in chunk {
            wire::put_uleb(out, x);
        }
    }
    put_counters(out, bank_reads);
    put_counters(out, bank_writes);
    wire::put_uleb(out, pattern.len() as u64);
    let mut prev = 0u64;
    for e in pattern {
        wire::put_uleb(out, e.pid as u64);
        // Wrapping, so even an out-of-order pattern round-trips exactly;
        // restore's pattern validation refuses it later.
        wire::put_uleb(out, e.time.wrapping_sub(prev));
        prev = e.time;
        match e.kind {
            FailureKind::Restart => wire::put_uleb(out, FATE_RESTART),
            FailureKind::Failure { point: FailPoint::BeforeReads } => {
                wire::put_uleb(out, FATE_BEFORE_READS);
            }
            FailureKind::Failure { point: FailPoint::BeforeWrites } => {
                wire::put_uleb(out, FATE_BEFORE_WRITES);
            }
            FailureKind::Failure { point: FailPoint::AfterWrite(k) } => {
                wire::put_uleb(out, FATE_AFTER_WRITE);
                wire::put_uleb(out, k as u64);
            }
        }
    }
    out.len() - start
}

/// Append a count-prefixed run of varints.
fn put_counters(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u64>) {
    wire::put_uleb(out, values.len() as u64);
    for x in values {
        wire::put_uleb(out, x);
    }
}

/// Decode header field `name`.
fn field<T: Deserialize>(header: &Value, name: &str) -> Result<T, PramError> {
    let v =
        header.get(name).ok_or_else(|| wire::fail(format!("checkpoint header lacks `{name}`")))?;
    T::from_value(v).map_err(|e| wire::fail(format!("checkpoint header field `{name}`: {e}")))
}

/// Primitives of the checkpoint frames: unsigned LEB128 varints,
/// length-prefixed compact JSON, and a bounds-checked
/// [`Cursor`](wire::Cursor) to read them back. The session layer frames
/// its own checkpoint with the same primitives.
pub mod wire {
    use serde::{json, Value};

    use crate::error::PramError;

    /// A [`PramError::Checkpoint`] carrying `detail`.
    pub fn fail(detail: String) -> PramError {
        PramError::Checkpoint { detail }
    }

    /// Append `v` as an unsigned LEB128 varint: seven bits per byte, low
    /// group first, high bit set on every byte but the last.
    pub fn put_uleb(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    /// Append `v` as its compact JSON rendering, prefixed by the
    /// rendering's byte length.
    pub fn put_json(out: &mut Vec<u8>, v: &Value) {
        let text = json::to_string(v);
        put_uleb(out, text.len() as u64);
        out.extend_from_slice(text.as_bytes());
    }

    /// A reader over an encoded frame. Every accessor returns
    /// [`PramError::Checkpoint`] on truncated or malformed input; none
    /// panics.
    pub struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        /// Read `bytes` from the start.
        pub fn new(bytes: &'a [u8]) -> Self {
            Cursor { bytes, pos: 0 }
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        /// Consume the next `n` bytes, or fail if fewer remain.
        fn take(&mut self, n: usize) -> Result<&'a [u8], PramError> {
            if n > self.remaining() {
                return Err(fail(format!(
                    "truncated checkpoint: {n} bytes wanted at offset {}, {} left",
                    self.pos,
                    self.remaining()
                )));
            }
            let out = &self.bytes[self.pos..self.pos + n];
            self.pos += n;
            Ok(out)
        }

        /// Consume one LEB128 varint.
        ///
        /// # Errors
        ///
        /// The input ends inside the varint, or it overflows 64 bits.
        pub fn uleb(&mut self) -> Result<u64, PramError> {
            let mut v = 0u64;
            let mut shift = 0;
            loop {
                let &b = self.bytes.get(self.pos).ok_or_else(|| {
                    fail(format!("truncated checkpoint: varint cut off at offset {}", self.pos))
                })?;
                self.pos += 1;
                if shift == 63 && b > 1 {
                    return Err(fail(format!("varint overflows 64 bits at offset {}", self.pos)));
                }
                v |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
            }
        }

        /// Consume a varint holding a length, count or index.
        ///
        /// # Errors
        ///
        /// As [`Cursor::uleb`], or the value exceeds `usize`.
        pub fn uleb_usize(&mut self) -> Result<usize, PramError> {
            let v = self.uleb()?;
            usize::try_from(v).map_err(|_| fail(format!("length {v} exceeds this platform")))
        }

        /// Consume a count-prefixed run of varints.
        ///
        /// # Errors
        ///
        /// As [`Cursor::uleb`].
        pub fn uleb_vec(&mut self) -> Result<Vec<u64>, PramError> {
            let n = self.uleb_usize()?;
            // Every varint takes at least one byte: a corrupt count cannot
            // reserve more than the input could hold.
            let mut out = Vec::with_capacity(n.min(self.remaining()));
            for _ in 0..n {
                out.push(self.uleb()?);
            }
            Ok(out)
        }

        /// Consume a length-prefixed compact-JSON value.
        ///
        /// # Errors
        ///
        /// Truncation, invalid UTF-8, or malformed JSON.
        pub fn json(&mut self) -> Result<Value, PramError> {
            let n = self.uleb_usize()?;
            let raw = self.take(n)?;
            let text = std::str::from_utf8(raw)
                .map_err(|e| fail(format!("checkpoint JSON section is not UTF-8: {e}")))?;
            json::parse(text).map_err(|e| fail(format!("checkpoint JSON section: {e}")))
        }

        /// Everything not yet consumed, ending the read.
        pub fn rest(self) -> &'a [u8] {
            &self.bytes[self.pos..]
        }

        /// End the read, requiring the input to be fully consumed.
        ///
        /// # Errors
        ///
        /// Trailing bytes.
        pub fn finish(self) -> Result<(), PramError> {
            match self.remaining() {
                0 => Ok(()),
                n => Err(fail(format!("{n} trailing bytes after the checkpoint frame"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let pattern = [
            (FailureKind::Failure { point: FailPoint::BeforeReads }, 0, 3),
            (FailureKind::Failure { point: FailPoint::BeforeWrites }, 1, 3),
            (FailureKind::Restart, 0, 900),
            (FailureKind::Failure { point: FailPoint::AfterWrite(usize::MAX) }, usize::MAX, 901),
            (FailureKind::Restart, 1, u64::MAX),
        ]
        .into_iter()
        .map(|(kind, pid, time)| FailureEvent { kind, pid, time })
        .collect();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            model: "word".to_string(),
            cycle: 17,
            mode: WriteMode::Common,
            budget_reads: 4,
            budget_writes: 2,
            layout: MemoryLayout::Banked { banks: 2, interleave: 1 },
            mem: vec![0, 1, 127, 128, u64::MAX],
            bank_reads: vec![5, 4],
            bank_writes: vec![2, 3],
            stats: WorkStats { completed_cycles: 12, parallel_time: 17, ..Default::default() },
            procs: vec![
                ProcCheckpoint { status: ProcStatus::Alive, completed: 12, state: Value::UInt(3) },
                ProcCheckpoint { status: ProcStatus::Failed, completed: 0, state: Value::Null },
            ],
            pattern,
            adversary: Value::Str("cursor \"é\"".into()),
            policy: Value::Map(vec![("kind".into(), Value::Str("adaptive".into()))]),
        }
    }

    fn encode(ck: &Checkpoint) -> Vec<u8> {
        let mut out = Vec::new();
        ck.encode_into(&mut out);
        out
    }

    #[test]
    fn varints_cover_the_full_word_and_refuse_overflow() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let mut out = Vec::new();
            wire::put_uleb(&mut out, v);
            let mut c = wire::Cursor::new(&out);
            assert_eq!(c.uleb().unwrap(), v);
            c.finish().unwrap();
        }
        // Ten bytes whose last carries more than the 64th bit.
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert!(wire::Cursor::new(&over).uleb().is_err());
    }

    #[test]
    fn every_strict_prefix_is_a_checkpoint_error() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let err = Checkpoint::decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, PramError::Checkpoint { .. }), "cut {cut}: {err:?}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(Checkpoint::decode(&long).is_err(), "trailing bytes must be refused");
    }

    #[test]
    fn garbled_bytes_never_panic_and_bad_lengths_are_refused() {
        let bytes = encode(&sample());
        for i in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                // Any outcome but a panic is acceptable for a flipped
                // payload byte; lengths are checked below.
                let _ = Checkpoint::decode(&bad);
            }
        }
        // The header's length prefix sits right after magic and version.
        let mut bad = bytes.clone();
        bad[5] ^= 0x40;
        assert!(matches!(Checkpoint::decode(&bad), Err(PramError::Checkpoint { .. })));
        // A memory-cell count claiming 2^62 cells.
        let ck = sample();
        let mut head = Vec::new();
        head.extend_from_slice(MAGIC);
        wire::put_uleb(&mut head, u64::from(CHECKPOINT_VERSION));
        wire::put_json(&mut head, &ck.header().into_json());
        let mut bad = head.clone();
        wire::put_uleb(&mut bad, 1 << 62);
        bad.extend_from_slice(&bytes[head.len() + 1..]);
        assert!(matches!(Checkpoint::decode(&bad), Err(PramError::Checkpoint { .. })));
    }

    #[test]
    fn json_checkpoints_and_foreign_versions_are_refused_by_name() {
        let err = Checkpoint::decode(b"{\"version\": 4}").unwrap_err();
        let PramError::Checkpoint { detail } = err else { panic!("{err:?}") };
        assert!(detail.contains("v4") && detail.contains("v5"), "{detail}");
        let mut v6 = encode(&sample());
        v6[4] = 6;
        let err = Checkpoint::decode(&v6).unwrap_err().to_string();
        assert!(err.contains("v6") && err.contains("v5"), "{err}");
        assert!(Checkpoint::decode(b"RFSS").is_err());
    }
}
