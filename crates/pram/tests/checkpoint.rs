//! Property test for the checkpoint/resume guarantee: a run paused at an
//! arbitrary tick, snapshotted, round-tripped through the binary codec, and restored
//! into a *freshly built* machine and adversary finishes with the same
//! event stream, stats, failure pattern, per-processor counts, and final
//! memory as the same run left uninterrupted. This is the machine-level
//! contract the crash-safe CLI runner (`rfsp experiment --resume`) and the
//! soak harness's kill/resume mode are built on.

use proptest::prelude::*;
use rfsp_pram::{
    Checkpoint, CycleBudget, FailPoint, FailureEvent, FailureKind, FailurePattern, Machine,
    MemoryLayout, Pid, ProcCheckpoint, ProcStatus, Program, ReadSet, RunControl, RunLimits,
    RunStatus, ScheduledAdversary, SharedMemory, Step, TraceRecorder, Word, WorkStats, WriteMode,
    WriteSet, CHECKPOINT_VERSION,
};
use serde::Value;

/// Round-trip `ck` through the binary checkpoint codec.
fn codec_roundtrip(ck: &Checkpoint) -> Checkpoint {
    let mut bytes = Vec::new();
    ck.encode_into(&mut bytes);
    Checkpoint::decode(&bytes).unwrap()
}

/// A Write-All-ish grind with *nontrivial private state*: each processor
/// counts the cycles it has executed since its last (re)start, and every
/// third cycle bumps its cell by 2 instead of 1. The write thus depends on
/// the private counter, so a checkpoint that mangled private state would
/// change the event stream, not just fail quietly.
struct SteppedGrind {
    n: usize,
    target: Word,
}

impl Program for SteppedGrind {
    type Private = u64;
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) -> u64 {
        0
    }
    fn plan(&self, pid: Pid, _st: &u64, values: &[Word], reads: &mut ReadSet) {
        if values.is_empty() {
            reads.push(pid.0 % self.n);
        }
    }
    fn execute(&self, pid: Pid, st: &mut u64, values: &[Word], writes: &mut WriteSet) -> Step {
        *st += 1;
        if values[0] < self.target {
            let bump = if st.is_multiple_of(3) { 2 } else { 1 };
            writes.push(pid.0 % self.n, (values[0] + bump).min(self.target));
        }
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.n).all(|i| mem.peek(i) >= self.target)
    }
}

/// Build a *legal* pre-committed fault schedule from raw fuzz input (the
/// same construction as `properties.rs`): alternating fails/restarts
/// respecting per-processor liveness, processor 0 immune, everyone revived
/// at the end so the computation can finish.
fn legal_schedule(p: usize, raw: Vec<(usize, bool)>) -> FailurePattern {
    let mut alive = vec![true; p];
    let mut pattern = FailurePattern::new();
    let raw_len = raw.len();
    for (t, (pid_raw, restart)) in raw.into_iter().enumerate() {
        let pid = pid_raw % p;
        if pid == 0 {
            continue; // keep processor 0 immune for liveness
        }
        if alive[pid] && !restart {
            alive[pid] = false;
            pattern.push(FailureEvent {
                kind: FailureKind::Failure { point: FailPoint::BeforeWrites },
                pid,
                time: t as u64,
            });
        } else if !alive[pid] && restart {
            alive[pid] = true;
            pattern.push(FailureEvent { kind: FailureKind::Restart, pid, time: t as u64 + 1 });
        }
    }
    let heal_time = raw_len as u64 + 2;
    for (pid, &is_alive) in alive.iter().enumerate() {
        if !is_alive {
            pattern.push(FailureEvent { kind: FailureKind::Restart, pid, time: heal_time });
        }
    }
    pattern
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Pause anywhere, checkpoint through the codec, restore into fresh machine
    /// + adversary, finish: the concatenated trace and every observable are
    /// identical to the uninterrupted run.
    #[test]
    fn interrupted_and_resumed_run_is_bit_identical(
        p in 1usize..12,
        target in 1u64..6,
        pause_at in 0u64..40,
        raw in proptest::collection::vec((1usize..12, any::<bool>()), 0..48),
    ) {
        let pattern = legal_schedule(p, raw);
        let limits = RunLimits { max_cycles: 1_000_000 };
        let prog = SteppedGrind { n: p, target };

        // Uninterrupted reference run.
        let mut straight = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        let mut trace_s = TraceRecorder::unbounded();
        let report_s = straight
            .run_observed(&mut ScheduledAdversary::new(pattern.clone()), limits, &mut trace_s)
            .unwrap();

        // Interrupted run: pause at the fuzzed tick (if the run lives that
        // long), snapshot, codec round-trip, restore into a FRESH machine
        // and a FRESH adversary rebuilt from the same schedule — exactly
        // what a resuming process does — then run to completion.
        let mut first = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        let mut adv1 = ScheduledAdversary::new(pattern.clone());
        let mut trace_a = TraceRecorder::unbounded();
        let status = first
            .run_controlled(&mut adv1, limits, &mut trace_a, |cycle| {
                if cycle >= pause_at { RunControl::Pause } else { RunControl::Continue }
            })
            .unwrap();

        let (report_r, trace_b, mem_r) = match status {
            RunStatus::Completed(report) => {
                // Finished before the pause tick: the interrupted path
                // degenerates to a plain run.
                let mem = first.memory().as_slice().to_vec();
                (report, TraceRecorder::unbounded(), mem)
            }
            RunStatus::Paused { cycle } => {
                prop_assert!(cycle >= pause_at);
                let ck = first.save_checkpoint(&adv1).unwrap();
                let ck = codec_roundtrip(&ck);
                let mut second = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
                let mut adv2 = ScheduledAdversary::new(pattern.clone());
                second.restore_checkpoint(&ck, &mut adv2).unwrap();
                let mut trace_b = TraceRecorder::unbounded();
                let report = second.run_observed(&mut adv2, limits, &mut trace_b).unwrap();
                let mem = second.memory().as_slice().to_vec();
                (report, trace_b, mem)
            }
        };

        prop_assert_eq!(report_s.outcome, report_r.outcome);
        prop_assert_eq!(report_s.stats, report_r.stats);
        prop_assert_eq!(report_s.pattern.events(), report_r.pattern.events());
        prop_assert_eq!(report_s.per_processor, report_r.per_processor);
        prop_assert_eq!(straight.memory().as_slice(), &mem_r[..]);
        // The interrupted run's two trace halves concatenate to exactly the
        // uninterrupted stream — the property the CLI's events-file
        // truncate-and-append resume protocol relies on.
        let stitched = format!("{}{}", trace_a.to_jsonl(), trace_b.to_jsonl());
        prop_assert_eq!(trace_s.to_jsonl(), stitched);
    }
}

/// One fuzzed failure-pattern record: every [`FailPoint`] variant, with
/// `AfterWrite`'s `k` drawn from the whole `usize` range, and restarts.
fn fate(code: u8, k: usize) -> FailureKind {
    match code % 4 {
        0 => FailureKind::Restart,
        1 => FailureKind::Failure { point: FailPoint::BeforeReads },
        2 => FailureKind::Failure { point: FailPoint::BeforeWrites },
        _ => FailureKind::Failure { point: FailPoint::AfterWrite(k) },
    }
}

/// A non-null private state exercising every JSON shape the header
/// carries: nested maps and sequences, negative and large integers,
/// floats, and strings needing escapes and multibyte UTF-8.
fn private_state(x: u64, y: i64, flag: bool) -> Value {
    Value::Map(vec![
        ("x".into(), Value::UInt(x)),
        ("y".into(), Value::Int(y.min(-1))),
        ("f".into(), Value::Float(y as f64 / 3.0)),
        ("path".into(), Value::Seq(vec![Value::Bool(flag), Value::Null, Value::UInt(x >> 7)])),
        ("tag".into(), Value::Str(format!("P\"{x}\"\\ \u{e9}\u{4e16}\n"))),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The binary codec is exact over the whole checkpoint domain — both
    /// models, flat and banked layouts, full-range cells, counters, PIDs,
    /// times and write counts, non-null private states — and a strict
    /// prefix of any frame is refused.
    #[test]
    fn codec_roundtrips_arbitrary_checkpoints(
        snapshot in any::<bool>(),
        banks in 0usize..5,
        interleave in 1usize..9,
        cells in proptest::collection::vec(any::<u64>(), 0..96),
        small in any::<bool>(),
        raw_events in proptest::collection::vec(
            (any::<usize>(), any::<u64>(), any::<u8>(), any::<usize>()),
            0..40,
        ),
        procs in proptest::collection::vec((0u8..3, any::<u64>(), any::<i64>(), any::<bool>()), 0..12),
        shape in (any::<u64>(), 0u8..4, any::<usize>(), any::<usize>()),
        counters in proptest::collection::vec(any::<u64>(), 8),
        stat in any::<u64>(),
        with_policy in any::<bool>(),
    ) {
        let (cycle, mode, budget_reads, budget_writes) = shape;
        let layout = match banks {
            0 => MemoryLayout::Flat,
            banks => MemoryLayout::Banked { banks, interleave },
        };
        let bank_count = layout.bank_count();
        let mut events: Vec<FailureEvent> = raw_events
            .into_iter()
            .map(|(pid, time, code, k)| FailureEvent { kind: fate(code, k), pid, time })
            .collect();
        events.sort_by_key(|e| e.time);
        let ck = Checkpoint {
            version: CHECKPOINT_VERSION,
            model: if snapshot { "snapshot" } else { "word" }.to_string(),
            cycle,
            mode: [WriteMode::Common, WriteMode::Arbitrary, WriteMode::Priority, WriteMode::Exclusive]
                [usize::from(mode)],
            budget_reads,
            budget_writes,
            layout,
            mem: cells.iter().map(|&c| if small { c % 3 } else { c }).collect(),
            bank_reads: counters[..bank_count].to_vec(),
            bank_writes: counters[8 - bank_count..].to_vec(),
            stats: WorkStats {
                completed_cycles: stat,
                interrupted_cycles: stat >> 3,
                charged_instructions: stat.rotate_left(5),
                partial_instructions: 1,
                failures: stat >> 40,
                restarts: stat >> 41,
                parallel_time: cycle,
            },
            procs: procs
                .iter()
                .map(|&(status, x, y, flag)| ProcCheckpoint {
                    status: [ProcStatus::Alive, ProcStatus::Failed, ProcStatus::Halted]
                        [usize::from(status)],
                    completed: x,
                    state: private_state(x, y, flag),
                })
                .collect(),
            pattern: events.into_iter().collect(),
            adversary: Value::Map(vec![("cursor".into(), Value::UInt(cycle ^ stat))]),
            policy: if with_policy { private_state(stat, -7, true) } else { Value::Null },
        };
        let mut bytes = Vec::new();
        ck.encode_into(&mut bytes);
        prop_assert_eq!(Checkpoint::decode(&bytes).unwrap(), ck.clone());
        let mut state = Vec::new();
        let state_len = ck.encode_state_into(&mut state);
        prop_assert_eq!(&bytes[..state_len], &state[..]);
        for cut in [0, 4, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            prop_assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "prefix {} decoded", cut);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The copy-free path writes the struct path's bytes: pause a faulty
    /// run anywhere, under the flat or a banked layout, and the frame
    /// `encode_checkpoint_into` appends equals
    /// `save_checkpoint()?.encode_state_into()` byte for byte.
    #[test]
    fn copy_free_frame_equals_the_struct_encoding(
        p in 2usize..12,
        banks in 0usize..4,
        pause_at in 0u64..40,
        raw in proptest::collection::vec((1usize..12, any::<bool>()), 0..48),
    ) {
        let layout = match banks {
            0 => MemoryLayout::Flat,
            banks => MemoryLayout::Banked { banks, interleave: 2 },
        };
        let prog = SteppedGrind { n: 3 * p, target: 4 };
        let mut m = Machine::with_layout(&prog, p, CycleBudget::PAPER, layout).unwrap();
        let mut adv = ScheduledAdversary::new(legal_schedule(p, raw));
        let limits = RunLimits { max_cycles: 1_000_000 };
        let _ = m
            .run_controlled(&mut adv, limits, &mut TraceRecorder::unbounded(), |cycle| {
                if cycle >= pause_at { RunControl::Pause } else { RunControl::Continue }
            })
            .unwrap();
        let mut want = Vec::new();
        let ck = m.save_checkpoint(&adv).unwrap();
        let want_len = ck.encode_state_into(&mut want);
        let mut got = b"preamble".to_vec();
        let got_len = m.encode_checkpoint_into(&adv, &mut got).unwrap();
        prop_assert_eq!(got_len, want_len);
        prop_assert_eq!(&got[8..], &want[..]);
        // Completed with the policy payload, the frame decodes back to the
        // saved checkpoint.
        Checkpoint::encode_policy_into(&ck.policy, &mut got);
        prop_assert_eq!(Checkpoint::decode(&got[8..]).unwrap(), ck);
    }
}

/// The mid-run case the session layer cares about, pinned: a banked
/// machine paused with failed processors and a non-empty failure pattern.
/// A non-checkpointable adversary appends nothing and errs like
/// `save_checkpoint`.
#[test]
fn copy_free_frame_mid_run_with_failures() {
    let prog = SteppedGrind { n: 10, target: 5 };
    let layout = MemoryLayout::Banked { banks: 3, interleave: 2 };
    let mut m = Machine::with_layout(&prog, 4, CycleBudget::PAPER, layout).unwrap();
    let pattern: FailurePattern = [
        (FailureKind::Failure { point: FailPoint::BeforeWrites }, 1, 1),
        (FailureKind::Failure { point: FailPoint::BeforeReads }, 2, 2),
        (FailureKind::Restart, 1, 4),
        (FailureKind::Restart, 2, 9),
    ]
    .into_iter()
    .map(|(kind, pid, time)| FailureEvent { kind, pid, time })
    .collect();
    let mut adv = ScheduledAdversary::new(pattern);
    let status = m
        .run_controlled(&mut adv, RunLimits::default(), &mut TraceRecorder::unbounded(), |c| {
            if c >= 6 {
                RunControl::Pause
            } else {
                RunControl::Continue
            }
        })
        .unwrap();
    assert!(matches!(status, RunStatus::Paused { cycle: 6 }));
    let ck = m.save_checkpoint(&adv).unwrap();
    assert_eq!(ck.pattern.size(), 3, "two failures and one restart so far");
    assert!(ck.procs.iter().any(|pc| pc.status == ProcStatus::Failed));
    let mut want = Vec::new();
    ck.encode_state_into(&mut want);
    let mut got = Vec::new();
    m.encode_checkpoint_into(&adv, &mut got).unwrap();
    assert_eq!(got, want);

    struct Opaque;
    impl rfsp_pram::Adversary for Opaque {
        fn decide(&mut self, _view: &rfsp_pram::MachineView<'_>) -> rfsp_pram::Decisions {
            rfsp_pram::Decisions::none()
        }
    }
    let mut out = Vec::new();
    assert!(m.encode_checkpoint_into(&Opaque, &mut out).is_err());
    assert!(out.is_empty(), "a refused checkpoint must append nothing");
}
