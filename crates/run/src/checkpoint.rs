//! The on-disk session checkpoint: config + machine snapshot + events
//! offset + cumulative wasted-work telemetry.
//!
//! A session checkpoint is one binary frame built from the machine
//! checkpoint's [`wire`] primitives:
//!
//! ```text
//! "RFSS"                 magic tag (4 bytes)
//! uleb  version          SESSION_CHECKPOINT_VERSION (3)
//! json  header           config, events_offset, wasted
//! ...                    the machine checkpoint frame ("RFCK", v5) to EOF
//! ```
//!
//! The machine frame is written by [`Checkpoint::encode_into`], so the
//! session layer encodes every checkpoint exactly once. Files are named
//! by role (`ck.json` in the daemon spool), not by format: the magic tag
//! identifies them.

use rfsp_pram::checkpoint::wire;
use rfsp_pram::{Checkpoint, WastedWork};
use serde::{Deserialize, Serialize, Value};

use crate::{atomic::write_atomic, io_err, RunConfig, RunError};

/// Version tag of the on-disk session checkpoint (wraps the machine's own
/// versioned [`Checkpoint`]).
///
/// * v1 — config + events offset + machine snapshot.
/// * v2 — adds cumulative [`WastedWork`] telemetry; the wrapped machine
///   checkpoint is v4 and carries the policy-engine state.
/// * v3 — the binary frame above around a binary v5 machine checkpoint;
///   v1 and v2 files were JSON documents and are refused.
pub const SESSION_CHECKPOINT_VERSION: u32 = 3;

/// Magic tag opening every session checkpoint frame.
const MAGIC: &[u8; 4] = b"RFSS";

/// What a checkpoint file holds: everything a resumed process needs —
/// config, machine snapshot, and how many event bytes had been flushed
/// when the snapshot was taken. (`Serialize` renders it as a JSON
/// document for inspection; the file format is the binary frame above.)
#[derive(Clone, Debug, Serialize)]
pub struct SessionCheckpoint {
    /// Format version ([`SESSION_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The run's full configuration.
    pub config: RunConfig,
    /// Flushed length of the events file at snapshot time; resume
    /// truncates the file back to this before continuing.
    pub events_offset: u64,
    /// Cumulative fault-tolerance overhead up to (not including) this
    /// snapshot; a resumed run keeps accumulating on top of it.
    pub wasted: WastedWork,
    /// The machine + adversary + policy-engine snapshot.
    pub machine: Checkpoint,
}

/// Append a session frame's magic, version and header to `out`; the
/// machine frame follows. Split from [`SessionCheckpoint::encode_into`] so
/// the session loop can encode the machine frame in place, in two parts
/// (see [`Checkpoint::encode_state_into`]).
pub(crate) fn encode_preamble(
    out: &mut Vec<u8>,
    config: &RunConfig,
    events_offset: u64,
    wasted: &WastedWork,
) {
    out.extend_from_slice(MAGIC);
    wire::put_uleb(out, u64::from(SESSION_CHECKPOINT_VERSION));
    wire::put_json(
        out,
        &Value::Map(vec![
            ("config".into(), config.to_value()),
            ("events_offset".into(), Value::UInt(events_offset)),
            ("wasted".into(), wasted.to_value()),
        ]),
    );
}

impl SessionCheckpoint {
    /// Append the binary encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_preamble(out, &self.config, self.events_offset, &self.wasted);
        self.machine.encode_into(out);
    }

    /// Decode a checkpoint written by [`SessionCheckpoint::encode_into`].
    ///
    /// # Errors
    ///
    /// A JSON (session v2 / machine v4 or older) checkpoint, a wrong
    /// magic tag or version, and any truncated or malformed frame.
    pub fn decode(bytes: &[u8]) -> Result<Self, RunError> {
        if bytes.first() == Some(&b'{') {
            return Err(RunError(format!(
                "this is a JSON checkpoint (session format v2 / machine format v4 or older); \
                 this build reads only the binary session format v{SESSION_CHECKPOINT_VERSION} \
                 / machine format v{} and cannot resume it — re-run from the start",
                rfsp_pram::CHECKPOINT_VERSION
            )));
        }
        let Some(body) = bytes.strip_prefix(MAGIC) else {
            return Err(RunError("not a session checkpoint (bad magic tag)".into()));
        };
        let malformed = |e: &dyn std::fmt::Display| RunError(format!("malformed checkpoint: {e}"));
        let mut c = wire::Cursor::new(body);
        let version = c.uleb().map_err(|e| malformed(&e))?;
        if version != u64::from(SESSION_CHECKPOINT_VERSION) {
            return Err(RunError(format!(
                "session checkpoint version {version} (this build reads \
                 {SESSION_CHECKPOINT_VERSION})"
            )));
        }
        let header = c.json().map_err(|e| malformed(&e))?;
        let field = |name: &str| {
            header.get(name).ok_or_else(|| RunError(format!("malformed checkpoint: no `{name}`")))
        };
        let config = RunConfig::from_value(field("config")?).map_err(|e| malformed(&e))?;
        let events_offset = u64::from_value(field("events_offset")?).map_err(|e| malformed(&e))?;
        let wasted = WastedWork::from_value(field("wasted")?).map_err(|e| malformed(&e))?;
        let machine = Checkpoint::decode(c.rest()).map_err(|e| malformed(&e))?;
        Ok(SessionCheckpoint {
            version: SESSION_CHECKPOINT_VERSION,
            config,
            events_offset,
            wasted,
            machine,
        })
    }

    /// Publish to `path` via [`write_atomic`]. Returns the size in bytes.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn store(&self, path: &str) -> Result<u64, RunError> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        write_atomic(path, &out)
    }

    /// Read and validate a checkpoint file.
    ///
    /// # Errors
    ///
    /// Unreadable files and everything [`SessionCheckpoint::decode`]
    /// refuses, prefixed with the path.
    pub fn load(path: &str) -> Result<Self, RunError> {
        let bytes = std::fs::read(path).map_err(|e| io_err("read", path, &e))?;
        SessionCheckpoint::decode(&bytes).map_err(|e| RunError(format!("{path}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_rejects_garbage_json_and_version_skew() {
        let dir = std::env::temp_dir().join("rfsp-run-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let path_s = path.to_str().unwrap();

        assert!(SessionCheckpoint::load(path_s).unwrap_err().0.contains("cannot read"));
        std::fs::write(&path, "{\"version\": 2, \"machine\": {\"version\": 4}}").unwrap();
        let err = SessionCheckpoint::load(path_s).unwrap_err().0;
        assert!(err.contains("v4") && err.contains("v5") && err.contains("v3"), "{err}");
        std::fs::write(&path, "garbage").unwrap();
        assert!(SessionCheckpoint::load(path_s).unwrap_err().0.contains("bad magic"));
        std::fs::write(&path, b"RFSS\x02").unwrap();
        assert!(SessionCheckpoint::load(path_s).unwrap_err().0.contains("version 2"));
        std::fs::write(&path, b"RFSS\x03\x05{}").unwrap();
        assert!(SessionCheckpoint::load(path_s).unwrap_err().0.contains("malformed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
