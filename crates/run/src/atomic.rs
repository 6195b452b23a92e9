//! Durable atomic file publication — the tmp + fsync + rename dance.
//!
//! Both the long-run checkpoint writer and the soak harness used to carry
//! private copies of this sequence; this is the one shared implementation
//! (ISSUE 10, satellite 2).

use std::fs::File;
use std::io::Write;

use crate::{io_err, RunError};

/// Write `data` to `path` durably and atomically: write a sibling tmp
/// file, fsync it, rename it over `path`, then fsync the parent directory
/// so the rename itself survives a power cut. A reader (or a kill at any
/// instant) sees either the old file or the complete new one — never a
/// torn write. Returns the published size in bytes.
///
/// # Errors
///
/// Any I/O failure, decorated with the operation and path.
pub fn write_atomic(path: &str, data: impl AsRef<[u8]>) -> Result<u64, RunError> {
    let data = data.as_ref();
    let tmp = format!("{path}.tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, &e))?;
    f.write_all(data).map_err(|e| io_err("write", &tmp, &e))?;
    // The data must be on disk before the rename publishes it, or a crash
    // could leave a fully-named but empty file.
    f.sync_all().map_err(|e| io_err("fsync", &tmp, &e))?;
    drop(f);
    // The rename is atomic: a reader (or a kill) never sees a torn file.
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename", &tmp, &e))?;
    // The rename lives in the directory entry; fsync the parent so the
    // publication itself is durable.
    let parent = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."));
    File::open(parent)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync parent directory of", path, &e))?;
    Ok(data.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_content_and_reports_size() {
        let dir = std::env::temp_dir().join("rfsp-run-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let path_s = path.to_str().unwrap();
        let n = write_atomic(path_s, "{\"a\":1}").unwrap();
        assert_eq!(n, 7);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}");
        // Overwrite with binary data: the old content is replaced
        // wholesale, and no tmp residue survives a successful publication.
        write_atomic(path_s, [0xff, 0, 7]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [0xff, 0, 7]);
        assert!(!dir.join("out.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_parent_directory_is_a_decorated_error() {
        let path = std::env::temp_dir().join("rfsp-run-atomic-nodir/sub/out.json");
        let err = write_atomic(path.to_str().unwrap(), "x").unwrap_err();
        assert!(err.0.contains("cannot create"), "{err}");
        assert!(err.0.contains(".tmp"), "{err}");
    }
}
