//! Size-bounded trace files: rotation keeps `trace.jsonl` from filling the
//! disk on long fleet runs.
//!
//! The policy is the classic single-generation logrotate: when writing a new
//! trace would push the live file past the cap, the live file is renamed to
//! `<path>.1` (replacing any previous `.1`) and the new trace starts fresh.
//! Total disk use is therefore bounded by roughly `cap + one trace`.

use std::path::Path;

/// Default rotation cap for trace files (64 MiB).
pub const DEFAULT_TRACE_CAP_BYTES: u64 = 64 * 1024 * 1024;

/// The rotated sibling of a trace path: `trace.jsonl` → `trace.jsonl.1`.
fn rotated_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".1");
    std::path::PathBuf::from(name)
}

/// Rotates `path` to `<path>.1` if appending/replacing it with
/// `incoming_bytes` of content would exceed `cap_bytes`.
///
/// Returns `true` when a rotation happened. A missing or empty live file
/// never rotates; an `incoming_bytes` larger than the cap on its own still
/// rotates the old file away (the new trace is always written whole).
///
/// # Errors
///
/// Propagates I/O errors other than the live file not existing.
pub fn rotate_if_needed(path: &Path, incoming_bytes: u64, cap_bytes: u64) -> std::io::Result<bool> {
    let existing = match std::fs::metadata(path) {
        Ok(meta) => meta.len(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    if existing == 0 || existing.saturating_add(incoming_bytes) <= cap_bytes {
        return Ok(false);
    }
    std::fs::rename(path, rotated_path(path))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("parbor-obs-trace-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn under_cap_keeps_the_live_file() {
        let dir = temp_dir("undercap");
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, "a\n").unwrap();
        assert!(!rotate_if_needed(&path, 10, 1000).unwrap());
        assert!(path.exists());
        assert!(!rotated_path(&path).exists());
    }

    #[test]
    fn over_cap_rotates_to_dot_one() {
        let dir = temp_dir("overcap");
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, vec![b'x'; 100]).unwrap();
        assert!(rotate_if_needed(&path, 50, 120).unwrap());
        assert!(!path.exists());
        assert_eq!(std::fs::read(rotated_path(&path)).unwrap().len(), 100);

        // A second rotation replaces the previous `.1`.
        std::fs::write(&path, vec![b'y'; 100]).unwrap();
        assert!(rotate_if_needed(&path, 50, 120).unwrap());
        assert_eq!(std::fs::read(rotated_path(&path)).unwrap(), vec![b'y'; 100]);
    }

    #[test]
    fn missing_file_never_rotates() {
        let dir = temp_dir("missing");
        let path = dir.join("trace.jsonl");
        assert!(!rotate_if_needed(&path, u64::MAX, 0).unwrap());
    }
}
