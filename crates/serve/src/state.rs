//! The serve daemon's persistent state: a JSONL file of completed results.
//!
//! The file reuses the campaign sink's crash-tolerance model (`tsc3d-campaign`): one JSON
//! line per completed job, appended and flushed as the job finishes, with
//! [`tsc3d_campaign::repair_torn_tail`] cutting off the partial write of a killed process
//! on startup. A restarted server therefore serves every result that was fully written
//! before the kill — without re-running the flow.
//!
//! Line format (all values JSON strings, so the served bytes round-trip exactly):
//!
//! ```json
//! {"v":1,"key":"<canonical job spec>","result":"<rendered result body>"}
//! ```

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tsc3d_campaign::repair_torn_tail;
use tsc3d_obs::json::Json;

/// Errors of the state file.
#[derive(Debug)]
pub enum StateError {
    /// An I/O operation failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The torn-tail repair (shared with the campaign sink) failed.
    Repair(tsc3d_campaign::SinkError),
    /// A non-final line does not parse as a state entry.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Io { path, source } => {
                write!(f, "state file {}: {source}", path.display())
            }
            StateError::Repair(e) => write!(f, "{e}"),
            StateError::Corrupt { path, line, reason } => write!(
                f,
                "state file {} is corrupt at line {line}: {reason}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StateError::Io { source, .. } => Some(source),
            StateError::Repair(e) => Some(e),
            StateError::Corrupt { .. } => None,
        }
    }
}

fn io_error(path: &Path, source: std::io::Error) -> StateError {
    StateError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// One recovered entry of the state file.
#[derive(Debug, Clone)]
pub struct StateEntry {
    /// The canonical job key.
    pub key: Arc<str>,
    /// The rendered result body, byte-identical to the original response.
    pub result: Arc<String>,
    /// Byte offset of the entry's line, for on-demand re-reads ([`StateFile::read_at`]).
    pub offset: u64,
}

/// The append side of the state file.
///
/// The writer also tracks the file length so every appended entry has a known byte
/// offset: the in-memory result cache is bounded, but the disk index (key → offset) keeps
/// *every* persisted result addressable, so results evicted from the cache are re-read
/// from disk instead of re-running the flow.
#[derive(Debug)]
pub struct StateFile {
    path: PathBuf,
    /// The buffered appender plus the current file length (the offset of the next line).
    writer: Mutex<(BufWriter<File>, u64)>,
}

impl StateFile {
    /// The results file inside a state directory.
    pub fn results_path(state_dir: &Path) -> PathBuf {
        state_dir.join("results.jsonl")
    }

    /// Opens (creating the directory and file if needed) the state file of `state_dir`,
    /// repairing a torn tail and returning every intact entry alongside the appender.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the directory/file cannot be created or read, or a
    /// complete line is corrupt (a torn final line — the kill artifact — is repaired,
    /// losing only the job that was mid-write).
    pub fn open(state_dir: &Path) -> Result<(Self, Vec<StateEntry>), StateError> {
        std::fs::create_dir_all(state_dir).map_err(|e| io_error(state_dir, e))?;
        let path = Self::results_path(state_dir);
        let mut entries = Vec::new();
        let mut length = 0u64;
        if path.exists() {
            repair_torn_tail(&path).map_err(StateError::Repair)?;
            let content = std::fs::read_to_string(&path).map_err(|e| io_error(&path, e))?;
            length = content.len() as u64;
            let mut offset = 0u64;
            for (i, line) in content.split_inclusive('\n').enumerate() {
                let line_offset = offset;
                offset += line.len() as u64;
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let entry =
                    parse_entry(line, line_offset).map_err(|reason| StateError::Corrupt {
                        path: path.clone(),
                        line: i + 1,
                        reason,
                    })?;
                entries.push(entry);
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_error(&path, e))?;
        Ok((
            Self {
                path,
                writer: Mutex::new((BufWriter::new(file), length)),
            },
            entries,
        ))
    }

    /// Appends one completed result and flushes, so the line survives a subsequent kill.
    /// Returns the byte offset of the appended line (the disk-index entry).
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on write failure; the server keeps serving from memory.
    pub fn append(&self, key: &str, result: &str) -> Result<u64, StateError> {
        let line = Json::Obj(vec![
            ("v".into(), Json::UInt(1)),
            ("key".into(), Json::Str(key.to_string())),
            ("result".into(), Json::Str(result.to_string())),
        ])
        .render();
        let mut writer = self.writer.lock().expect("state writer");
        let offset = writer.1;
        writeln!(writer.0, "{line}")
            .and_then(|()| writer.0.flush())
            .map_err(|e| io_error(&self.path, e))?;
        writer.1 += line.len() as u64 + 1;
        Ok(offset)
    }

    /// Re-reads the entry at `offset` (from [`StateFile::append`] or a recovered
    /// [`StateEntry`]) — the cache-miss path for results evicted from the bounded
    /// in-memory cache.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the file cannot be read or the line at the offset is
    /// not an intact entry.
    pub fn read_at(&self, offset: u64) -> Result<StateEntry, StateError> {
        use std::io::{BufRead, Seek, SeekFrom};
        let mut reader =
            std::io::BufReader::new(File::open(&self.path).map_err(|e| io_error(&self.path, e))?);
        reader
            .seek(SeekFrom::Start(offset))
            .map_err(|e| io_error(&self.path, e))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| io_error(&self.path, e))?;
        parse_entry(line.trim(), offset).map_err(|reason| StateError::Corrupt {
            path: self.path.clone(),
            line: 0,
            reason,
        })
    }
}

fn parse_entry(line: &str, offset: u64) -> Result<StateEntry, String> {
    let value = Json::parse(line).map_err(|e| e.to_string())?;
    let key = value
        .get("key")
        .and_then(Json::as_str)
        .ok_or("entry is missing string field 'key'")?;
    let result = value
        .get("result")
        .and_then(Json::as_str)
        .ok_or("entry is missing string field 'result'")?;
    Ok(StateEntry {
        key: Arc::from(key),
        result: Arc::new(result.to_string()),
        offset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tsc3d-serve-state-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entries_round_trip_across_reopen() {
        let dir = temp_dir("roundtrip");
        let (state, entries) = StateFile::open(&dir).unwrap();
        assert!(entries.is_empty());
        state.append("{\"a\":1}", "{\"r\":0.5}").unwrap();
        state.append("{\"b\":2}", "{\"r\":\"x\\\"y\"}").unwrap();
        drop(state);

        let (_state, entries) = StateFile::open(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(&*entries[0].key, "{\"a\":1}");
        assert_eq!(entries[0].result.as_str(), "{\"r\":0.5}");
        assert_eq!(entries[1].result.as_str(), "{\"r\":\"x\\\"y\"}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn offsets_address_entries_for_on_demand_reads() {
        let dir = temp_dir("offsets");
        let (state, _) = StateFile::open(&dir).unwrap();
        let first = state.append("{\"a\":1}", "{\"r\":1}").unwrap();
        let second = state.append("{\"b\":2}", "{\"r\":2}").unwrap();
        assert_eq!(first, 0);
        assert!(second > first);
        let entry = state.read_at(first).unwrap();
        assert_eq!(&*entry.key, "{\"a\":1}");
        assert_eq!(entry.result.as_str(), "{\"r\":1}");
        drop(state);

        // Recovered entries carry the same offsets, and they stay valid after reopening.
        let (state, entries) = StateFile::open(&dir).unwrap();
        assert_eq!(entries[1].offset, second);
        let entry = state.read_at(entries[1].offset).unwrap();
        assert_eq!(entry.result.as_str(), "{\"r\":2}");
        // Appends after a reopen continue from the recovered length.
        let third = state.append("{\"c\":3}", "{\"r\":3}").unwrap();
        assert_eq!(state.read_at(third).unwrap().result.as_str(), "{\"r\":3}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_repaired_on_open() {
        let dir = temp_dir("torn");
        let (state, _) = StateFile::open(&dir).unwrap();
        state.append("{\"a\":1}", "{\"r\":1}").unwrap();
        drop(state);
        let path = StateFile::results_path(&dir);
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"v\":1,\"key\":\"{\\\"half");
        std::fs::write(&path, &content).unwrap();

        let (state, entries) = StateFile::open(&dir).unwrap();
        assert_eq!(entries.len(), 1, "the torn line is dropped");
        // Appending after repair lands on a fresh line.
        state.append("{\"c\":3}", "{\"r\":3}").unwrap();
        drop(state);
        let (_state, entries) = StateFile::open(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn complete_corrupt_lines_are_an_error() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(StateFile::results_path(&dir), "{\"v\":1,\"key\":3}\n").unwrap();
        let err = StateFile::open(&dir).unwrap_err();
        assert!(matches!(err, StateError::Corrupt { line: 1, .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
