//! The streaming results file: a spec header plus one JSON line per finished job.
//!
//! The header line is `{"<header key>": <spec>, "shard": "k/n"}`, the header key naming
//! the [`JobKind`] (`campaign`, `sca_campaign`). The sink appends and flushes each
//! record as its job finishes, so a crashed or killed campaign loses at most the jobs
//! that were still in flight. On startup the resume path re-reads the file, tolerates a
//! truncated final line (the crash artifact), and skips every job that already has a
//! record.

use crate::job::Shard;
use crate::kind::JobKind;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tsc3d_obs::json::Json;

/// Errors of the results-file sink.
#[derive(Debug)]
pub enum SinkError {
    /// An I/O operation on the results file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A non-final line of the results file does not parse.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Io { path, source } => {
                write!(f, "results file {}: {source}", path.display())
            }
            SinkError::Corrupt { path, line, reason } => {
                write!(
                    f,
                    "results file {} is corrupt at line {line}: {reason}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for SinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SinkError::Io { source, .. } => Some(source),
            SinkError::Corrupt { .. } => None,
        }
    }
}

fn io_error(path: &Path, source: std::io::Error) -> SinkError {
    SinkError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// The parsed content of a results file of kind `K`.
#[derive(Debug)]
pub struct CampaignFile<K: JobKind> {
    /// The spec from the header line, when present.
    pub spec: Option<K>,
    /// The shard the file's campaign was started with (from the header), when present.
    /// A bare `campaign resume` restores this instead of defaulting to the full job
    /// space, so a sharded file never re-executes the other shards' jobs.
    pub shard: Option<Shard>,
    /// All intact job records, in file order.
    pub records: Vec<K::Record>,
    /// Whether the final line was truncated/malformed and ignored (the signature of a
    /// killed campaign).
    pub truncated_tail: bool,
}

/// One parsed line of a results file.
enum Line<K: JobKind> {
    Header(K, Option<Shard>),
    Record(K::Record),
}

/// Reads a results file of kind `K`, tolerating a truncated final line.
///
/// Only a *torn* tail — a final fragment with no terminating newline, the partial write
/// of a killed process — is tolerated (and removable by [`repair_torn_tail`]). A
/// newline-terminated line that fails to parse is corruption wherever it sits: treating
/// it as a tail would let a resume append past it and wedge the file permanently. So is
/// the header of another kind: a file of one kind never resumes as another.
///
/// # Errors
///
/// Returns [`SinkError`] on I/O failures or corruption.
pub fn read_results_file<K: JobKind>(path: &Path) -> Result<CampaignFile<K>, SinkError> {
    let content = std::fs::read_to_string(path).map_err(|e| io_error(path, e))?;
    let has_torn_tail = !content.is_empty() && !content.ends_with('\n');
    let lines: Vec<&str> = content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mut file = CampaignFile {
        spec: None,
        shard: None,
        records: Vec::new(),
        truncated_tail: false,
    };
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        let corrupt = |reason: String| SinkError::Corrupt {
            path: path.to_path_buf(),
            line: i + 1,
            reason,
        };
        match parse_line::<K>(line) {
            Ok(Line::Header(_, _)) if i != 0 => {
                return Err(corrupt(format!(
                    "`{}` header not on the first line",
                    K::HEADER_KEY
                )))
            }
            Ok(Line::Header(spec, shard)) => {
                file.spec = Some(spec);
                file.shard = shard;
            }
            Ok(Line::Record(record)) => file.records.push(record),
            // Only a torn final line may fail to parse: it is the partial write of a
            // killed process, and its job simply reruns on resume.
            Err(_) if i == last && has_torn_tail => file.truncated_tail = true,
            Err(reason) => return Err(corrupt(reason)),
        }
    }
    Ok(file)
}

fn parse_line<K: JobKind>(line: &str) -> Result<Line<K>, String> {
    let value = Json::parse(line).map_err(|e| e.to_string())?;
    match value.get(K::HEADER_KEY) {
        Some(header) => {
            let shard = value
                .get("shard")
                .and_then(Json::as_str)
                .and_then(Shard::parse);
            K::from_json(header)
                .map(|spec| Line::Header(spec, shard))
                .map_err(|e| e.to_string())
        }
        // Records never carry a shard; headers always do.
        None if value.get("shard").is_some() => Err(format!(
            "not a `{}` results file (the header is of another job kind)",
            K::HEADER_KEY
        )),
        None => K::record_from_json(&value)
            .map(Line::Record)
            .map_err(|e| e.to_string()),
    }
}

/// Truncates a torn trailing fragment (bytes after the last newline — the partial write
/// of a killed campaign) so appended records start on a fresh line. Returns whether
/// anything was removed. Must run before [`ResultSink::append_to`] on a resumed file;
/// appending directly after a torn fragment would glue two records into one corrupt
/// interior line.
pub fn repair_torn_tail(path: &Path) -> Result<bool, SinkError> {
    let content = std::fs::read(path).map_err(|e| io_error(path, e))?;
    let keep = match content.iter().rposition(|&b| b == b'\n') {
        Some(last_newline) => last_newline + 1,
        None => 0,
    };
    if keep == content.len() {
        return Ok(false);
    }
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_error(path, e))?;
    file.set_len(keep as u64).map_err(|e| io_error(path, e))?;
    Ok(true)
}

/// A thread-safe appending writer of the results file.
#[derive(Debug)]
pub struct ResultSink {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
    fsync: bool,
}

impl ResultSink {
    /// Creates a results file and writes the header line: the spec under its kind's
    /// header key plus the shard this file's campaign runs. The header is installed
    /// atomically (temp file + fsync + rename), so a crash during creation cannot leave a
    /// torn header behind. When `fsync` is set, every appended record is synced to disk
    /// before [`ResultSink::append_line`] returns.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] on I/O failure.
    pub fn create<K: JobKind>(
        path: &Path,
        spec: &K,
        shard: Shard,
        fsync: bool,
    ) -> Result<Self, SinkError> {
        let header = Json::Obj(vec![
            (K::HEADER_KEY.into(), spec.to_json()),
            ("shard".into(), Json::Str(shard.to_string())),
        ])
        .render();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_error(path, e))?;
            }
        }
        let mut temp = path.as_os_str().to_os_string();
        temp.push(".tmp");
        let temp = PathBuf::from(temp);
        let mut file = File::create(&temp).map_err(|e| io_error(&temp, e))?;
        writeln!(file, "{header}")
            .and_then(|()| file.sync_all())
            .map_err(|e| io_error(&temp, e))?;
        drop(file);
        std::fs::rename(&temp, path).map_err(|e| io_error(path, e))?;
        Self::append_to(path, fsync)
    }

    /// Opens an existing results file for appending (the resume path), with optional
    /// per-line fsync durability.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] on I/O failure.
    pub fn append_to(path: &Path, fsync: bool) -> Result<Self, SinkError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_error(path, e))?;
        Ok(Self {
            path: path.to_path_buf(),
            writer: Mutex::new(BufWriter::new(file)),
            fsync,
        })
    }

    /// Appends one record line and flushes (plus fsyncs, when enabled), so the line
    /// survives a subsequent crash.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] on I/O failure.
    pub fn append_line(&self, line: &str) -> Result<(), SinkError> {
        let mut writer = self.writer.lock().expect("sink writer poisoned");
        writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .and_then(|()| {
                if self.fsync {
                    writer.get_ref().sync_data()
                } else {
                    Ok(())
                }
            })
            .map_err(|e| io_error(&self.path, e))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::job::CampaignSpec;
    use crate::record::{JobOutcome, JobRecord};
    use crate::sca::{ScaCampaignSpec, ScaJobOutcome, ScaJobRecord};
    use tsc3d::Setup;
    use tsc3d_netlist::suite::Benchmark;
    use tsc3d_sca::Mitigation;

    /// A kind under test: a small spec and one typed failure record per job id.
    pub(crate) trait Fixture: JobKind {
        fn spec() -> Self;
        fn record(job_id: u64) -> Self::Record;
    }

    impl Fixture for CampaignSpec {
        fn spec() -> Self {
            CampaignSpec::new(vec![Benchmark::N100], vec![1, 2])
        }

        fn record(job_id: u64) -> JobRecord {
            JobRecord {
                job_id,
                benchmark: Benchmark::N100,
                setup: Setup::PowerAware,
                override_name: "base".into(),
                seed: job_id * 3,
                outcome: JobOutcome::Failure {
                    kind: "solve".into(),
                    message: "test".into(),
                },
            }
        }
    }

    impl Fixture for ScaCampaignSpec {
        fn spec() -> Self {
            ScaCampaignSpec::smoke()
        }

        fn record(job_id: u64) -> ScaJobRecord {
            ScaJobRecord {
                job_id,
                benchmark: Benchmark::N100,
                seed: 5,
                key_seed: 11,
                sensor_name: "sigma-0.5".into(),
                mitigation: Mitigation::Baseline,
                outcome: ScaJobOutcome::Failure {
                    kind: "flow-solve".into(),
                    message: "test".into(),
                },
            }
        }
    }

    pub(crate) fn temp_path<K: JobKind>(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tsc3d-campaign-sink-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{name}-{}-{}.jsonl",
            K::HEADER_KEY,
            std::process::id()
        ))
    }

    /// A fresh results file of kind `K` holding the records of the given job ids.
    pub(crate) fn results_file<K: Fixture>(name: &str, ids: &[u64]) -> PathBuf {
        let path = temp_path::<K>(name);
        let _ = std::fs::remove_file(&path);
        let sink = ResultSink::create(&path, &K::spec(), Shard::full(), false).unwrap();
        for &id in ids {
            sink.append_line(&K::record_to_line(&K::record(id)))
                .unwrap();
        }
        path
    }

    fn create_append_and_read_back_for<K: Fixture>() {
        let path = results_file::<K>("roundtrip", &[0, 1]);
        // Reopen in append mode, as resume does.
        let sink = ResultSink::append_to(&path, false).unwrap();
        sink.append_line(&K::record_to_line(&K::record(2))).unwrap();
        drop(sink);

        let file = read_results_file::<K>(&path).unwrap();
        assert_eq!(file.spec, Some(K::spec()));
        assert_eq!(file.shard, Some(Shard::full()));
        assert_eq!(file.records.len(), 3);
        assert_eq!(file.records[2], K::record(2));
        assert!(!file.truncated_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_append_and_read_back() {
        create_append_and_read_back_for::<CampaignSpec>();
        create_append_and_read_back_for::<ScaCampaignSpec>();
    }

    fn truncated_final_line_is_tolerated_for<K: Fixture>() {
        let path = results_file::<K>("truncated", &[0]);
        // Simulate a kill mid-write: a partial JSON line with no newline.
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"job_id\":1,\"bench");
        std::fs::write(&path, &content).unwrap();

        let file = read_results_file::<K>(&path).unwrap();
        assert_eq!(file.records.len(), 1);
        assert!(file.truncated_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        truncated_final_line_is_tolerated_for::<CampaignSpec>();
        truncated_final_line_is_tolerated_for::<ScaCampaignSpec>();
    }

    /// A complete (newline-terminated) line that fails to parse is corruption, not a
    /// kill artifact: repair_torn_tail cannot remove it, so tolerating it would let a
    /// resume append past it and wedge the file.
    fn corrupt_final_line_is_an_error_for<K: Fixture>() {
        let path = results_file::<K>("corrupt-final", &[0]);
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"job_id\":1,\"bench}\n");
        std::fs::write(&path, &content).unwrap();

        let err = read_results_file::<K>(&path).unwrap_err();
        assert!(matches!(err, SinkError::Corrupt { line: 3, .. }), "{err}");
        assert!(!repair_torn_tail(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn newline_terminated_corrupt_final_line_is_an_error_not_a_tail() {
        corrupt_final_line_is_an_error_for::<CampaignSpec>();
        corrupt_final_line_is_an_error_for::<ScaCampaignSpec>();
    }

    fn torn_tail_repair_enables_clean_appends_for<K: Fixture>() {
        let path = results_file::<K>("repair", &[0]);
        let intact = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{intact}{{\"job_id\":1,\"ben")).unwrap();

        assert!(repair_torn_tail(&path).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), intact);
        // Appending now lands on a fresh line.
        let sink = ResultSink::append_to(&path, false).unwrap();
        sink.append_line(&K::record_to_line(&K::record(1))).unwrap();
        drop(sink);
        let file = read_results_file::<K>(&path).unwrap();
        assert_eq!(file.records.len(), 2);
        assert!(!file.truncated_tail);
        // A clean file is left untouched.
        assert!(!repair_torn_tail(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_repair_enables_clean_appends() {
        torn_tail_repair_enables_clean_appends_for::<CampaignSpec>();
        torn_tail_repair_enables_clean_appends_for::<ScaCampaignSpec>();
    }

    fn interior_corruption_is_an_error_for<K: Fixture>() {
        let path = results_file::<K>("corrupt", &[0]);
        let mut content = std::fs::read_to_string(&path).unwrap();
        content = content.replacen("\"job_id\":0", "\"job_id\":oops", 1);
        content.push_str(&K::record_to_line(&K::record(1)));
        content.push('\n');
        std::fs::write(&path, &content).unwrap();

        let err = read_results_file::<K>(&path).unwrap_err();
        assert!(matches!(err, SinkError::Corrupt { line: 2, .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_is_an_error() {
        interior_corruption_is_an_error_for::<CampaignSpec>();
        interior_corruption_is_an_error_for::<ScaCampaignSpec>();
    }

    #[test]
    fn missing_file_reports_io_error() {
        let err = read_results_file::<CampaignSpec>(Path::new("/nonexistent/campaign.jsonl"))
            .unwrap_err();
        assert!(matches!(err, SinkError::Io { .. }));
        assert!(std::error::Error::source(&err).is_some());
    }
}
