//! Live campaign progress: job lifecycle events plus an EWMA-based ETA.
//!
//! [`EtaTracker`] turns per-job completions into [`tsc3d_obs::EventKind::Eta`]
//! snapshots on the event bus: it keeps an exponentially weighted moving average of
//! job wall time and projects the remaining runtime from it, divided across the
//! worker count. [`run_job_instrumented`] is the wrapper the campaign engine runs every
//! job of every kind in, to scope a job's events to its id and bracket it with
//! `Job Started`/`Finished`/`Failed` records.
//!
//! All emission goes through [`tsc3d_obs::emit`], so when events are disabled the
//! cost is one relaxed atomic load per call and the tracker's mutex is never taken.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// EWMA smoothing factor: each new job duration contributes 20%, which settles
/// within ~10 jobs while still absorbing the occasional outlier.
const EWMA_ALPHA: f64 = 0.2;

/// Tracks campaign completion and emits [`tsc3d_obs::EventKind::Eta`] events.
///
/// Shared across pool workers behind an `Arc`; the interior mutex is only taken
/// when events are enabled and a job actually finished, so it is never contended
/// on the hot path.
pub struct EtaTracker {
    total: u64,
    workers: u64,
    state: Mutex<EtaState>,
}

struct EtaState {
    done: u64,
    ewma_ns: f64,
}

impl EtaTracker {
    /// A tracker for a campaign of `total` pending jobs running on `workers`
    /// parallel workers (clamped to at least one).
    pub fn new(total: usize, workers: usize) -> EtaTracker {
        EtaTracker {
            total: total as u64,
            workers: workers.max(1) as u64,
            state: Mutex::new(EtaState {
                done: 0,
                ewma_ns: 0.0,
            }),
        }
    }

    /// Records one finished job and emits an `Eta` event for the campaign.
    ///
    /// The ETA is `remaining × ewma / workers`: a perfect-packing estimate that
    /// ignores tail effects, which is fine for a live progress line.
    pub fn job_finished(&self, wall: std::time::Duration) {
        if !tsc3d_obs::events_enabled() {
            return;
        }
        let sample = wall.as_nanos() as f64;
        let (done, ewma_ns) = {
            let mut state = self.state.lock().expect("eta tracker state");
            state.ewma_ns = if state.done == 0 {
                sample
            } else {
                EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * state.ewma_ns
            };
            state.done += 1;
            (state.done, state.ewma_ns)
        };
        let remaining = self.total.saturating_sub(done);
        let eta_ns = (remaining as f64 * ewma_ns / self.workers as f64) as u64;
        let total = self.total;
        tsc3d_obs::emit(|| tsc3d_obs::EventKind::Eta {
            done,
            total,
            ewma_ns: ewma_ns as u64,
            eta_ns,
        });
    }
}

/// Runs one campaign job under a [`tsc3d_obs::JobScope`] with lifecycle events.
///
/// Event job ids are `job_id + 1` because the bus reserves 0 for "no job"; the
/// campaign's own ids start at 0. `label` names the job in the `Job` events,
/// `failed` inspects the produced record, and `eta` gets the job's wall time.
pub fn run_job_instrumented<R>(
    job_id: u64,
    label: &str,
    eta: &EtaTracker,
    execute: impl FnOnce() -> R,
    failed: impl Fn(&R) -> bool,
) -> R {
    let _scope = tsc3d_obs::JobScope::enter(job_id + 1);
    tsc3d_obs::emit(|| tsc3d_obs::EventKind::Job {
        state: tsc3d_obs::JobState::Started,
        label: label.to_string(),
    });
    let started = Instant::now();
    let record = execute();
    let state = if failed(&record) {
        tsc3d_obs::JobState::Failed
    } else {
        tsc3d_obs::JobState::Finished
    };
    tsc3d_obs::emit(|| tsc3d_obs::EventKind::Job {
        state,
        label: label.to_string(),
    });
    eta.job_finished(started.elapsed());
    record
}

// --- Live monitor (the CLI's `--progress` / `--events-out` consumer) ----------------

/// How often the monitor thread polls the event ring while idle.
const MONITOR_POLL: std::time::Duration = std::time::Duration::from_millis(100);

/// A background consumer of the event bus for one CLI invocation: renders a
/// live single-line progress display on **stderr** (`--progress`) and/or
/// appends every event as a JSONL line to a file (`--events-out`).
///
/// Stdout is never touched — reports and records keep their byte-identical
/// contract — and the monitor only ever *reads* the bus, so enabling it cannot
/// perturb seeded results. Call [`EventMonitor::finish`] after the campaign
/// returns to drain the remaining events and join the thread (dropping the
/// monitor does the same).
pub struct EventMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl EventMonitor {
    /// Enables event emission and spawns the monitor thread. `progress`
    /// selects the stderr line, `events_out` the JSONL sink; either may be off.
    pub fn start(progress: bool, events_out: Option<PathBuf>) -> EventMonitor {
        Self::start_with(progress, events_out, false)
    }

    /// [`EventMonitor::start`] with optional crash durability: when `fsync` is set,
    /// every poll batch written to the events file is synced to disk.
    pub fn start_with(progress: bool, events_out: Option<PathBuf>, fsync: bool) -> EventMonitor {
        tsc3d_obs::set_events(true);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle =
            std::thread::spawn(move || monitor_loop(progress, events_out, fsync, &thread_stop));
        EventMonitor {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the monitor to drain whatever is left on the bus and joins it.
    pub fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for EventMonitor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn monitor_loop(progress: bool, events_out: Option<PathBuf>, fsync: bool, stop: &AtomicBool) {
    // From 0, not `subscribe()`: emission was just enabled, so sequence 0 is
    // the first event of this run and nothing historical can precede it.
    let mut subscriber = tsc3d_obs::subscribe_from(0);
    let mut sink = events_out.as_deref().and_then(|path| {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        match std::fs::File::create(path) {
            Ok(file) => Some(std::io::BufWriter::new(file)),
            Err(e) => {
                tsc3d_obs::log_warn!(
                    "campaign",
                    "could not create events file {}: {e}",
                    path.display()
                );
                None
            }
        }
    });
    let mut line = ProgressLine::default();
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        let poll = subscriber.poll(1024);
        for event in &poll.events {
            if let Some(sink) = sink.as_mut() {
                let _ = writeln!(sink, "{}", event.to_json());
            }
            if progress {
                line.observe(event);
            }
        }
        if !poll.events.is_empty() {
            if fsync {
                if let Some(sink) = sink.as_mut() {
                    let _ = sink.flush().and_then(|()| sink.get_ref().sync_data());
                }
            }
            if progress {
                line.render();
            }
        }
        if poll.events.is_empty() {
            if stopping {
                break;
            }
            std::thread::sleep(MONITOR_POLL);
        }
    }
    if let Some(mut sink) = sink {
        let _ = sink.flush();
    }
    if progress && line.rendered {
        eprintln!();
    }
    let dropped = tsc3d_obs::dropped_events();
    if dropped > 0 {
        tsc3d_obs::log_warn!(
            "campaign",
            "{dropped} event(s) aged out of the flight recorder before the monitor read them"
        );
    }
}

/// The state behind the one-line stderr display: the latest campaign ETA plus
/// the most recent in-phase progress fraction.
#[derive(Default)]
struct ProgressLine {
    jobs_done: u64,
    jobs_total: u64,
    eta_ns: u64,
    phase: Option<(&'static str, u64, u64)>,
    rendered: bool,
}

impl ProgressLine {
    fn observe(&mut self, event: &tsc3d_obs::Event) {
        match &event.kind {
            tsc3d_obs::EventKind::Eta {
                done,
                total,
                eta_ns,
                ..
            } => {
                self.jobs_done = *done;
                self.jobs_total = *total;
                self.eta_ns = *eta_ns;
            }
            tsc3d_obs::EventKind::Progress { phase, done, total } => {
                self.phase = Some((phase, *done, *total));
            }
            _ => {}
        }
    }

    fn render(&mut self) {
        let mut text = String::with_capacity(96);
        if self.jobs_total > 0 {
            let _ = std::fmt::Write::write_fmt(
                &mut text,
                format_args!("jobs {}/{}", self.jobs_done, self.jobs_total),
            );
        } else {
            text.push_str("jobs …");
        }
        if self.jobs_done > 0 && self.jobs_done < self.jobs_total {
            let _ = std::fmt::Write::write_fmt(
                &mut text,
                format_args!(" eta {}", render_duration_ns(self.eta_ns)),
            );
        }
        if let Some((phase, done, total)) = self.phase {
            let _ =
                std::fmt::Write::write_fmt(&mut text, format_args!(" | {phase} {done}/{total}"));
        }
        // Carriage return + pad: one line that rewrites in place on a TTY and
        // stays grep-able junk-free when stderr is a file.
        eprint!("\r{text:<70}");
        let _ = std::io::stderr().flush();
        self.rendered = true;
    }
}

/// `1234567890` ns → `"1.2s"`, minutes past 90 s.
fn render_duration_ns(ns: u64) -> String {
    let seconds = ns as f64 / 1e9;
    if seconds >= 90.0 {
        // Whole seconds first, so a remainder that rounds up carries into the minutes.
        let whole = seconds.round() as u64;
        format!("{}m{:02}s", whole / 60, whole % 60)
    } else {
        format!("{seconds:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_tracker_counts_without_events() {
        // With events disabled the tracker is a no-op and must not panic.
        let tracker = EtaTracker::new(4, 2);
        tracker.job_finished(std::time::Duration::from_millis(5));
    }

    #[test]
    fn durations_render_in_both_ranges() {
        assert_eq!(render_duration_ns(1_500_000_000), "1.5s");
        assert_eq!(render_duration_ns(125_000_000_000), "2m05s");
        assert_eq!(render_duration_ns(119_600_000_000), "2m00s");
        assert_eq!(render_duration_ns(3_599_500_000_000), "60m00s");
    }
}
