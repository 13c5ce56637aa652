//! What the benchmark reads about its own process and host: the provenance stamp, peak
//! resident memory, and the program's global work counters.

use crate::json::Json;
use std::path::Path;

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The global counters the benchmark reads, by their registry names.
pub const COUNTERS: [&str; 7] = [
    "tsc3d_flow_evaluations_total",
    "tsc3d_thermal_solves_total",
    "tsc3d_thermal_sweeps_total",
    "tsc3d_sca_attacks_total",
    "tsc3d_sca_traces_total",
    "tsc3d_sca_transient_steps_total",
    "tsc3d_sca_cpa_checkpoints_total",
];

/// A snapshot of [`COUNTERS`] from the program's global metrics registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters([u64; COUNTERS.len()]);

impl Counters {
    /// Reads the counters from the registry's Prometheus rendering, so the benchmark
    /// never registers a family itself (a counter the program has not touched yet
    /// reads 0).
    pub fn now() -> Counters {
        let text = tsc3d_obs::global().render();
        Counters(COUNTERS.map(|name| {
            text.lines()
                .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
                .and_then(|value| value.trim().parse::<f64>().ok())
                .map_or(0, |v| v as u64)
        }))
    }

    /// Counts accrued since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        let mut delta = self.0;
        for (d, e) in delta.iter_mut().zip(earlier.0) {
            *d -= e;
        }
        Counters(delta)
    }

    pub fn get(&self, name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|c| *c == name)
            .map_or(0, |i| self.0[i])
    }

    pub fn evaluations(&self) -> u64 {
        self.get("tsc3d_flow_evaluations_total")
    }
    pub fn solves(&self) -> u64 {
        self.get("tsc3d_thermal_solves_total")
    }
    pub fn sweeps(&self) -> u64 {
        self.get("tsc3d_thermal_sweeps_total")
    }
    pub fn traces(&self) -> u64 {
        self.get("tsc3d_sca_traces_total")
    }
    pub fn transient_steps(&self) -> u64 {
        self.get("tsc3d_sca_transient_steps_total")
    }
    pub fn cpa_checkpoints(&self) -> u64 {
        self.get("tsc3d_sca_cpa_checkpoints_total")
    }
}

/// The provenance stamp written into every result: which code, built how, on which host,
/// driven with which seed and how many threads and connections.
pub fn provenance(seed: u64, threads: &[(&'static str, usize)]) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("git_rev", Json::str(git_rev())),
        ("source_digest", Json::str(source_digest(Path::new(".")))),
        ("cpu_model", Json::str(cpu)),
        ("nproc", Json::Num(nproc as f64)),
        ("target_features", Json::str(target_features())),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(seed as f64)),
        (
            "threads",
            Json::obj(threads.iter().map(|(k, v)| (*k, Json::Num(*v as f64)))),
        ),
    ])
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".into())
}

/// The SIMD features this binary was compiled for: `target-cpu=native` shows as the
/// host's full set, a portable build as the x86-64 baseline.
fn target_features() -> String {
    let features = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = features
        .iter()
        .filter(|(_, enabled)| *enabled)
        .map(|(name, _)| *name)
        .collect();
    if on.is_empty() {
        "baseline".into()
    } else {
        on.join(",")
    }
}

/// FNV-1a digest over the program's sources and build settings (`crates/`, `vendor/`,
/// the workspace manifests and the cargo config), in sorted path order. It identifies
/// "the same code" where no git metadata is available.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "vendor"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut hash = Fnv::new();
    for path in &files {
        if let Ok(bytes) = std::fs::read(path) {
            hash.write(
                path.strip_prefix(root)
                    .unwrap_or(path)
                    .to_string_lossy()
                    .as_bytes(),
            );
            hash.write(&bytes);
        }
    }
    format!("{:016x}", hash.0)
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let child = entry.path();
            if child.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&child, out);
        }
    }
}

/// 64-bit FNV-1a, used for the source digest and for expected-output fingerprints.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn hex(bytes: &[u8]) -> String {
        let mut hash = Fnv::new();
        hash.write(bytes);
        format!("{:016x}", hash.0)
    }
}
