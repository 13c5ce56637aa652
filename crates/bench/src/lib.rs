//! Experiment harness for the DAC'17 reproduction.
//!
//! The crate hosts:
//!
//! * one **binary per table/figure** of the paper's evaluation (`table1`, `figure1`,
//!   `figure2`, `figure4`, `table2` — the latter also produces the data behind Figure 5),
//!   each printing the same row/series structure the paper reports and writing CSV under
//!   `target/experiments/`, and
//! * the **`bench` throughput harness** of the hot loops (annealing, packing, steady
//!   solve, transient stepping, sca traces), appending entries to `BENCH_flow.json`.
//!
//! See the root `README.md` for how to run the experiment binaries and the harness.

#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Directory (under `target/`) where experiment binaries drop their CSV output.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes CSV rows (the first row being the header) to `target/experiments/<name>.csv` and
/// returns the path. I/O failures are reported but never abort an experiment.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = experiments_dir().join(format!("{name}.csv"));
    match fs::File::create(&path) {
        Ok(mut file) => {
            let _ = writeln!(file, "{header}");
            for row in rows {
                let _ = writeln!(file, "{row}");
            }
        }
        Err(err) => tsc3d_obs::log_warn!("bench", "could not write {}: {err}", path.display()),
    }
    path
}

/// Parses a `--flag value` style argument from the process arguments.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses a numeric `--flag value` argument with a default.
pub fn arg_usize(flag: &str, default: usize) -> usize {
    arg_value(flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Returns `true` when `--flag` is present.
pub fn arg_present(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Renders a [`tsc3d_geometry::GridMap`] as a coarse ASCII heat map (for terminal output of
/// the Figure 2 / Figure 4 style maps).
pub fn ascii_map(map: &tsc3d_geometry::GridMap, width: usize) -> String {
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let grid = map.grid();
    let min = map.min();
    let span = (map.max() - min).max(1e-12);
    let cols = width.min(grid.cols()).max(1);
    let rows = (cols * grid.rows() / grid.cols()).max(1);
    let mut out = String::new();
    for r in (0..rows).rev() {
        for c in 0..cols {
            let pos = tsc3d_geometry::GridPos::new(c * grid.cols() / cols, r * grid.rows() / rows);
            let level = ((map.get(pos) - min) / span * (shades.len() - 1) as f64).round() as usize;
            out.push(shades[level.min(shades.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_geometry::{Grid, GridMap, Rect};

    #[test]
    fn csv_files_are_written() {
        let path = write_csv("unit_test", "a,b", &["1,2".into(), "3,4".into()]);
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("3,4"));
    }

    #[test]
    fn ascii_map_has_expected_shape() {
        let grid = Grid::square(Rect::from_size(10.0, 10.0), 8);
        let mut map = GridMap::zeros(grid);
        map.splat_power(&Rect::new(0.0, 0.0, 5.0, 5.0), 1.0);
        let art = ascii_map(&map, 8);
        assert_eq!(art.lines().count(), 8);
        assert!(art.contains('@'));
    }

    #[test]
    fn arg_helpers_have_defaults() {
        assert_eq!(arg_usize("--definitely-not-passed", 7), 7);
        assert!(!arg_present("--definitely-not-passed"));
        assert!(arg_value("--definitely-not-passed").is_none());
    }
}
