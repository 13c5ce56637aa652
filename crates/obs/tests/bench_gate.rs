//! `obs bench-diff --gate` exit codes: a regression fails the gate (1), and a threshold
//! under which no comparison could flag one is refused like an unparseable one (2).

use std::process::Command;

/// Two entries whose throughput drops 30%.
const DROP: &str = r#"{"schema":"tsc3d-bench-flow/v1","entries":[
  {"label":"a","sa":[{"benchmark":"N100","seed":3,"evals_per_sec":1000.0}]},
  {"label":"b","sa":[{"benchmark":"N100","seed":3,"evals_per_sec":700.0}]}
]}"#;

#[test]
fn a_gate_under_a_non_finite_or_negative_threshold_is_refused() {
    let path = std::env::temp_dir().join(format!("tsc3d-bench-gate-{}.json", std::process::id()));
    std::fs::write(&path, DROP).expect("sample written");
    let gate = |threshold: &str| {
        Command::new(env!("CARGO_BIN_EXE_obs"))
            .arg("bench-diff")
            .arg(&path)
            .args(["--gate", "--threshold", threshold])
            .output()
            .expect("obs runs")
            .status
            .code()
    };
    assert_eq!(gate("25"), Some(1), "a 30% drop fails a 25% gate");
    assert_eq!(gate("50"), Some(0));
    for threshold in ["nan", "inf", "infinity", "-5", "x"] {
        assert_eq!(gate(threshold), Some(2), "--threshold {threshold}");
    }
    std::fs::remove_file(&path).expect("sample removed");
}
