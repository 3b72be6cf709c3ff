//! Command-line boundary tests for the `sid-sim` binary: bad input is
//! rejected with an error message and a non-zero exit, never a panic.

use std::process::Command;

#[test]
fn sid_sim_rejects_non_finite_ship_fields() {
    let specs = [
        "NaN:0:90",
        "10:NaN:90",
        "10:0:inf",
        "inf:0:90",
        "10:-inf:90",
    ];
    for spec in specs {
        let out = Command::new(env!("CARGO_BIN_EXE_sid-sim"))
            .args(["--rows", "2", "--cols", "2", "--duration", "1"])
            .args(["--ship", spec])
            .output()
            .expect("sid-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--ship {spec} was accepted");
        assert!(stderr.contains("--ship"), "--ship {spec}: {stderr}");
        assert!(!stderr.contains("panicked"), "--ship {spec}: {stderr}");
    }
}
