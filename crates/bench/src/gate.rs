//! Shared plumbing for the tier-1 perf gates (`e2e_gate` and
//! `sched_bench --check`): one reader for a committed baseline number,
//! one floor and one exit helper, so every gate reports and exits the
//! same way — 0 on a pass, 1 on a failed check, 2 when the committed
//! baseline is unreadable.

use std::path::Path;

/// Fraction of a committed throughput baseline a gate still accepts.
/// Loose on purpose: shared hosts drift 10–30 % for minutes at a time,
/// so the gates catch a collapse (a lost fast path, an accidental
/// quadratic), not a few percent. Gates bounding a speedup
/// ratio rather than a baseline fraction keep their own floor.
pub const CHECK_FLOOR: f64 = 0.25;

/// Why a gate did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// The committed baseline is missing, unparsable or lacks the key
    /// (exit code 2).
    Baseline(String),
    /// A measurement missed its floor or an identity check failed
    /// (exit code 1).
    Failed(String),
}

impl GateError {
    /// The process exit code of this verdict.
    pub fn code(&self) -> i32 {
        match self {
            GateError::Failed(_) => 1,
            GateError::Baseline(_) => 2,
        }
    }
}

/// The value at the nested `key` path of `root`, if every step is an
/// object holding the next key.
pub fn lookup<'a>(root: &'a serde::Value, key: &[&str]) -> Option<&'a serde::Value> {
    key.iter().try_fold(root, |value, part| {
        value.as_map().and_then(|m| serde::map_get(m, part).ok())
    })
}

/// Reads the number at the nested `key` path (`&["workloads",
/// "grid_dense", "node_samples_per_s"]`) from a committed results JSON.
/// Gates call this *before* measuring, so a failing run can never judge
/// itself against numbers it produced.
pub fn committed_f64(path: impl AsRef<Path>, key: &[&str]) -> Result<f64, GateError> {
    let path = path.as_ref();
    let json = std::fs::read_to_string(path)
        .map_err(|e| GateError::Baseline(format!("cannot read {}: {e}", path.display())))?;
    let root: serde::Value = serde_json::from_str(&json)
        .map_err(|e| GateError::Baseline(format!("cannot parse {}: {e}", path.display())))?;
    lookup(&root, key)
        .and_then(serde::Value::as_f64)
        .ok_or_else(|| GateError::Baseline(format!("{} has no {}", path.display(), key.join("."))))
}

/// Prints the verdict of the gate named `gate` and exits with its
/// code. A pass carries an optional note for the `OK` line.
pub fn exit(gate: &str, verdict: Result<Option<String>, GateError>) -> ! {
    match &verdict {
        Ok(None) => println!("{gate}: OK"),
        Ok(Some(note)) => println!("{gate}: OK ({note})"),
        Err(GateError::Failed(why)) => eprintln!("{gate}: FAIL — {why}"),
        Err(GateError::Baseline(why)) => eprintln!("{gate}: {why}"),
    }
    std::process::exit(verdict.err().map_or(0, |e| e.code()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(name: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name)
    }

    #[test]
    fn missing_file_is_a_baseline_error() {
        let err = committed_f64(committed("results/NO_SUCH_BENCH.json"), &["speedup"]);
        assert!(matches!(err, Err(GateError::Baseline(ref why)) if why.contains("cannot read")));
        assert_eq!(err.unwrap_err().code(), 2);
    }

    #[test]
    fn missing_key_is_a_baseline_error() {
        let baseline = committed("e2e_bench/results/baseline-seed1.json");
        let err = committed_f64(&baseline, &["workloads", "no_such_key"]);
        assert!(
            matches!(err, Err(GateError::Baseline(ref why)) if why.contains("workloads.no_such_key")),
            "{err:?}"
        );
        // A path through a non-object is missing too, not a panic.
        let err = committed_f64(
            committed("results/BENCH_sched.json"),
            &["speedup", "deeper"],
        );
        assert!(matches!(err, Err(GateError::Baseline(_))), "{err:?}");
    }

    #[test]
    fn nested_and_top_level_keys_resolve() {
        let nested = committed_f64(
            committed("e2e_bench/results/baseline-seed1.json"),
            &["workloads", "grid_dense", "node_samples_per_s"],
        )
        .expect("committed e2e baseline");
        assert!(nested.is_finite() && nested > 0.0);
        let top = committed_f64(committed("results/BENCH_sched.json"), &["speedup"])
            .expect("committed sched baseline");
        assert!(top.is_finite() && top > 0.0);
    }
}
