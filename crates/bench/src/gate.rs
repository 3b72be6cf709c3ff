//! Shared plumbing for the benchmark binaries' `--check` regression
//! gates: one reader for a committed baseline number, one floor and one
//! exit helper, so every gate reports and exits the same way — 0 on a
//! pass, 1 on a failed check, 2 when the committed baseline is
//! unreadable.

use std::path::Path;

/// Fraction of a committed throughput baseline a `--check` gate still
/// accepts. Loose on purpose: shared hosts drift 10–30 % for minutes at
/// a time, so the gates catch a collapse (a lost fast path, an
/// accidental quadratic), not a few percent. Gates bounding a speedup
/// ratio rather than a baseline fraction keep their own floor.
pub const CHECK_FLOOR: f64 = 0.25;

/// Why a `--check` gate did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// The committed baseline is missing, unparsable or lacks the key
    /// (exit code 2).
    Baseline(String),
    /// A measurement missed its floor or an identity check failed
    /// (exit code 1).
    Failed(String),
}

/// Reads the number at the nested `key` path (`&["engine",
/// "samples_per_sec"]`) from a committed results JSON. Gates call this
/// *before* measuring, so a failing run can never judge itself against
/// numbers it produced.
pub fn committed_f64(path: impl AsRef<Path>, key: &[&str]) -> Result<f64, GateError> {
    let path = path.as_ref();
    let json = std::fs::read_to_string(path)
        .map_err(|e| GateError::Baseline(format!("cannot read {}: {e}", path.display())))?;
    let root: serde::Value = serde_json::from_str(&json)
        .map_err(|e| GateError::Baseline(format!("cannot parse {}: {e}", path.display())))?;
    key.iter()
        .try_fold(&root, |value, part| {
            value.as_map().and_then(|m| serde::map_get(m, part).ok())
        })
        .and_then(serde::Value::as_f64)
        .ok_or_else(|| GateError::Baseline(format!("{} has no {}", path.display(), key.join("."))))
}

/// Prints the gate verdict for `bin` and exits with its code. A pass
/// carries an optional note for the `OK` line.
pub fn exit(bin: &str, verdict: Result<Option<String>, GateError>) -> ! {
    let code = match verdict {
        Ok(None) => {
            println!("{bin} --check: OK");
            0
        }
        Ok(Some(note)) => {
            println!("{bin} --check: OK ({note})");
            0
        }
        Err(GateError::Failed(why)) => {
            eprintln!("{bin} --check: FAIL — {why}");
            1
        }
        Err(GateError::Baseline(why)) => {
            eprintln!("{bin} --check: {why}");
            2
        }
    };
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(name: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(name)
    }

    #[test]
    fn missing_file_is_a_baseline_error() {
        let err = committed_f64(committed("NO_SUCH_BENCH.json"), &["real_time_ratio"]);
        assert!(matches!(err, Err(GateError::Baseline(ref why)) if why.contains("cannot read")));
    }

    #[test]
    fn missing_key_is_a_baseline_error() {
        let err = committed_f64(committed("BENCH_stream.json"), &["engine", "no_such_key"]);
        assert!(
            matches!(err, Err(GateError::Baseline(ref why)) if why.contains("engine.no_such_key")),
            "{err:?}"
        );
        // A path through a non-object is missing too, not a panic.
        let err = committed_f64(
            committed("BENCH_fleet.json"),
            &["real_time_ratio", "deeper"],
        );
        assert!(matches!(err, Err(GateError::Baseline(_))), "{err:?}");
    }

    #[test]
    fn nested_and_top_level_keys_resolve() {
        let nested = committed_f64(
            committed("BENCH_stream.json"),
            &["engine", "samples_per_sec"],
        )
        .expect("committed stream baseline");
        assert!(nested.is_finite() && nested > 0.0);
        let top = committed_f64(committed("BENCH_serve.json"), &["real_time_ratio"])
            .expect("committed serve baseline");
        assert!(top.is_finite() && top > 0.0);
    }
}
