//! Validated detection hot reloads.
//!
//! A [`DetectionRetune`] is a partial overlay over the live detection
//! configuration: each knob is optional, unset knobs keep their current
//! value. Reloads are *validated against the merged result* before
//! anything is touched and applied atomically at a tick boundary — a
//! rejected reload leaves the pipeline running on its old configuration
//! with a journaled rejection, never a panic (DESIGN.md §13).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cluster_detect::ClusterHeadConfig;
use crate::config::{ConfigError, DetectorConfig};
use crate::sink::TrackerConfig;

/// A partial detection-config overlay, hot-reloadable at runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectionRetune {
    /// New anomaly-frequency decision threshold, `(0, 1]`.
    pub af_threshold: Option<f64>,
    /// New threshold multiplier M, positive.
    pub m: Option<f64>,
    /// New cluster report quorum, at least 1.
    pub min_reports: Option<usize>,
    /// New sink merge window in seconds, positive.
    pub merge_window: Option<f64>,
    /// New sink close window in seconds, positive.
    pub close_after: Option<f64>,
}

/// Why a [`DetectionRetune`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetuneError {
    /// The merged detector config failed [`DetectorConfig::validate`].
    Detector(ConfigError),
    /// `min_reports` must be at least 1.
    ZeroQuorum,
    /// `merge_window` must be positive and finite.
    BadMergeWindow,
    /// `close_after` must be positive and finite.
    BadCloseAfter,
    /// A retune was scheduled at a NaN time.
    NanTime,
}

impl fmt::Display for RetuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Load-bearing strings: journaled rejections carry them and the
        // DST alert oracle reconstructs the journal from this impl.
        match self {
            RetuneError::Detector(err) => err.fmt(f),
            RetuneError::ZeroQuorum => f.write_str("min_reports must be at least 1"),
            RetuneError::BadMergeWindow => f.write_str("merge_window must be positive"),
            RetuneError::BadCloseAfter => f.write_str("close_after must be positive"),
            RetuneError::NanTime => f.write_str("retune time must not be NaN"),
        }
    }
}

impl std::error::Error for RetuneError {}

impl DetectionRetune {
    /// Whether the retune changes nothing.
    pub fn is_empty(&self) -> bool {
        *self == DetectionRetune::default()
    }

    /// Deterministic human-readable summary of the set knobs, used in
    /// `ConfigReloaded` journal events.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(v) = self.af_threshold {
            parts.push(format!("af_threshold={v}"));
        }
        if let Some(v) = self.m {
            parts.push(format!("m={v}"));
        }
        if let Some(v) = self.min_reports {
            parts.push(format!("min_reports={v}"));
        }
        if let Some(v) = self.merge_window {
            parts.push(format!("merge_window={v}"));
        }
        if let Some(v) = self.close_after {
            parts.push(format!("close_after={v}"));
        }
        if parts.is_empty() {
            "no-op".to_string()
        } else {
            parts.join(" ")
        }
    }

    /// Merges the overlay into the current configs and validates the
    /// result, without touching anything live.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure; the caller journals it and
    /// keeps running on the old configuration.
    pub fn validated(
        &self,
        detector: &DetectorConfig,
        cluster: &ClusterHeadConfig,
        tracker: &TrackerConfig,
    ) -> Result<(DetectorConfig, ClusterHeadConfig, TrackerConfig), RetuneError> {
        let mut det = *detector;
        if let Some(af) = self.af_threshold {
            det.af_threshold = af;
        }
        if let Some(m) = self.m {
            det.m = m;
        }
        det.validate().map_err(RetuneError::Detector)?;
        let mut clu = *cluster;
        if let Some(q) = self.min_reports {
            if q == 0 {
                return Err(RetuneError::ZeroQuorum);
            }
            clu.min_reports = q;
        }
        let mut tra = *tracker;
        if let Some(w) = self.merge_window {
            if !w.is_finite() || w <= 0.0 {
                return Err(RetuneError::BadMergeWindow);
            }
            tra.merge_window = w;
        }
        if let Some(w) = self.close_after {
            if !w.is_finite() || w <= 0.0 {
                return Err(RetuneError::BadCloseAfter);
            }
            tra.close_after = w;
        }
        Ok((det, clu, tra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> (DetectorConfig, ClusterHeadConfig, TrackerConfig) {
        (
            DetectorConfig::paper_default(),
            ClusterHeadConfig::default(),
            TrackerConfig::default(),
        )
    }

    #[test]
    fn empty_retune_is_a_validated_noop() {
        let (d, c, t) = nominal();
        let r = DetectionRetune::default();
        assert!(r.is_empty());
        assert_eq!(r.describe(), "no-op");
        let (d2, c2, t2) = r.validated(&d, &c, &t).expect("no-op validates");
        assert_eq!(d2, d);
        assert_eq!(c2.min_reports, c.min_reports);
        assert_eq!(t2, t);
    }

    #[test]
    fn overlay_merges_only_the_set_knobs() {
        let (d, c, t) = nominal();
        let r = DetectionRetune {
            af_threshold: Some(0.7),
            m: Some(2.25),
            ..DetectionRetune::default()
        };
        assert_eq!(r.describe(), "af_threshold=0.7 m=2.25");
        let (d2, c2, t2) = r.validated(&d, &c, &t).expect("valid tightening");
        assert_eq!(d2.af_threshold, 0.7);
        assert_eq!(d2.m, 2.25);
        assert_eq!(d2.sample_rate, d.sample_rate);
        assert_eq!(c2.min_reports, c.min_reports);
        assert_eq!(t2, t);
    }

    #[test]
    fn out_of_domain_overlay_is_rejected_with_the_detector_error() {
        let (d, c, t) = nominal();
        let r = DetectionRetune {
            af_threshold: Some(1.5),
            ..DetectionRetune::default()
        };
        let err = r.validated(&d, &c, &t).expect_err("af=1.5 is invalid");
        assert_eq!(err, RetuneError::Detector(ConfigError::AfThresholdOutOfRange));
        assert_eq!(err.to_string(), "af_threshold must lie in (0, 1]");
    }

    #[test]
    fn quorum_and_window_overlays_are_validated() {
        let (d, c, t) = nominal();
        let zero_quorum = DetectionRetune {
            min_reports: Some(0),
            ..DetectionRetune::default()
        };
        assert_eq!(
            zero_quorum.validated(&d, &c, &t).expect_err("quorum 0"),
            RetuneError::ZeroQuorum
        );
        let bad_window = DetectionRetune {
            merge_window: Some(f64::NAN),
            ..DetectionRetune::default()
        };
        assert_eq!(
            bad_window.validated(&d, &c, &t).expect_err("NaN window"),
            RetuneError::BadMergeWindow
        );
        let ok = DetectionRetune {
            min_reports: Some(5),
            close_after: Some(120.0),
            ..DetectionRetune::default()
        };
        let (_, c2, t2) = ok.validated(&d, &c, &t).expect("valid");
        assert_eq!(c2.min_reports, 5);
        assert_eq!(t2.close_after, 120.0);
        assert_eq!(t2.merge_window, t.merge_window);
    }

    #[test]
    fn rejection_leaves_no_partial_merge_visible() {
        // A retune that is half-valid (good quorum, bad window) must
        // fail as a whole — validated() returns Err and the caller keeps
        // every old config.
        let (d, c, t) = nominal();
        let r = DetectionRetune {
            min_reports: Some(9),
            close_after: Some(-3.0),
            ..DetectionRetune::default()
        };
        assert_eq!(
            r.validated(&d, &c, &t).expect_err("bad close_after"),
            RetuneError::BadCloseAfter
        );
    }
}
