//! Temporary-cluster-head fusion logic (paper Section IV-C and the
//! SpaceTimeDataProcessing procedure).
//!
//! An alarming node becomes a temporary cluster head, collects member
//! reports for a window, and then decides: if the reports carry the
//! spatial–temporal correlation of a real passage (eq. 9–13), the
//! detection is confirmed and — when two usable column pairs exist — the
//! ship's speed is estimated (eq. 16); otherwise the cluster is cancelled
//! as a false alarm.

use serde::{Deserialize, Serialize};

use sid_net::NodeId;

use crate::correlation::{
    correlation_coefficient, CorrelationConfig, CorrelationResult, GridOrientation, GridReport,
};
use crate::report::{ClusterDetection, NodeReport};
use crate::speed::{estimate_speed, SpeedEstimate};

/// A node report annotated with its grid coordinates (the head knows every
/// member's position).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedReport {
    /// The report as received.
    pub report: NodeReport,
    /// Grid row of the reporting node.
    pub row: usize,
    /// Grid column of the reporting node.
    pub col: usize,
}

/// Cluster-head decision parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterHeadConfig {
    /// Correlation decision parameters (eq. 13 threshold, min rows).
    pub correlation: CorrelationConfig,
    /// Seconds the head collects reports before deciding (the paper's
    /// "certain period of time" / TimerTickOn).
    pub collection_window: f64,
    /// Minimum member reports (head's own included) to bother evaluating;
    /// below this the cluster is cancelled outright.
    pub min_reports: usize,
    /// Grid spacing D in metres, for the speed estimator.
    pub spacing: f64,
}

impl Default for ClusterHeadConfig {
    fn default() -> Self {
        ClusterHeadConfig {
            correlation: CorrelationConfig::default(),
            collection_window: 60.0,
            min_reports: 4,
            spacing: 25.0,
        }
    }
}

/// Outcome of a cluster-head evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterEvaluation {
    /// The correlation statistic over the collected reports.
    pub correlation: CorrelationResult,
    /// The confirmed detection, if the statistic cleared the bar.
    pub detection: Option<ClusterDetection>,
}

/// State a temporary cluster head keeps while collecting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterHead {
    head: NodeId,
    formed_at: f64,
    config: ClusterHeadConfig,
    reports: Vec<PlacedReport>,
}

impl ClusterHead {
    /// Opens a collection window at head-local time `now`.
    pub fn new(head: NodeId, now: f64, config: ClusterHeadConfig) -> Self {
        ClusterHead {
            head,
            formed_at: now,
            config,
            reports: Vec::new(),
        }
    }

    /// The head node.
    pub fn head(&self) -> NodeId {
        self.head
    }

    /// Formation time.
    pub fn formed_at(&self) -> f64 {
        self.formed_at
    }

    /// Reports collected so far.
    pub fn reports(&self) -> &[PlacedReport] {
        &self.reports
    }

    /// The report quorum this window evaluates against. Captured at
    /// formation time: a detection hot reload mid-window retunes future
    /// clusters, not ones already collecting.
    pub fn quorum(&self) -> usize {
        self.config.min_reports
    }

    /// Adds a member (or the head's own) report. Duplicate reports from
    /// the same node keep the most recent one — node detectors follow
    /// their preliminary alarm with a refined whole-episode report, and
    /// the refinement supersedes the early estimate.
    pub fn add_report(&mut self, placed: PlacedReport) {
        if let Some(existing) = self
            .reports
            .iter_mut()
            .find(|p| p.report.node == placed.report.node)
        {
            if placed.report.report_time >= existing.report.report_time {
                *existing = placed;
            }
        } else {
            self.reports.push(placed);
        }
    }

    /// Whether the collection window has closed at head-local `now`.
    pub fn is_expired(&self, now: f64) -> bool {
        now >= self.expires_at()
    }

    /// When the collection window closes: [`is_expired`](Self::is_expired)
    /// is true exactly for `now >= expires_at()`. Fixed at formation (a
    /// failover keeps the original `formed_at`, a mid-window retune only
    /// affects future clusters).
    pub fn expires_at(&self) -> f64 {
        self.formed_at + self.config.collection_window
    }

    /// Evaluates the collected reports (the SpaceTimeDataProcessing
    /// procedure). Returns the correlation statistic and, when it clears
    /// the configured bar, a [`ClusterDetection`] with the speed estimate
    /// attached when the geometry allows one.
    pub fn evaluate(&self, now: f64) -> ClusterEvaluation {
        let grid: Vec<GridReport> = self
            .reports
            .iter()
            .map(|p| GridReport {
                row: p.row,
                col: p.col,
                onset: p.report.onset_time,
                energy: p.report.energy,
            })
            .collect();
        let correlation = correlation_coefficient(&grid);
        let enough = self.reports.len() >= self.config.min_reports;
        let detection = (enough && correlation.is_detection(&self.config.correlation)).then(|| {
            let speed = estimate_speed_from_reports(
                &self.reports,
                self.config.spacing,
                correlation.orientation,
            );
            ClusterDetection {
                head: self.head,
                time: now,
                correlation: correlation.c,
                report_count: self.reports.len(),
                speed_knots: speed.map(|s| s.speed_knots().value()),
                track_angle_deg: speed.map(|s| s.alpha_deg),
            }
        });
        ClusterEvaluation {
            correlation,
            detection,
        }
    }
}

/// Picks the two best column pairs (Fig. 10's Si/Si′ and Sj/Sj′) from the
/// collected reports and runs eq. 16.
///
/// Pair selection follows the paper's evaluation rule — use the
/// highest-energy reports: for each column with reports in two adjacent
/// rows, form the highest-energy pair; the crossing column is the one with
/// the overall highest energy; take the best pair on each side of it (or
/// the two best distinct columns when the sides are empty). Returns `None`
/// when no two usable pairs exist or the estimator rejects the geometry.
pub fn estimate_speed_from_reports(
    reports: &[PlacedReport],
    spacing: f64,
    orientation: GridOrientation,
) -> Option<SpeedEstimate> {
    // The pair axis must be perpendicular to the grouping axis of the
    // correlated sweep: a ship crossing the rows (Rows orientation) is
    // timed by column pairs, one crossing the columns by row pairs. For
    // the latter we transpose and reuse the column-pair logic.
    let transposed: Vec<PlacedReport>;
    let reports = match orientation {
        GridOrientation::Rows => reports,
        GridOrientation::Columns => {
            transposed = reports
                .iter()
                .map(|p| PlacedReport {
                    report: p.report,
                    row: p.col,
                    col: p.row,
                })
                .collect();
            &transposed
        }
    };
    // Column pairs: adjacent-row reports in the same column, timed by the
    // amplitude-independent envelope-peak estimates.
    #[derive(Clone, Copy)]
    struct Pair {
        col: usize,
        t_low: f64,
        t_high: f64,
        energy: f64,
    }
    let mut pairs: Vec<Pair> = Vec::new();
    for a in reports {
        for b in reports {
            if a.col == b.col && b.row == a.row + 1 {
                pairs.push(Pair {
                    col: a.col,
                    t_low: a.report.peak_time,
                    t_high: b.report.peak_time,
                    energy: a.report.energy + b.report.energy,
                });
            }
        }
    }
    if pairs.len() < 2 {
        return None;
    }
    // Crossing column: the single highest-energy report.
    let crossing_col = reports
        .iter()
        .max_by(|a, b| a.report.energy.total_cmp(&b.report.energy))
        .map(|p| p.col)?;
    // Rank pairs per side by energy; evaluate eq. 16 over the top few
    // left×right combinations and keep the median speed. A single
    // combination can be geometrically near-degenerate (one pair's
    // interval approaches zero when the track runs near 70° to the pair
    // axis); the median over combinations shrugs the outliers off.
    let side_pairs = |side: &dyn Fn(usize) -> bool| -> Vec<Pair> {
        let mut v: Vec<Pair> = pairs.iter().filter(|p| side(p.col)).copied().collect();
        v.sort_by(|a, b| b.energy.total_cmp(&a.energy));
        v.truncate(3);
        v
    };
    let mut left = side_pairs(&|c| c < crossing_col);
    let mut right = side_pairs(&|c| c > crossing_col);
    if left.is_empty() || right.is_empty() {
        // Fall back to the two best distinct columns.
        let mut sorted = pairs.clone();
        sorted.sort_by(|a, b| b.energy.total_cmp(&a.energy));
        let first = sorted[0];
        let second = *sorted.iter().find(|p| p.col != first.col)?;
        left = vec![first];
        right = vec![second];
    }
    let mut candidates: Vec<SpeedEstimate> = Vec::new();
    for p1 in &left {
        for p2 in &right {
            if p1.col == p2.col {
                continue;
            }
            // Observability guard: envelope-peak timing carries a few
            // hundred ms of noise; an interval below ~0.8 s (the track
            // running near 70° to the pair axis) is unrecoverable and
            // would only produce a wild estimate.
            if (p1.t_high - p1.t_low).abs() < 0.8 || (p2.t_high - p2.t_low).abs() < 0.8 {
                continue;
            }
            // Intervals beyond ~30 s cannot come from one wake sweeping
            // adjacent nodes (that is a < 0.5 m/s "ship"): the pair mixes
            // two different episodes.
            if (p1.t_high - p1.t_low).abs() > 30.0 || (p2.t_high - p2.t_low).abs() > 30.0 {
                continue;
            }
            // Orientation: exactly one near/far labeling along the sailing
            // direction yields a positive speed.
            let est = estimate_speed(p1.t_low, p1.t_high, p2.t_low, p2.t_high, spacing)
                .ok()
                .or_else(|| {
                    estimate_speed(p1.t_high, p1.t_low, p2.t_high, p2.t_low, spacing).ok()
                });
            if let Some(e) = est {
                // Physical sanity: 0.5–30 m/s (≈ 1–60 kn).
                if e.speed_mps.is_finite() && (0.5..=30.0).contains(&e.speed_mps) {
                    candidates.push(e);
                }
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by(|a, b| a.speed_mps.total_cmp(&b.speed_mps));
    Some(candidates[candidates.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::forward_timestamps;

    fn report(node: u32, onset: f64, energy: f64) -> NodeReport {
        NodeReport {
            node: NodeId::new(node),
            onset_time: onset,
            peak_time: onset,
            report_time: onset + 2.0,
            anomaly_frequency: 0.8,
            energy,
        }
    }

    fn placed(node: u32, row: usize, col: usize, onset: f64, energy: f64) -> PlacedReport {
        PlacedReport {
            report: report(node, onset, energy),
            row,
            col,
        }
    }

    /// A clean passage across `rows × cols`, crossing at `cross_col`, with
    /// onset timestamps consistent with the Fig. 10 geometry at speed
    /// `v` m/s, α = 90°.
    fn passage_reports(rows: usize, cols: usize, cross_col: f64, v: f64) -> Vec<PlacedReport> {
        let spacing = 25.0;
        let mut out = Vec::new();
        let mut node = 0;
        for row in 0..rows {
            for col in 0..cols {
                let lateral = (col as f64 - cross_col).abs() * spacing + 5.0;
                // CPA time grows with row (ship sails along +row), wave
                // arrival delayed by lateral/(v·tan20°).
                let onset = 100.0
                    + row as f64 * spacing / v
                    + lateral / (v * 20.0f64.to_radians().tan());
                // Eq. 1 decay minus the eq. 6 ambient baseline, as a node
                // actually reports it.
                let energy = 150.0 * lateral.powf(-1.0 / 3.0) - 15.0;
                out.push(placed(node, row, col, onset, energy));
                node += 1;
            }
        }
        out
    }

    #[test]
    fn duplicate_reports_keep_most_recent() {
        let mut head = ClusterHead::new(NodeId::new(0), 0.0, ClusterHeadConfig::default());
        head.add_report(placed(5, 0, 0, 10.0, 3.0));
        head.add_report(placed(5, 0, 0, 11.0, 9.0));
        head.add_report(placed(5, 0, 0, 12.0, 1.0));
        assert_eq!(head.reports().len(), 1);
        // `placed` sets report_time = onset + 2, so the onset-12 report is
        // the latest and supersedes the earlier ones.
        assert_eq!(head.reports()[0].report.energy, 1.0);
    }

    #[test]
    fn expiry_respects_window() {
        let cfg = ClusterHeadConfig {
            collection_window: 30.0,
            ..ClusterHeadConfig::default()
        };
        let head = ClusterHead::new(NodeId::new(0), 100.0, cfg);
        assert!(!head.is_expired(129.9));
        assert!(head.is_expired(130.0));
    }

    #[test]
    fn correlated_passage_is_confirmed_with_speed() {
        let mut head = ClusterHead::new(NodeId::new(0), 100.0, ClusterHeadConfig::default());
        for p in passage_reports(5, 5, 2.0, 5.14) {
            head.add_report(p);
        }
        let eval = head.evaluate(160.0);
        assert!(eval.correlation.c > 0.4, "C = {}", eval.correlation.c);
        let det = eval.detection.expect("confirmed");
        assert_eq!(det.report_count, 25);
        let v = det.speed_knots.expect("speed estimable");
        assert!((v - 10.0).abs() < 2.0, "estimated {v} kn");
        let alpha = det.track_angle_deg.expect("angle");
        assert!((alpha - 90.0).abs() < 10.0, "α = {alpha}");
    }

    #[test]
    fn uncorrelated_reports_are_cancelled() {
        let mut head = ClusterHead::new(NodeId::new(0), 0.0, ClusterHeadConfig::default());
        // Scrambled onsets/energies over 5 rows.
        let onsets = [
            13.0, 7.0, 29.0, 3.0, 19.0, 23.0, 2.0, 17.0, 11.0, 5.0, 31.0, 37.0, 1.0, 41.0, 43.0,
            47.0, 53.0, 59.0, 61.0, 67.0, 71.0, 73.0, 79.0, 83.0, 89.0,
        ];
        let energies = [
            5.0, 2.0, 8.0, 1.0, 9.0, 3.0, 7.0, 4.0, 6.0, 2.5, 8.5, 1.5, 9.5, 3.5, 7.5, 4.5, 6.5,
            2.2, 8.2, 1.2, 9.2, 3.2, 7.2, 4.2, 6.2,
        ];
        let mut node = 0;
        for row in 0..5 {
            for col in 0..5 {
                head.add_report(placed(node, row, col, onsets[node as usize], energies[node as usize]));
                node += 1;
            }
        }
        let eval = head.evaluate(100.0);
        assert!(eval.correlation.c < 0.4, "C = {}", eval.correlation.c);
        assert!(eval.detection.is_none());
    }

    #[test]
    fn too_few_reports_never_confirm() {
        let cfg = ClusterHeadConfig {
            min_reports: 6,
            ..ClusterHeadConfig::default()
        };
        let mut head = ClusterHead::new(NodeId::new(0), 0.0, cfg);
        // 5 perfectly correlated reports in 5 rows — still below min.
        for row in 0..5 {
            head.add_report(placed(row as u32, row, 0, 10.0 + row as f64, 5.0));
        }
        assert!(head.evaluate(100.0).detection.is_none());
    }

    #[test]
    fn speed_from_exact_fig10_geometry() {
        // Two column pairs fed with the exact forward model.
        let v = 8.23; // 16 kn
        let (t1, t2, t3, t4) = forward_timestamps(v, 90.0, 25.0, 20.0);
        let reports = vec![
            placed(0, 0, 0, t1, 10.0),
            placed(1, 1, 0, t2, 9.0),
            placed(2, 0, 4, t3, 8.0),
            placed(3, 1, 4, t4, 7.0),
            placed(4, 0, 2, 0.0, 50.0), // crossing column marker
        ];
        let est = estimate_speed_from_reports(&reports, 25.0, GridOrientation::Rows).expect("estimable");
        assert!((est.speed_mps - v).abs() < 1e-6, "{}", est.speed_mps);
    }

    #[test]
    fn speed_needs_two_column_pairs() {
        // Only one usable pair: no estimate.
        let reports = vec![
            placed(0, 0, 0, 1.0, 10.0),
            placed(1, 1, 0, 2.0, 9.0),
            placed(2, 0, 3, 1.5, 8.0),
        ];
        assert!(estimate_speed_from_reports(&reports, 25.0, GridOrientation::Rows).is_none());
    }

    #[test]
    fn reversed_sailing_direction_recovers_via_reorientation() {
        let v = 5.14;
        let (t1, t2, t3, t4) = forward_timestamps(v, 90.0, 25.0, 20.0);
        // Ship sailing toward decreasing rows: swap within pairs.
        let reports = vec![
            placed(0, 0, 0, t2, 10.0),
            placed(1, 1, 0, t1, 9.0),
            placed(2, 0, 4, t4, 8.0),
            placed(3, 1, 4, t3, 7.0),
            placed(4, 0, 2, 0.0, 50.0),
        ];
        let est = estimate_speed_from_reports(&reports, 25.0, GridOrientation::Rows).expect("estimable");
        assert!((est.speed_mps - v).abs() < 1e-6);
    }
}
