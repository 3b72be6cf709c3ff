//! # sid-bench
//!
//! Experiment-reproduction harness for the SID paper: one module per
//! table/figure family, shared by the `bin/` targets (which print the
//! paper-layout tables and write JSON under `results/`) and the Criterion
//! benches.
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Fig. 5 (3-axis ocean record) | [`spectra::fig05`] | `fig05_ocean_timeseries` |
//! | Fig. 6 (STFT spectra) | [`spectra::fig06`] | `fig06_stft` |
//! | Fig. 7 (Morlet scalogram) | [`spectra::fig07`] | `fig07_wavelet` |
//! | Fig. 8 (raw vs. filtered) | [`spectra::fig08`] | `fig08_filter` |
//! | Fig. 11 (detection ratio vs. af, M) | [`node_level::fig11`] | `fig11_detection_ratio` |
//! | Table I (C, no intrusion) | [`tables::table1`] | `table1_no_intrusion` |
//! | Table II (C, with intrusion) | [`tables::table2`] | `table2_intrusion` |
//! | Fig. 12 (speed estimation) | [`speed_eval::fig12`] | `fig12_speed` |

pub mod common;
pub mod gate;
pub mod node_level;
pub mod spectra;
pub mod speed_eval;
pub mod tables;
