//! Archive generation parameters and the ground-truth manifest.

use crate::mess::{MessCategory, MessIntensity};
use metamess_core::geo::GeoBBox;
use metamess_core::time::TimeInterval;
use serde::{Deserialize, Serialize};

/// Parameters of the synthetic observatory archive.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArchiveSpec {
    /// RNG seed; same spec ⇒ bit-identical archive.
    pub seed: u64,
    /// Number of fixed observation stations (≤ 10).
    pub stations: usize,
    /// Number of research cruises (each with several CTD casts).
    pub cruises: usize,
    /// Number of glider missions.
    pub glider_missions: usize,
    /// Months of station data, starting January 2010.
    pub months: usize,
    /// Data rows per station-month file.
    pub rows_per_file: usize,
    /// Semantic-diversity injection intensities.
    pub mess: MessIntensity,
    /// Plant malformed files (failure injection for the harvester).
    pub include_malformed: bool,
}

impl Default for ArchiveSpec {
    fn default() -> Self {
        ArchiveSpec {
            seed: 20130408, // the ICDE 2013 poster session date
            stations: 6,
            cruises: 3,
            glider_missions: 2,
            months: 6,
            rows_per_file: 96,
            mess: MessIntensity::default(),
            include_malformed: true,
        }
    }
}

impl ArchiveSpec {
    /// A small spec for fast unit tests.
    pub fn tiny() -> ArchiveSpec {
        ArchiveSpec {
            stations: 2,
            cruises: 1,
            glider_missions: 1,
            months: 2,
            rows_per_file: 12,
            ..ArchiveSpec::default()
        }
    }
}

/// Ground truth for one harvested variable occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrueVariable {
    /// Name exactly as written into the file.
    pub harvested: String,
    /// The canonical variable it denotes (empty for pure QA columns).
    pub canonical: String,
    /// Which semantic-diversity category produced the harvested spelling.
    pub category: MessCategory,
    /// True when the column is QA/bookkeeping and must be excluded from
    /// search.
    pub qa: bool,
}

/// Ground truth for one generated dataset file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrueDataset {
    /// Archive-relative path.
    pub path: String,
    /// Source platform (station name, cruise id, glider mission).
    pub source: String,
    /// Source context key (`met_station`, `ctd`, `buoy`, `glider`).
    pub context: String,
    /// True spatial extent.
    pub bbox: GeoBBox,
    /// True temporal extent.
    pub time: TimeInterval,
    /// Per-variable truth, in file column order.
    pub variables: Vec<TrueVariable>,
}

impl TrueDataset {
    /// The set of canonical (searchable) variables the dataset truly carries.
    pub fn canonical_variables(&self) -> Vec<&str> {
        self.variables
            .iter()
            .filter(|v| !v.qa && !v.canonical.is_empty())
            .map(|v| v.canonical.as_str())
            .collect()
    }
}

/// The complete ground-truth manifest written beside the archive.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Spec that produced the archive.
    pub seed: u64,
    /// Per-dataset truth.
    pub datasets: Vec<TrueDataset>,
    /// Paths of planted malformed files (expected harvest failures).
    pub malformed: Vec<String>,
}

impl GroundTruth {
    /// Truth for a dataset path.
    pub fn dataset(&self, path: &str) -> Option<&TrueDataset> {
        self.datasets.iter().find(|d| d.path == path)
    }

    /// Datasets whose truth satisfies all the given predicates — the
    /// relevance oracle used by the search-quality experiments.
    pub fn relevant<'a>(
        &'a self,
        region: Option<&'a GeoBBox>,
        window: Option<&'a TimeInterval>,
        variable: Option<&'a str>,
    ) -> impl Iterator<Item = &'a TrueDataset> {
        self.datasets.iter().filter(move |d| {
            if let Some(r) = region {
                if !r.intersects(&d.bbox) {
                    return false;
                }
            }
            if let Some(w) = window {
                if !w.overlaps(&d.time) {
                    return false;
                }
            }
            if let Some(v) = variable {
                if !d.canonical_variables().contains(&v) {
                    return false;
                }
            }
            true
        })
    }
}
