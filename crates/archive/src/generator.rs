//! The synthetic observatory archive generator.
//!
//! Simulates the CMOP archive the paper wrangles: fixed stations reporting
//! monthly files (CSV or CDL), research cruises with CTD cast logs, and
//! glider missions with moving tracks — "many datasets, dataset shapes and
//! sizes, physical locations, formats". Every file is deterministic in the
//! spec seed, and every injected naming mess is recorded in the ground
//! truth.

use crate::mess::{
    abbreviate, adhoc_synonyms, ambiguous_form, flag_column, misspell, MessCategory, QA_COLUMNS,
};
use crate::spec::{ArchiveSpec, GroundTruth, TrueDataset, TrueVariable};
use metamess_core::error::{IoContext, Result};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::id::fnv1a;
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_core::value::Value;
use metamess_formats::{write_cdl, write_csv, write_obslog, ColumnDef, FormatKind, ParsedFile};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::path::Path;

/// A generated archive: file contents plus ground truth, all in memory.
#[derive(Debug, Clone)]
pub struct GeneratedArchive {
    /// `(archive-relative path, file content)` pairs, path-sorted.
    pub files: Vec<(String, String)>,
    /// The ground-truth manifest.
    pub truth: GroundTruth,
}

impl GeneratedArchive {
    /// Writes every file (and `ground_truth.json`) under `dir`.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        for (rel, content) in &self.files {
            let path = dir.join(rel);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).io_ctx(format!("create {}", parent.display()))?;
            }
            std::fs::write(&path, content).io_ctx(format!("write {}", path.display()))?;
        }
        let truth_json = serde_json::to_string_pretty(&self.truth).expect("truth serializes");
        std::fs::write(dir.join("ground_truth.json"), truth_json)
            .io_ctx("write ground_truth.json")?;
        Ok(())
    }

    /// Total bytes across generated files.
    pub fn total_bytes(&self) -> usize {
        self.files.iter().map(|(_, c)| c.len()).sum()
    }
}

/// One canonical variable's physical profile.
struct VarProfile {
    canonical: &'static str,
    unit: &'static str,
    base: f64,
    seasonal: f64,
    noise: f64,
}

const WATER_VARS: &[VarProfile] = &[
    VarProfile {
        canonical: "water_temperature",
        unit: "degC",
        base: 11.0,
        seasonal: 5.0,
        noise: 0.6,
    },
    VarProfile { canonical: "salinity", unit: "PSU", base: 18.0, seasonal: 8.0, noise: 2.0 },
    VarProfile {
        canonical: "specific_conductivity",
        unit: "mS/cm",
        base: 28.0,
        seasonal: 10.0,
        noise: 2.5,
    },
    VarProfile {
        canonical: "dissolved_oxygen",
        unit: "mg/L",
        base: 8.5,
        seasonal: 1.5,
        noise: 0.5,
    },
    VarProfile { canonical: "turbidity", unit: "NTU", base: 12.0, seasonal: 6.0, noise: 3.0 },
    VarProfile {
        canonical: "chlorophyll_fluorescence",
        unit: "ug/L",
        base: 6.0,
        seasonal: 4.0,
        noise: 1.5,
    },
    VarProfile { canonical: "fluores375", unit: "ug/L", base: 2.5, seasonal: 1.0, noise: 0.5 },
    VarProfile { canonical: "fluores400", unit: "ug/L", base: 3.1, seasonal: 1.2, noise: 0.5 },
    VarProfile { canonical: "ph", unit: "pH", base: 7.8, seasonal: 0.3, noise: 0.1 },
];

const MET_VARS: &[VarProfile] = &[
    VarProfile {
        canonical: "air_temperature",
        unit: "degC",
        base: 11.0,
        seasonal: 9.0,
        noise: 1.5,
    },
    VarProfile { canonical: "wind_speed", unit: "m/s", base: 5.0, seasonal: 2.0, noise: 2.0 },
    VarProfile {
        canonical: "wind_direction",
        unit: "deg",
        base: 200.0,
        seasonal: 60.0,
        noise: 40.0,
    },
    VarProfile { canonical: "air_pressure", unit: "mbar", base: 1015.0, seasonal: 6.0, noise: 4.0 },
    VarProfile {
        canonical: "relative_humidity",
        unit: "%",
        base: 78.0,
        seasonal: 10.0,
        noise: 6.0,
    },
    VarProfile { canonical: "precipitation", unit: "mm", base: 2.0, seasonal: 2.0, noise: 1.5 },
    VarProfile {
        canonical: "solar_radiation",
        unit: "W/m2",
        base: 180.0,
        seasonal: 120.0,
        noise: 50.0,
    },
];

const CAST_VARS: &[VarProfile] = &[
    VarProfile { canonical: "depth", unit: "m", base: 8.0, seasonal: 0.0, noise: 5.0 },
    VarProfile {
        canonical: "water_temperature",
        unit: "degC",
        base: 11.0,
        seasonal: 5.0,
        noise: 0.8,
    },
    VarProfile { canonical: "salinity", unit: "PSU", base: 20.0, seasonal: 8.0, noise: 3.0 },
    VarProfile {
        canonical: "dissolved_oxygen",
        unit: "mg/L",
        base: 8.0,
        seasonal: 1.5,
        noise: 0.7,
    },
    VarProfile { canonical: "nitrate", unit: "uM", base: 14.0, seasonal: 6.0, noise: 3.0 },
    VarProfile { canonical: "phosphate", unit: "uM", base: 1.4, seasonal: 0.5, noise: 0.3 },
];

const GLIDER_VARS: &[VarProfile] = &[
    VarProfile { canonical: "depth", unit: "m", base: 15.0, seasonal: 0.0, noise: 10.0 },
    VarProfile {
        canonical: "water_temperature",
        unit: "degC",
        base: 10.5,
        seasonal: 4.0,
        noise: 0.7,
    },
    VarProfile { canonical: "salinity", unit: "PSU", base: 28.0, seasonal: 4.0, noise: 2.0 },
    VarProfile {
        canonical: "dissolved_oxygen",
        unit: "mg/L",
        base: 8.2,
        seasonal: 1.0,
        noise: 0.5,
    },
];

/// Station definitions: Columbia River estuary / NE Pacific sites.
/// `(name, lat, lon)`; even index = water-quality buoy, odd = met station.
const STATION_POOL: &[(&str, f64, f64)] = &[
    ("saturn01", 46.235, -123.871),
    ("saturn02", 46.184, -123.187),
    ("saturn03", 46.173, -123.946),
    ("saturn04", 46.204, -123.760),
    ("ogi01", 45.512, -122.670),
    ("grays01", 46.943, -123.912),
    ("yacht01", 46.268, -124.060),
    ("coast01", 45.500, -124.400),
    ("tansy01", 46.188, -123.919),
    ("river01", 45.633, -122.771),
];

const SECONDS_PER_YEAR: f64 = 365.25 * 86_400.0;

fn seasonal_value(p: &VarProfile, t: Timestamp, rng: &mut StdRng) -> f64 {
    let phase = 2.0 * std::f64::consts::PI * (t.0 as f64) / SECONDS_PER_YEAR;
    // peak in mid-summer (phase shift ~ half a year from January)
    let v = p.base
        + p.seasonal * (phase - std::f64::consts::FRAC_PI_2).sin()
        + p.noise * (rng.random::<f64>() * 2.0 - 1.0);
    (v * 1000.0).round() / 1000.0
}

/// Chooses the harvested spelling for a canonical variable and records the
/// category. `context` is the platform context key.
fn mess_name(
    canonical: &str,
    context: &str,
    spec: &ArchiveSpec,
    rng: &mut StdRng,
) -> (String, MessCategory) {
    // Source-context: bare `temperature` at stations (the poster's example).
    if (canonical == "air_temperature" || canonical == "water_temperature")
        && (context == "met_station" || context == "buoy")
        && rng.random_bool(0.25)
    {
        return ("temperature".to_string(), MessCategory::SourceContext);
    }
    // Ambiguous short forms.
    if let Some(short) = ambiguous_form(canonical) {
        if rng.random_bool(spec.mess.ambiguous) {
            return (short.to_string(), MessCategory::Ambiguous);
        }
    }
    // Abbreviations.
    if rng.random_bool(spec.mess.abbreviation) {
        return (abbreviate(canonical), MessCategory::Abbreviation);
    }
    // Ad-hoc synonyms.
    let syns = adhoc_synonyms(canonical);
    if !syns.is_empty() && rng.random_bool(spec.mess.synonym) {
        let pick = syns[rng.random_range(0..syns.len())];
        return (pick.to_string(), MessCategory::Synonym);
    }
    // Minor variations and misspellings: half are case/separator-convention
    // variants (what key-collision fingerprints catch), half are typos
    // (what kNN / phonetic methods catch).
    if rng.random_bool(spec.mess.misspelling) {
        let m = if rng.random_bool(0.5) {
            crate::mess::case_variant(canonical, rng)
        } else {
            misspell(canonical, rng)
        };
        if m != canonical {
            return (m, MessCategory::Misspelling);
        }
    }
    // Multi-level detail: the narrow fluorescence channels stay clean but
    // are *labelled* multi-level so E1 can score hierarchy assignment.
    if canonical.starts_with("fluores") && canonical != "fluorescence" {
        return (canonical.to_string(), MessCategory::MultiLevel);
    }
    (canonical.to_string(), MessCategory::Clean)
}

/// Builds one data file's rows + truth given its variable set and positions.
#[allow(clippy::too_many_arguments)]
fn build_file(
    path: &str,
    source: &str,
    context: &str,
    profiles: &[&VarProfile],
    start: Timestamp,
    step_secs: i64,
    rows: usize,
    position: PositionGen,
    spec: &ArchiveSpec,
    rng: &mut StdRng,
) -> (ParsedFile, TrueDataset) {
    let mut parsed = ParsedFile::new(FormatKind::Csv); // format set by caller
    let mut truth_vars: Vec<TrueVariable> = Vec::new();

    // time column is always first and always clean
    parsed.columns.push(ColumnDef::with_unit("time", "UTC").into());
    truth_vars.push(TrueVariable {
        harvested: "time".into(),
        canonical: "time".into(),
        category: MessCategory::Clean,
        qa: false,
    });

    let moving = matches!(position, PositionGen::Track { .. });
    if moving {
        parsed.columns.push(ColumnDef::with_unit("lat", "deg").into());
        parsed.columns.push(ColumnDef::with_unit("lon", "deg").into());
        for n in ["lat", "lon"] {
            truth_vars.push(TrueVariable {
                harvested: n.into(),
                canonical: if n == "lat" { "latitude" } else { "longitude" }.into(),
                category: MessCategory::Clean,
                qa: false,
            });
        }
    }

    // choose harvested spellings once per file
    let mut harvested: Vec<(String, &VarProfile, MessCategory)> = Vec::new();
    for p in profiles {
        let (name, cat) = mess_name(p.canonical, context, spec, rng);
        if harvested.iter().any(|(n, ..)| *n == name) || name == "time" {
            // collision (e.g. two vars degrading to `temp`): keep canonical
            harvested.push((p.canonical.to_string(), p, MessCategory::Clean));
        } else {
            harvested.push((name, p, cat));
        }
    }
    for (name, p, cat) in &harvested {
        parsed.columns.push(ColumnDef::with_unit(name.clone(), p.unit).into());
        truth_vars.push(TrueVariable {
            harvested: name.clone(),
            canonical: p.canonical.to_string(),
            category: *cat,
            qa: false,
        });
    }

    // Excessive variables: QA columns for this file.
    let mut qa_cols: Vec<String> = Vec::new();
    if rng.random_bool(spec.mess.excessive) {
        let generic = QA_COLUMNS[rng.random_range(0..QA_COLUMNS.len())];
        qa_cols.push(generic.to_string());
        // plus one per-variable flag column
        let (vname, ..) = &harvested[rng.random_range(0..harvested.len())];
        qa_cols.push(flag_column(vname));
    }
    for q in &qa_cols {
        parsed.columns.push(ColumnDef::new(q.clone()).into());
        truth_vars.push(TrueVariable {
            harvested: q.clone(),
            canonical: String::new(),
            category: MessCategory::Excessive,
            qa: true,
        });
    }

    // rows, in row order (the rng draws interleave across columns), each
    // cell pushed into its column: time, [lat, lon,] variables, QA columns
    let vars = if moving { 3 } else { 1 };
    let cols = &mut parsed.columns;
    let mut bbox: Option<GeoBBox> = None;
    let mut t = start;
    for i in 0..rows {
        cols[0].cells.push(Value::Time(t));
        let pt = position.at(i, rows, rng);
        match bbox {
            Some(ref mut b) => b.extend(&pt),
            None => bbox = Some(GeoBBox::point(pt)),
        }
        if moving {
            cols[1].cells.push(Value::Float((pt.lat * 10_000.0).round() / 10_000.0));
            cols[2].cells.push(Value::Float((pt.lon * 10_000.0).round() / 10_000.0));
        }
        for (col, (_, p, _)) in cols[vars..].iter_mut().zip(&harvested) {
            // occasional missing values
            let v = (!rng.random_bool(0.02)).then(|| seasonal_value(p, t, rng));
            col.cells.push(v.map_or(Value::Null, Value::Float));
        }
        for col in &mut cols[vars + harvested.len()..] {
            col.cells.push(Value::Int(rng.random_range(0..3i64)));
        }
        t = t.plus_seconds(step_secs);
    }
    let end = cols[0].cells.last().and_then(Value::as_time).unwrap_or(start);

    let truth = TrueDataset {
        path: path.to_string(),
        source: source.to_string(),
        context: context.to_string(),
        bbox: bbox.expect("at least one row"),
        time: TimeInterval::new(start, end),
        variables: truth_vars,
    };
    (parsed, truth)
}

/// Position generator: fixed site or a moving track.
enum PositionGen {
    Fixed(GeoPoint),
    Track { from: GeoPoint, to: GeoPoint, wobble: f64 },
}

impl PositionGen {
    fn at(&self, i: usize, total: usize, rng: &mut StdRng) -> GeoPoint {
        match self {
            PositionGen::Fixed(p) => *p,
            PositionGen::Track { from, to, wobble } => {
                let f = if total <= 1 { 0.0 } else { i as f64 / (total - 1) as f64 };
                let w = |rng: &mut StdRng| (rng.random::<f64>() * 2.0 - 1.0) * wobble;
                GeoPoint {
                    lat: (from.lat + (to.lat - from.lat) * f + w(rng)).clamp(-90.0, 90.0),
                    lon: (from.lon + (to.lon - from.lon) * f + w(rng)).clamp(-180.0, 180.0),
                }
            }
        }
    }
}

/// Generates the archive described by `spec`.
pub fn generate(spec: &ArchiveSpec) -> GeneratedArchive {
    let mut files: Vec<(String, String)> = Vec::new();
    let mut truth = GroundTruth { seed: spec.seed, ..GroundTruth::default() };
    let stations = &STATION_POOL[..spec.stations.min(STATION_POOL.len())];

    // --- stations: monthly files, alternating CSV and CDL ---
    for (si, (name, lat, lon)) in stations.iter().enumerate() {
        let is_buoy = si % 2 == 0;
        let context = if is_buoy { "buoy" } else { "met_station" };
        let profiles: Vec<&VarProfile> = if is_buoy {
            // per-station subset for shape diversity
            WATER_VARS.iter().skip(si % 2).collect()
        } else {
            MET_VARS.iter().collect()
        };
        let point = GeoPoint { lat: *lat, lon: *lon };
        for m in 0..spec.months {
            let month0 = (m % 12) as u32 + 1;
            let year = 2010 + (m / 12) as i64;
            let start = Timestamp::from_ymd(year, month0, 1).expect("valid month start");
            let path = format!(
                "stations/{name}/{year}/{month0:02}.{}",
                if (si + m) % 3 == 2 { "cdl" } else { "csv" }
            );
            let mut rng = StdRng::seed_from_u64(spec.seed ^ fnv1a(path.as_bytes()));
            let (mut parsed, t) = build_file(
                &path,
                name,
                context,
                &profiles,
                start,
                (28 * 86_400 / spec.rows_per_file.max(1)) as i64,
                spec.rows_per_file,
                PositionGen::Fixed(point),
                spec,
                &mut rng,
            );
            parsed.metadata.insert("station".into(), name.to_string());
            parsed.metadata.insert("lat".into(), format!("{lat}"));
            parsed.metadata.insert("lon".into(), format!("{lon}"));
            parsed.metadata.insert("platform".into(), context.to_string());
            // Unit quirk: some met-station loggers report air temperature in
            // Fahrenheit (the poster's "similar problems in other areas,
            // e.g. units"). Values and the declared unit both switch.
            if !is_buoy && (si + m) % 5 == 4 {
                let air = t.variables.iter().find(|v| v.canonical == "air_temperature");
                let col =
                    air.and_then(|v| parsed.columns.iter_mut().find(|c| c.def.name == v.harvested));
                if let Some(col) = col {
                    col.def.unit = Some("degF".into());
                    for cell in &mut col.cells {
                        if let Some(v) = cell.as_f64() {
                            *cell = Value::from(((v * 9.0 / 5.0 + 32.0) * 1000.0).round() / 1000.0);
                        }
                    }
                }
            }
            let content = if path.ends_with(".cdl") {
                parsed.metadata.insert("dataset_name".into(), format!("{name}_{year}{month0:02}"));
                parsed.format = FormatKind::Cdl;
                write_cdl(&parsed)
            } else {
                write_csv(&parsed, if (si + m) % 2 == 0 { ',' } else { '\t' })
            };
            files.push((path, content));
            truth.datasets.push(t);
        }
    }

    // --- cruises: CTD casts as obslog ---
    for c in 0..spec.cruises {
        let cruise_id = format!("c{:02}", c + 1);
        let casts = 4 + (c % 3);
        let from = GeoPoint { lat: 46.24, lon: -124.10 };
        let to = GeoPoint { lat: 45.95, lon: -123.55 };
        for k in 0..casts {
            let path = format!("cruises/{cruise_id}/cast_{:02}.obslog", k + 1);
            let mut rng = StdRng::seed_from_u64(spec.seed ^ fnv1a(path.as_bytes()));
            let f = k as f64 / casts.max(1) as f64;
            let pt = GeoPoint {
                lat: from.lat + (to.lat - from.lat) * f,
                lon: from.lon + (to.lon - from.lon) * f,
            };
            let day = 1 + ((c * 9 + k * 2) % 27) as u32;
            let month = ((c + 4) % 12) as u32 + 1; // cruises cluster May-August
            let start = Timestamp::from_ymd_hms(2010, month, day, 10, 0, 0).expect("valid cast");
            let profiles: Vec<&VarProfile> = CAST_VARS.iter().collect();
            let (mut parsed, mut t) = build_file(
                &path,
                &cruise_id,
                "ctd",
                &profiles,
                start,
                60,
                spec.rows_per_file / 2,
                PositionGen::Fixed(pt),
                spec,
                &mut rng,
            );
            parsed.metadata.insert("cruise".into(), cruise_id.clone());
            parsed.metadata.insert("instrument".into(), format!("CTD-{}", c + 1));
            parsed.metadata.insert("cast_id".into(), format!("{cruise_id}_cast{}", k + 1));
            parsed.metadata.insert("lat".into(), format!("{:.4}", pt.lat));
            parsed.metadata.insert("lon".into(), format!("{:.4}", pt.lon));
            parsed.metadata.insert("platform".into(), "ctd".into());
            // casts log depth, not time-on-station: keep bbox point
            t.bbox = GeoBBox::point(pt);
            parsed.format = FormatKind::Obslog;
            files.push((path, write_obslog(&parsed)));
            truth.datasets.push(t);
        }
    }

    // --- gliders: moving CSV tracks ---
    for g in 0..spec.glider_missions {
        let mission = format!("g{:02}", g + 1);
        let path = format!("gliders/{mission}/track.csv");
        let mut rng = StdRng::seed_from_u64(spec.seed ^ fnv1a(path.as_bytes()));
        let from = GeoPoint { lat: 46.10 + 0.05 * g as f64, lon: -124.35 };
        let to = GeoPoint { lat: 45.55, lon: -123.90 + 0.1 * g as f64 };
        let start =
            Timestamp::from_ymd(2010, ((g * 3) % 12) as u32 + 3, 5).expect("valid mission start");
        let profiles: Vec<&VarProfile> = GLIDER_VARS.iter().collect();
        let (mut parsed, t) = build_file(
            &path,
            &mission,
            "glider",
            &profiles,
            start,
            1800,
            spec.rows_per_file * 2,
            PositionGen::Track { from, to, wobble: 0.004 },
            spec,
            &mut rng,
        );
        parsed.metadata.insert("mission".into(), mission.clone());
        parsed.metadata.insert("platform".into(), "glider".into());
        files.push((path, write_csv(&parsed, ',')));
        truth.datasets.push(t);
    }

    // --- malformed files (failure injection) ---
    if spec.include_malformed {
        let malformed = vec![
            (
                "malformed/truncated.csv".to_string(),
                "# station: ghost\ntime,temp\n\"2010-01-01,5.0\n".to_string(),
            ),
            ("malformed/junk.bin".to_string(), "\u{0}\u{1}\u{2}not a data file".to_string()),
            ("malformed/empty.csv".to_string(), String::new()),
        ];
        for (p, c) in malformed {
            truth.malformed.push(p.clone());
            files.push((p, c));
        }
    }

    files.sort_by(|a, b| a.0.cmp(&b.0));
    truth.datasets.sort_by(|a, b| a.path.cmp(&b.path));
    GeneratedArchive { files, truth }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = ArchiveSpec::tiny();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.files, b.files);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&ArchiveSpec::tiny());
        let b = generate(&ArchiveSpec { seed: 99, ..ArchiveSpec::tiny() });
        assert_ne!(a.files, b.files);
    }

    #[test]
    fn expected_file_counts() {
        let spec = ArchiveSpec::tiny(); // 2 stations * 2 months + 4 casts + 1 glider + 3 malformed
        let a = generate(&spec);
        assert_eq!(a.truth.datasets.len(), 2 * 2 + 4 + 1);
        assert_eq!(a.truth.malformed.len(), 3);
        assert_eq!(a.files.len(), a.truth.datasets.len() + a.truth.malformed.len());
    }

    #[test]
    fn every_dataset_parses_with_its_sniffed_format() {
        let a = generate(&ArchiveSpec::tiny());
        for t in &a.truth.datasets {
            let content = &a.files.iter().find(|(p, _)| p == &t.path).unwrap().1;
            let parsed = metamess_formats::sniff_and_parse(Path::new(&t.path), content).unwrap();
            assert!(parsed.row_count() > 0, "{}", t.path);
            // every truth variable appears as a column
            for v in &t.variables {
                assert!(
                    parsed.column(&v.harvested).is_some(),
                    "{} missing column {}",
                    t.path,
                    v.harvested
                );
            }
        }
    }

    #[test]
    fn malformed_files_fail_to_parse() {
        let a = generate(&ArchiveSpec::tiny());
        for p in &a.truth.malformed {
            let content = &a.files.iter().find(|(fp, _)| fp == p).unwrap().1;
            assert!(
                metamess_formats::sniff_and_parse(Path::new(p), content).is_err(),
                "{p} should not parse"
            );
        }
    }

    #[test]
    fn mess_categories_all_injected_at_default_scale() {
        let a = generate(&ArchiveSpec::default());
        let mut counts = std::collections::BTreeMap::new();
        for v in a.truth.datasets.iter().flat_map(|d| &d.variables) {
            *counts.entry(v.category).or_insert(0) += 1;
        }
        for cat in MessCategory::all() {
            assert!(
                counts.get(&cat).copied().unwrap_or(0) > 0,
                "category {cat:?} never injected; counts {counts:?}"
            );
        }
        // and plenty of clean names remain
        assert!(counts[&MessCategory::Clean] > 20);
    }

    #[test]
    fn truth_bbox_and_time_sane() {
        let a = generate(&ArchiveSpec::tiny());
        for t in &a.truth.datasets {
            assert!(t.bbox.min_lat >= 45.0 && t.bbox.max_lat <= 47.5, "{}", t.path);
            assert!(t.bbox.min_lon >= -125.0 && t.bbox.max_lon <= -122.0, "{}", t.path);
            assert!(t.time.start.to_iso8601().starts_with("2010"), "{}", t.path);
            assert!(t.time.duration_secs() > 0, "{}", t.path);
        }
    }

    #[test]
    fn glider_has_moving_bbox() {
        let a = generate(&ArchiveSpec::tiny());
        let g = a.truth.datasets.iter().find(|d| d.context == "glider").unwrap();
        assert!(g.bbox.max_lat - g.bbox.min_lat > 0.1, "{:?}", g.bbox);
    }

    #[test]
    fn qa_columns_marked_in_truth() {
        let a = generate(&ArchiveSpec::default());
        let qa: Vec<&TrueVariable> =
            a.truth.datasets.iter().flat_map(|d| d.variables.iter()).filter(|v| v.qa).collect();
        assert!(!qa.is_empty());
        for v in qa {
            assert_eq!(v.category, MessCategory::Excessive);
            assert!(v.canonical.is_empty());
        }
    }

    #[test]
    fn relevance_oracle_filters() {
        let a = generate(&ArchiveSpec::default());
        let region = GeoBBox::new(46.0, 46.5, -124.2, -123.0).unwrap();
        let window = TimeInterval::new(
            Timestamp::from_ymd(2010, 1, 1).unwrap(),
            Timestamp::from_ymd(2010, 12, 31).unwrap(),
        );
        let all = a.truth.relevant(None, None, None).count();
        let spatial = a.truth.relevant(Some(&region), None, None).count();
        let with_var =
            a.truth.relevant(Some(&region), Some(&window), Some("water_temperature")).count();
        assert!(all >= spatial && spatial >= with_var);
        assert!(with_var > 0);
    }

    #[test]
    fn write_to_disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("metamess-arch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = generate(&ArchiveSpec::tiny());
        a.write_to(&dir).unwrap();
        assert!(dir.join("ground_truth.json").exists());
        let truth_text = std::fs::read_to_string(dir.join("ground_truth.json")).unwrap();
        let back: GroundTruth = serde_json::from_str(&truth_text).unwrap();
        assert_eq!(back, a.truth);
        // spot-check one file exists with the same bytes
        let (rel, content) = &a.files[0];
        assert_eq!(&std::fs::read_to_string(dir.join(rel)).unwrap(), content);
    }
}
