//! Feature extraction: one parsed file → one catalog [`DatasetFeature`].
//!
//! This is the "individual datasets scanned once, summarized into a feature"
//! step of the paper's IR architecture. Space and time are folded into the
//! dataset's bounding box and interval; every other column becomes a
//! [`VariableFeature`] with a one-pass numeric summary.

use crate::naming::PathFacts;
use metamess_core::feature::{DatasetFeature, Provenance, VariableFeature};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::stats::ColumnSummary;
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_formats::ParsedFile;

/// Column names treated as coordinate axes rather than variables.
const TIME_COLUMNS: &[&str] = &["time", "datetime", "timestamp", "date"];
const LAT_COLUMNS: &[&str] = &["lat", "latitude"];
const LON_COLUMNS: &[&str] = &["lon", "longitude", "lng"];

fn is_one_of(name: &str, set: &[&str]) -> bool {
    set.iter().any(|s| name.eq_ignore_ascii_case(s))
}

/// Extracts the catalog feature for a parsed file.
pub fn extract_feature(
    rel_path: &str,
    parsed: &ParsedFile,
    facts: &PathFacts,
    fingerprint: u64,
    file_len: u64,
    pipeline_run: u64,
) -> DatasetFeature {
    let mut feature = DatasetFeature::new(rel_path);
    feature.title = facts.title.clone().unwrap_or_else(|| rel_path.to_string());

    // Source: file metadata wins over naming convention.
    feature.source = parsed
        .meta("station")
        .or_else(|| parsed.meta("cruise"))
        .or_else(|| parsed.meta("mission"))
        .map(str::to_string)
        .or_else(|| facts.source.clone());

    // Context: platform metadata wins over the naming rule's default.
    let context = parsed.meta("platform").map(str::to_string).or_else(|| facts.context.clone());

    // External metadata: everything the file header declared.
    for (k, v) in &parsed.metadata {
        feature.external.insert(k.clone(), v.clone());
    }
    if let Some(ctx) = &context {
        feature.external.insert("context".into(), ctx.clone());
    }

    // Column summaries, one pass over each column in row order.
    let summaries: Vec<ColumnSummary> =
        parsed.columns.iter().map(|c| c.cells.iter().collect()).collect();
    feature.record_count = parsed.row_count() as u64;

    // Spatial extent: metadata point, extended by lat/lon columns.
    let mut bbox: Option<GeoBBox> = None;
    if let (Some(lat), Some(lon)) = (parsed.meta_f64("lat"), parsed.meta_f64("lon")) {
        if let Ok(p) = GeoPoint::new(lat, lon) {
            bbox = Some(GeoBBox::point(p));
        }
    }
    let lat = parsed.columns.iter().find(|c| is_one_of(&c.def.name, LAT_COLUMNS));
    let lon = parsed.columns.iter().find(|c| is_one_of(&c.def.name, LON_COLUMNS));
    if let (Some(lat), Some(lon)) = (lat, lon) {
        for (lat, lon) in lat.cells.iter().zip(&lon.cells) {
            if let (Some(lat), Some(lon)) = (lat.as_f64(), lon.as_f64()) {
                if let Ok(p) = GeoPoint::new(lat, lon) {
                    match bbox {
                        Some(ref mut b) => b.extend(&p),
                        None => bbox = Some(GeoBBox::point(p)),
                    }
                }
            }
        }
    }
    feature.bbox = bbox;

    // Temporal extent: time-typed columns, else `cast`-style metadata.
    let mut time: Option<TimeInterval> = None;
    for (col, s) in parsed.columns.iter().zip(&summaries) {
        if !is_one_of(&col.def.name, TIME_COLUMNS) && s.time_count == 0 {
            continue;
        }
        if let (Some(lo), Some(hi)) = (s.time_min, s.time_max) {
            let iv = TimeInterval::new(Timestamp(lo), Timestamp(hi));
            time = Some(time.map_or(iv, |t| t.union(&iv)));
        }
    }
    let cast = || parsed.meta("cast").and_then(|c| Timestamp::parse(c).ok());
    feature.time = time.or_else(|| cast().map(TimeInterval::instant));

    // Variables: every non-coordinate column.
    for (col, s) in parsed.columns.iter().zip(&summaries) {
        let name = &col.def.name;
        if is_one_of(name, TIME_COLUMNS)
            || is_one_of(name, LAT_COLUMNS)
            || is_one_of(name, LON_COLUMNS)
        {
            continue;
        }
        let mut v = VariableFeature::new(name.clone());
        v.unit = col.def.unit.clone();
        v.context = context.clone();
        v.summary = s.numeric.clone();
        v.null_count = s.nulls;
        v.total_count = s.total;
        feature.variables.push(v);
    }

    feature.provenance = Provenance {
        content_fingerprint: fingerprint,
        file_len,
        pipeline_run,
        format: parsed.format.name().to_string(),
    };
    feature
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naming::{infer_path_facts, observatory_rules};
    use metamess_formats::{parse_csv, parse_obslog, CsvOptions};

    fn facts_for(path: &str) -> PathFacts {
        infer_path_facts(&observatory_rules(), path)
    }

    #[test]
    fn station_csv_feature() {
        let text = "# station: saturn01\n# lat: 46.23\n# lon: -123.87\n# platform: buoy\n\
time,water_temperature (degC),sal (PSU),qa_level\n\
2010-06-01T00:00:00Z,10.5,28.0,1\n2010-06-02T00:00:00Z,11.0,29.5,1\n2010-06-03T00:00:00Z,,30.0,2\n";
        let parsed = parse_csv(text, &CsvOptions::default()).unwrap();
        let path = "stations/saturn01/2010/06.csv";
        let f = extract_feature(path, &parsed, &facts_for(path), 42, text.len() as u64, 1);

        assert_eq!(f.title, "Station saturn01, 2010-06");
        assert_eq!(f.source.as_deref(), Some("saturn01"));
        assert_eq!(f.record_count, 3);
        let bbox = f.bbox.unwrap();
        assert_eq!(bbox.min_lat, 46.23);
        let time = f.time.unwrap();
        assert_eq!(time.start.to_date_string(), "2010-06-01");
        assert_eq!(time.end.to_date_string(), "2010-06-03");
        // time column folded into the interval, not a variable
        assert_eq!(f.variables.len(), 3);
        let wt = f.variable("water_temperature").unwrap();
        assert_eq!(wt.unit.as_deref(), Some("degC"));
        assert_eq!(wt.value_range(), Some((10.5, 11.0)));
        assert_eq!(wt.null_count, 1);
        assert_eq!(wt.total_count, 3);
        assert_eq!(wt.context.as_deref(), Some("buoy"));
        assert_eq!(f.external.get("context").map(String::as_str), Some("buoy"));
        assert_eq!(f.provenance.content_fingerprint, 42);
        assert_eq!(f.provenance.format, "csv");
    }

    #[test]
    fn glider_track_bbox_from_columns() {
        let text = "# mission: g01\n# platform: glider\ntime,lat,lon,depth\n\
2010-03-05T00:00:00Z,46.10,-124.35,5.0\n2010-03-05T01:00:00Z,46.00,-124.20,8.0\n";
        let parsed = parse_csv(text, &CsvOptions::default()).unwrap();
        let path = "gliders/g01/track.csv";
        let f = extract_feature(path, &parsed, &facts_for(path), 1, 1, 1);
        let b = f.bbox.unwrap();
        assert_eq!(b.min_lat, 46.00);
        assert_eq!(b.max_lat, 46.10);
        assert_eq!(b.min_lon, -124.35);
        assert_eq!(b.max_lon, -124.20);
        // lat/lon are coordinates, not variables
        assert_eq!(f.variables.len(), 1);
        assert_eq!(f.variables[0].name, "depth");
        assert_eq!(f.source.as_deref(), Some("g01"));
    }

    #[test]
    fn obslog_cast_feature() {
        let text = "*HEADER\n*CRUISE: c01\n*PLATFORM: ctd\n\
*POSITION: 46.18 -123.18\n*CAST: 20100615100000\n*FIELDS: depth temp sal\n*UNITS: m degC psu\n*END\n\
1.0 12.0 28.0\n2.0 11.8 28.4\n";
        let parsed = parse_obslog(text).unwrap();
        let path = "cruises/c01/cast_01.obslog";
        let f = extract_feature(path, &parsed, &facts_for(path), 9, 9, 2);
        assert_eq!(f.title, "Cruise c01, cast 01");
        assert_eq!(f.source.as_deref(), Some("c01"));
        // no time column: cast metadata provides an instant
        let t = f.time.unwrap();
        assert_eq!(t.start, t.end);
        assert_eq!(t.start.to_iso8601(), "2010-06-15T10:00:00Z");
        assert_eq!(f.variables.len(), 3);
        assert_eq!(f.variable("temp").unwrap().context.as_deref(), Some("ctd"));
        assert_eq!(f.provenance.pipeline_run, 2);
    }

    #[test]
    fn file_without_position_or_time() {
        let text = "a,b\n1,2\n";
        let parsed = parse_csv(text, &CsvOptions::default()).unwrap();
        let f = extract_feature("misc/x.csv", &parsed, &facts_for("misc/x.csv"), 0, 0, 0);
        assert!(f.bbox.is_none());
        assert!(f.time.is_none());
        assert_eq!(f.variables.len(), 2);
        assert_eq!(f.title, "misc/x.csv");
    }

    #[test]
    fn invalid_positions_ignored() {
        let text = "# lat: 999\n# lon: -123\na\n1\n";
        let parsed = parse_csv(text, &CsvOptions::default()).unwrap();
        let f = extract_feature("misc/x.csv", &parsed, &PathFacts::default(), 0, 0, 0);
        assert!(f.bbox.is_none());
    }

    #[test]
    fn time_detected_by_content_not_name() {
        // a column full of timestamps counts toward the interval even if
        // it is not called "time"
        let text = "obs_at,v\n2010-01-01T00:00:00Z,1\n2010-01-05T00:00:00Z,2\n";
        let parsed = parse_csv(text, &CsvOptions::default()).unwrap();
        let f = extract_feature("misc/t.csv", &parsed, &PathFacts::default(), 0, 0, 0);
        let t = f.time.unwrap();
        assert_eq!(t.duration_secs(), 4 * 86_400);
        // but the column also stays a variable (it is not a known time name)
        assert!(f.variable("obs_at").is_some());
    }
}
