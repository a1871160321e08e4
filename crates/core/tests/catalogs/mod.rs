//! Seeded catalogs shaped like the archive generator's after wrangling, for
//! the store's sweeps: `mod catalogs;` beside `mod common;` in this crate's
//! tests. (`common` stays std only, for every crate; this needs the core's
//! types.)

#![allow(dead_code)] // each test file draws only some of the catalogs

use crate::common::Rng;
use metamess_core::catalog::Catalog;
use metamess_core::feature::{DatasetFeature, NameResolution, VariableFeature};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::time::{TimeInterval, Timestamp};

const CONTEXTS: [&str; 4] = ["met_station", "ctd", "buoy", "glider"];
const TERMS: [(&str, &str, &str, &str); 6] = [
    ("wtemp", "water_temperature", "physical", "temperature"),
    ("airtemp", "air_temperature", "physical", "temperature"),
    ("sal", "salinity", "physical", "salinity"),
    ("do_mgl", "dissolved_oxygen", "chemical", "oxygen"),
    ("chl", "chlorophyll", "biological", "pigment"),
    ("turb", "turbidity", "optical", "scattering"),
];

/// A dataset shaped like the archive generator's after wrangling: 5–7
/// variables from a controlled vocabulary (hierarchy three deep, unit and
/// context set), one external pair, an extent in space and in time. Its
/// path is unique to `i`.
pub fn archive_like(i: usize, rng: &mut Rng) -> DatasetFeature {
    let context = *rng.pick(&CONTEXTS);
    let mut f = DatasetFeature::new(format!("stations/{context}{:02}/2010/{i:05}.csv", i % 40));
    f.title = format!("{context} {:02} 2010-{:02}", i % 40, i % 12 + 1);
    f.source = Some(format!("{context}{:02}", i % 40));
    let at = GeoPoint { lat: rng.float(44.0, 47.0), lon: rng.float(-125.0, -123.0) };
    f.bbox = Some(GeoBBox::point(at));
    let start = Timestamp(1_262_304_000 + rng.range(0, 365) * 86_400);
    f.time = Some(TimeInterval::new(start, start.plus_days(rng.range(1, 30))));
    f.record_count = rng.below(4000);
    f.external.insert("platform".into(), context.into());
    f.provenance.format = "csv".into();
    f.provenance.content_fingerprint = rng.next();
    f.provenance.file_len = f.record_count * 64;
    f.provenance.pipeline_run = 1;
    let first = rng.size(0, TERMS.len());
    for k in 0..rng.size(5, 8) {
        let (harvested, canonical, root, family) = TERMS[(first + k) % TERMS.len()];
        // a seventh variable wraps around to the first term: a QA twin
        let mut v = VariableFeature::new(if k < TERMS.len() {
            harvested.into()
        } else {
            format!("{harvested}_qa")
        });
        v.resolve(canonical, NameResolution::KnownTranslation);
        v.hierarchy = vec![root.into(), family.into(), canonical.into()].into();
        v.unit = Some("raw".into());
        v.canonical_unit = Some("si".into());
        v.unit_normalized = true;
        v.context = Some(context.into());
        v.flags.qa = k >= TERMS.len();
        let lo = rng.float(-5.0, 30.0);
        v.summary.observe(lo);
        v.summary.observe(lo + rng.float(0.5, 20.0));
        v.total_count = f.record_count;
        f.variables.push(v);
    }
    f
}

/// [`archive_like`], half the time with a second external pair, and one
/// time in four each a summary JSON could not carry: a variable that never
/// saw a number (`+inf`/`−inf`), one that saw only `0.0` or only `−0.0`, or
/// a NaN mean.
pub fn seeded_dataset(i: usize, rng: &mut Rng) -> DatasetFeature {
    let mut f = archive_like(i, rng);
    if rng.coin() {
        f.external.insert("cruise".into(), format!("c{}", i % 5));
    }
    match rng.below(4) {
        0 => f.variables.push(VariableFeature::new("station")),
        1 => {
            let mut zero = VariableFeature::new("offset");
            zero.summary.observe(if rng.coin() { 0.0 } else { -0.0 });
            f.variables.push(zero);
        }
        2 => f.variables[0].summary.mean = f64::NAN,
        _ => {}
    }
    f
}

/// 8–24 [`seeded_dataset`]s and a property.
pub fn seeded_catalog(rng: &mut Rng) -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..rng.size(8, 25) {
        catalog.put(seeded_dataset(i, rng));
    }
    catalog.set_property("archive", "sim");
    catalog
}
