//! The benchmark's own inputs for the search workloads: a synthetic catalog
//! written straight into a `Catalog` (no files on disk), and the seeded
//! query stream that is sent against it. Everything here is a pure function
//! of the seed.

use metamess_core::{
    Catalog, DatasetFeature, GeoBBox, GeoPoint, NameResolution, TimeInterval, Timestamp,
    VariableFeature,
};
use metamess_search::Query;
use metamess_vocab::Vocabulary;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Region centres the datasets cluster around, so that a `near` clause is
/// selective. Lat 30..60, lon -170..-120 (NE Pacific, as the paper's archive).
const REGIONS: usize = 256;
/// Months the catalog spans, from 2000-01.
const MONTHS: i64 = 240;
/// Sensor-specific variable names the vocabulary does not know, in two
/// families. Each dataset carries one of each, so one name selects about
/// `1 / RARE_NAMES` of the catalog.
const RARE_NAMES: usize = 400;
const RARE_FAMILIES: [&str; 2] = ["sensor", "probe"];

/// `(platform, vocabulary terms its datasets may carry as (harvested, canonical))`.
const PLATFORMS: &[(&str, &[(&str, &str)])] = &[
    (
        "buoy",
        &[
            ("wtemp", "water_temperature"),
            ("salinity", "salinity"),
            ("spcond", "specific_conductivity"),
            ("oxygen", "dissolved_oxygen"),
            ("do_sat", "dissolved_oxygen_saturation"),
            ("chl_fluor", "chlorophyll_fluorescence"),
            ("turbidity", "turbidity"),
            ("ph", "ph"),
            ("no3", "nitrate"),
            ("cdom", "colored_dissolved_organic_matter"),
        ],
    ),
    (
        "met_station",
        &[
            ("atemp", "air_temperature"),
            ("wspd", "wind_speed"),
            ("wdir", "wind_direction"),
            ("gust", "wind_gust"),
            ("baro", "air_pressure"),
            ("rh", "relative_humidity"),
            ("rain", "precipitation"),
            ("swrad", "solar_radiation"),
            ("par", "photosynthetically_active_radiation"),
        ],
    ),
    (
        "ctd",
        &[
            ("t_water", "water_temperature"),
            ("sal", "salinity"),
            ("pressure", "water_pressure"),
            ("depth", "depth"),
            ("do", "dissolved_oxygen"),
            ("chla", "chlorophyll_a"),
            ("po4", "phosphate"),
            ("sio4", "silicate"),
            ("nh4", "ammonium"),
        ],
    ),
    (
        "glider",
        &[
            ("sst", "sea_surface_temperature"),
            ("sal", "salinity"),
            ("u", "water_velocity_east"),
            ("v", "water_velocity_north"),
            ("swh", "significant_wave_height"),
            ("tp", "wave_period"),
            ("pco2", "co2_partial_pressure"),
            ("ch4", "methane_concentration"),
        ],
    ),
];

fn region_centre(region: usize) -> (f64, f64) {
    // A fixed low-discrepancy layout: the regions are part of the benchmark,
    // not of the seed, so every seed sees the same geography.
    let a = (region as f64 * 0.754_877_666_246_693) % 1.0;
    let b = (region as f64 * 0.569_840_290_998_053) % 1.0;
    (30.0 + 30.0 * a, -170.0 + 50.0 * b)
}

fn month_start(month: i64) -> Timestamp {
    Timestamp::from_ymd(2000 + month / 12, (month % 12) as u32 + 1, 1).expect("valid month")
}

fn rare_name(family: &str, ix: usize) -> String {
    format!("{family}_{ix:03}_raw")
}

/// What a query generator needs to know about one dataset to ask for it.
pub struct Anchor {
    pub point: GeoPoint,
    pub month: i64,
    /// `(harvested name, min, max)` of its vocabulary variables.
    pub terms: Vec<(String, f64, f64)>,
    /// `(name, min, max)` of its two sensor-specific variables.
    pub rare: Vec<(String, f64, f64)>,
}

pub struct SynthCatalog {
    pub catalog: Catalog,
    pub anchors: Vec<Anchor>,
}

/// Generates `datasets` dataset features. Paths are unique, so ids are too.
pub fn catalog(seed: u64, datasets: usize, vocab: &Vocabulary) -> SynthCatalog {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6361_7461_6c6f);
    let mut catalog = Catalog::new();
    let mut anchors = Vec::with_capacity(datasets);
    for i in 0..datasets {
        let region = rng.random_range(0..REGIONS);
        let (clat, clon) = region_centre(region);
        let lat = clat + rng.random_range(-0.5..0.5);
        let lon = clon + rng.random_range(-0.5..0.5);
        let point = GeoPoint { lat, lon };
        let (platform, pool) = PLATFORMS[rng.random_range(0..PLATFORMS.len())];
        let month = rng.random_range(0..MONTHS);
        let start = month_start(month);
        let days = if platform == "ctd" { rng.random_range(1..4i64) } else { 28 };

        let mut d = DatasetFeature::new(format!("synth/r{region:03}/{platform}/{i:07}.csv"));
        d.title = format!("{platform} r{region:03} {}", start.to_date_string());
        d.source = Some(format!("{platform}{:02}", region % 40));
        // A glider track covers a box; everything else sits at a point.
        let half = if platform == "glider" { rng.random_range(0.02..0.3) } else { 0.0 };
        d.bbox = Some(GeoBBox {
            min_lat: lat - half,
            max_lat: lat + half,
            min_lon: lon - half,
            max_lon: lon + half,
        });
        d.time = Some(TimeInterval::new(start, start.plus_days(days)));
        d.record_count = rng.random_range(24..4000u64);
        d.external.insert("context".into(), platform.into());
        d.provenance.format = "csv".into();
        d.provenance.content_fingerprint = rng.random();
        d.provenance.file_len = d.record_count * 64;
        d.provenance.pipeline_run = 1;

        let mut terms = Vec::new();
        let first = rng.random_range(0..pool.len());
        let count = rng.random_range(3..6usize);
        for k in 0..count {
            let (harvested, canonical) = pool[(first + k) % pool.len()];
            let mut v = VariableFeature::new(harvested);
            let how = if harvested == canonical {
                NameResolution::AlreadyCanonical
            } else {
                NameResolution::KnownTranslation
            };
            v.resolve(canonical, how);
            v.hierarchy = vocab.hierarchy_of(canonical);
            v.context = Some(platform.to_string());
            let lo = (rng.random_range(-5.0..30.0f64) * 100.0).round() / 100.0;
            let hi = lo + (rng.random_range(0.5..20.0f64) * 100.0).round() / 100.0;
            v.summary.observe(lo);
            v.summary.observe(hi);
            v.total_count = d.record_count;
            terms.push((harvested.to_string(), lo, hi));
            d.variables.push(v);
        }
        let mut rare = Vec::new();
        for family in RARE_FAMILIES {
            let name = rare_name(family, rng.random_range(0..RARE_NAMES));
            let hi = rng.random_range(1.0..1000.0f64).round();
            let mut v = VariableFeature::new(name.clone());
            v.summary.observe(0.0);
            v.summary.observe(hi);
            v.total_count = d.record_count;
            d.variables.push(v);
            rare.push((name, 0.0, hi));
        }

        anchors.push(Anchor { point, month, terms, rare });
        catalog.put(d);
    }
    catalog.set_property("archive", "synthetic");
    catalog.set_property("seed", seed.to_string());
    SynthCatalog { catalog, anchors }
}

/// Which variable names a query stream asks for.
#[derive(Clone, Copy, PartialEq)]
pub enum Terms {
    /// Two sensor-specific names: a few percent of the catalog are candidates.
    Rare,
    /// A vocabulary term (by a harvested spelling) and a sensor-specific name.
    /// The index files a variable under every ancestor of its concept and a
    /// query probes those ancestors too, so most of the catalog is a candidate.
    Vocabulary,
}

/// One query of the stream: spatial + temporal + two variable terms, limit
/// 10, aimed at a seeded anchor dataset so that it has good answers. The
/// jittered floats make every query of a stream distinct.
pub fn query(rng: &mut StdRng, anchors: &[Anchor], terms: Terms) -> Query {
    let a = &anchors[rng.random_range(0..anchors.len())];
    let lat = (a.point.lat + rng.random_range(-0.2..0.2)).clamp(-89.0, 89.0);
    let lon = a.point.lon + rng.random_range(-0.2..0.2);
    let radius = rng.random_range(10.0..40.0f64);
    let first = month_start((a.month - rng.random_range(0..2i64)).max(0));
    let window_days = rng.random_range(20..70i64);
    let (name, lo, hi) = match terms {
        Terms::Rare => &a.rare[0],
        Terms::Vocabulary => &a.terms[rng.random_range(0..a.terms.len())],
    };
    let pad = rng.random_range(0.0..2.0f64);
    Query::new()
        .near(lat, lon, radius)
        .expect("latitude and longitude are in range")
        .between(first, first.plus_days(window_days))
        .with_variable(name.clone(), Some((lo - pad, hi + pad)))
        .with_variable(a.rare[1].0.clone(), None)
}

/// The first `count` queries of a seed's stream.
pub fn query_stream(seed: u64, anchors: &[Anchor], terms: Terms, count: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7175_6572_6965);
    (0..count).map(|_| query(&mut rng, anchors, terms)).collect()
}
