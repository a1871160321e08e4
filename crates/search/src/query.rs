//! The query model and the "Data Near Here" text query language.
//!
//! The poster's example information need — *"observations collected near
//! [lat = 45.5, lon = -124.4] in mid-2010, with temperature between 5-10C"*
//! — is written:
//!
//! ```text
//! near 45.5,-124.4 within 50km from 2010-05-01 to 2010-08-31 with temperature between 5 and 10
//! ```
//!
//! Clauses, all optional, in any order:
//! * `near <lat>,<lon> [within <km>km]` — spatial point + radius
//! * `in <minlat>,<minlon>..<maxlat>,<maxlon>` — spatial region
//! * `from <date> to <date>` / `during <YYYY>[-MM]` — time window
//! * `with <variable> [between <a> and <b>]` — variable term (repeatable)

use metamess_core::error::{Error, Result};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::time::{TimeInterval, Timestamp};
use serde::{Deserialize, Serialize};

/// Spatial constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpatialTerm {
    /// Near a point, with a characteristic radius in km.
    Near {
        /// Query point.
        point: GeoPoint,
        /// Characteristic radius (km); distance decays against this scale.
        radius_km: f64,
    },
    /// Within / near a region.
    Region(GeoBBox),
}

/// One variable term of a query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariableTerm {
    /// Variable name as the scientist typed it.
    pub name: String,
    /// Desired value range, when given.
    pub range: Option<(f64, f64)>,
}

/// Relative weights of the three facet families (normalized at use).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    /// Spatial facet weight.
    pub space: f64,
    /// Temporal facet weight.
    pub time: f64,
    /// Variable facet weight.
    pub variables: f64,
}

impl Default for Weights {
    fn default() -> Self {
        Weights { space: 1.0, time: 1.0, variables: 1.0 }
    }
}

/// Hard ceiling on [`Query::limit`]. Limits arrive from untrusted callers
/// (the HTTP API deserializes structured queries straight into [`Query`]),
/// and an unbounded `k` turns into an unbounded upfront allocation in the
/// top-k selector — so every way a limit enters a query (builder, parser,
/// deserialization) clamps to `1..=MAX_LIMIT`.
pub const MAX_LIMIT: usize = 1000;

fn default_limit() -> usize {
    10
}

fn de_limit<'de, D: serde::Deserializer<'de>>(d: D) -> std::result::Result<usize, D::Error> {
    let raw = u64::deserialize(d)?;
    Ok(raw.clamp(1, MAX_LIMIT as u64) as usize)
}

/// A ranked-search query over location, time, and variables.
///
/// ```
/// use metamess_search::Query;
///
/// let q = Query::parse(
///     "near 45.5,-124.4 within 50km during 2010-06 with temperature between 5 and 10",
/// )
/// .unwrap();
/// assert_eq!(q.variables[0].range, Some((5.0, 10.0)));
/// assert!(q.spatial.is_some() && q.time.is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct Query {
    /// Spatial constraint, when any.
    pub spatial: Option<SpatialTerm>,
    /// Time window, when any.
    pub time: Option<TimeInterval>,
    /// Variable terms (any number).
    pub variables: Vec<VariableTerm>,
    /// Facet weights.
    pub weights: Weights,
    /// Maximum results to return (clamped to `1..=`[`MAX_LIMIT`] on every
    /// entry path, including deserialization).
    #[serde(default = "default_limit", deserialize_with = "de_limit")]
    pub limit: usize,
}

impl Query {
    /// An empty query (matches everything weakly).
    pub fn new() -> Query {
        Query { limit: 10, ..Query::default() }
    }

    /// Builder: spatial point + radius, raised to 0.1 km; a NaN or negative
    /// radius is refused, as [`Query::check`] refuses it.
    pub fn near(mut self, lat: f64, lon: f64, radius_km: f64) -> Result<Query> {
        if radius_km.is_nan() || radius_km < 0.0 {
            return Err(Error::invalid(format!("radius_km {radius_km} is not finite ≥ 0")));
        }
        self.spatial = Some(SpatialTerm::Near {
            point: GeoPoint::new(lat, lon)?,
            radius_km: radius_km.max(0.1),
        });
        Ok(self)
    }

    /// Builder: spatial region.
    pub fn in_region(mut self, bbox: GeoBBox) -> Query {
        self.spatial = Some(SpatialTerm::Region(bbox));
        self
    }

    /// Builder: time window.
    pub fn between(mut self, start: Timestamp, end: Timestamp) -> Query {
        self.time = Some(TimeInterval::new(start, end));
        self
    }

    /// Builder: adds a variable term.
    pub fn with_variable(mut self, name: impl Into<String>, range: Option<(f64, f64)>) -> Query {
        let range = range.map(|(a, b)| if a <= b { (a, b) } else { (b, a) });
        self.variables.push(VariableTerm { name: name.into(), range });
        self
    }

    /// Builder: result limit, clamped to `1..=`[`MAX_LIMIT`].
    pub fn limit(mut self, k: usize) -> Query {
        self.limit = k.clamp(1, MAX_LIMIT);
        self
    }

    /// True when the query has no constraints at all.
    pub fn is_empty(&self) -> bool {
        self.spatial.is_none() && self.time.is_none() && self.variables.is_empty()
    }

    /// Refuses a query that names no place, range or weight: a `near` point
    /// [`GeoPoint::new`] refuses, a radius that is negative or not finite, a
    /// region [`GeoBBox::check`] refuses, a value range whose low end is not
    /// at most its high end, a weight that is negative or not finite, or
    /// weights whose sum is not finite.
    ///
    /// Every way a query enters — the parser, the HTTP handler, a shard
    /// daemon's frames and the engine's search calls — asks this, so the
    /// scorer and its bound read only what passed. Deserialization does not.
    pub fn check(&self) -> Result<()> {
        let named = |field: &str, e: Error| match e {
            Error::Invalid { message } => Error::invalid(format!("{field}: {message}")),
            e => e,
        };
        match &self.spatial {
            Some(SpatialTerm::Near { point, radius_km }) => {
                GeoPoint::new(point.lat, point.lon).map_err(|e| named("near", e))?;
                if !(radius_km.is_finite() && *radius_km >= 0.0) {
                    return Err(Error::invalid(format!("radius_km {radius_km} is not finite ≥ 0")));
                }
            }
            Some(SpatialTerm::Region(region)) => region.check().map_err(|e| named("region", e))?,
            None => {}
        }
        // an inverted range measures a gap of its own, and scores without end
        for VariableTerm { name, range } in &self.variables {
            if let Some((lo, hi)) = range.filter(|(lo, hi)| lo.is_nan() || hi.is_nan() || lo > hi) {
                return Err(Error::invalid(format!("range of {name}: {lo} is not ≤ {hi}")));
            }
        }
        let Weights { space, time, variables } = self.weights;
        for (field, w) in [("space", space), ("time", time), ("variables", variables)] {
            if !(w.is_finite() && w >= 0.0) {
                return Err(Error::invalid(format!("weights.{field} {w} is not finite ≥ 0")));
            }
        }
        if !(space + time + variables).is_finite() {
            return Err(Error::invalid("weights sum past the largest finite number"));
        }
        Ok(())
    }

    /// Parses the text query language; see the module docs for the grammar.
    pub fn parse(text: &str) -> Result<Query> {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let mut q = Query::new();
        let mut i = 0;
        let err = |msg: &str| Error::parse("query", msg.to_string());
        let take = |tokens: &[&str], i: &mut usize, what: &str| -> Result<String> {
            let t = tokens
                .get(*i)
                .ok_or_else(|| Error::parse("query", format!("expected {what} at end of query")))?;
            *i += 1;
            Ok((*t).to_string())
        };
        while i < tokens.len() {
            match tokens[i].to_ascii_lowercase().as_str() {
                "near" => {
                    i += 1;
                    let coords = take(&tokens, &mut i, "lat,lon")?;
                    let (lat, lon) =
                        coords.split_once(',').ok_or_else(|| err("'near' needs lat,lon"))?;
                    let lat: f64 = lat.trim().parse().map_err(|_| err("bad latitude"))?;
                    let lon: f64 = lon.trim().parse().map_err(|_| err("bad longitude"))?;
                    let mut radius = 25.0;
                    if tokens.get(i).is_some_and(|t| t.eq_ignore_ascii_case("within")) {
                        i += 1;
                        let r = take(&tokens, &mut i, "radius")?;
                        let r = r.trim_end_matches("km").trim_end_matches("KM");
                        radius = r.parse().map_err(|_| err("bad radius"))?;
                    }
                    q = q.near(lat, lon, radius)?;
                }
                "in" => {
                    i += 1;
                    let spec = take(&tokens, &mut i, "region")?;
                    let (a, b) = spec.split_once("..").ok_or_else(|| err("'in' needs a..b"))?;
                    let parse_pt = |s: &str| -> Result<GeoPoint> {
                        let (lat, lon) =
                            s.split_once(',').ok_or_else(|| err("region corner needs lat,lon"))?;
                        GeoPoint::new(
                            lat.trim().parse().map_err(|_| err("bad latitude"))?,
                            lon.trim().parse().map_err(|_| err("bad longitude"))?,
                        )
                    };
                    let p1 = parse_pt(a)?;
                    let p2 = parse_pt(b)?;
                    let bbox = GeoBBox {
                        min_lat: p1.lat.min(p2.lat),
                        max_lat: p1.lat.max(p2.lat),
                        min_lon: p1.lon.min(p2.lon),
                        max_lon: p1.lon.max(p2.lon),
                    };
                    q = q.in_region(bbox);
                }
                "from" => {
                    i += 1;
                    let a = take(&tokens, &mut i, "start date")?;
                    if !tokens.get(i).is_some_and(|t| t.eq_ignore_ascii_case("to")) {
                        return Err(err("'from <date>' needs 'to <date>'"));
                    }
                    i += 1;
                    let b = take(&tokens, &mut i, "end date")?;
                    let start = Timestamp::parse(&a)?;
                    let end_base = Timestamp::parse(&b)?;
                    // a bare end *date* is inclusive: extend to end of day
                    let end = if b.len() == 10 { end_base.plus_seconds(86_399) } else { end_base };
                    q = q.between(start, end);
                }
                "during" => {
                    i += 1;
                    let spec = take(&tokens, &mut i, "year or year-month")?;
                    let (start, end) = parse_during(&spec)?;
                    q = q.between(start, end);
                }
                "with" => {
                    i += 1;
                    let name = take(&tokens, &mut i, "variable name")?;
                    let mut range = None;
                    if tokens.get(i).is_some_and(|t| t.eq_ignore_ascii_case("between")) {
                        i += 1;
                        let a = take(&tokens, &mut i, "range start")?;
                        if !tokens.get(i).is_some_and(|t| t.eq_ignore_ascii_case("and")) {
                            return Err(err("'between <a>' needs 'and <b>'"));
                        }
                        i += 1;
                        let b = take(&tokens, &mut i, "range end")?;
                        let a: f64 = a.parse().map_err(|_| err("bad range start"))?;
                        let b: f64 = b.parse().map_err(|_| err("bad range end"))?;
                        range = Some((a, b));
                    }
                    q = q.with_variable(name, range);
                }
                "limit" => {
                    i += 1;
                    let k = take(&tokens, &mut i, "limit")?;
                    q = q.limit(k.parse().map_err(|_| err("bad limit"))?);
                }
                other => {
                    return Err(Error::parse("query", format!("unknown clause '{other}'")));
                }
            }
        }
        q.check()?;
        Ok(q)
    }
}

/// `during 2010` → the whole year; `during 2010-06` → the whole month.
fn parse_during(spec: &str) -> Result<(Timestamp, Timestamp)> {
    let parts: Vec<&str> = spec.split('-').collect();
    let bad = || Error::parse("query", format!("bad 'during' spec '{spec}'"));
    match parts.as_slice() {
        [y] => {
            let y: i64 = y.parse().map_err(|_| bad())?;
            Ok((Timestamp::from_ymd(y, 1, 1)?, Timestamp::from_ymd(y + 1, 1, 1)?.plus_seconds(-1)))
        }
        [y, m] => {
            let y: i64 = y.parse().map_err(|_| bad())?;
            let m: u32 = m.parse().map_err(|_| bad())?;
            let start = Timestamp::from_ymd(y, m, 1)?;
            let (ny, nm) = if m == 12 { (y + 1, 1) } else { (y, m + 1) };
            Ok((start, Timestamp::from_ymd(ny, nm, 1)?.plus_seconds(-1)))
        }
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_poster_query() {
        let q = Query::parse(
            "near 45.5,-124.4 within 50km from 2010-05-01 to 2010-08-31 \
             with temperature between 5 and 10",
        )
        .unwrap();
        match q.spatial.unwrap() {
            SpatialTerm::Near { point, radius_km } => {
                assert_eq!(point.lat, 45.5);
                assert_eq!(point.lon, -124.4);
                assert_eq!(radius_km, 50.0);
            }
            other => panic!("{other:?}"),
        }
        let t = q.time.unwrap();
        assert_eq!(t.start.to_date_string(), "2010-05-01");
        assert_eq!(t.end.to_date_string(), "2010-08-31");
        assert_eq!(q.variables.len(), 1);
        assert_eq!(q.variables[0].name, "temperature");
        assert_eq!(q.variables[0].range, Some((5.0, 10.0)));
    }

    #[test]
    fn parse_default_radius() {
        let q = Query::parse("near 46.0,-123.5").unwrap();
        match q.spatial.unwrap() {
            SpatialTerm::Near { radius_km, .. } => assert_eq!(radius_km, 25.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_region() {
        let q = Query::parse("in 46.3,-124.0..45.9,-123.0").unwrap();
        match q.spatial.unwrap() {
            SpatialTerm::Region(b) => {
                assert_eq!(b.min_lat, 45.9);
                assert_eq!(b.max_lat, 46.3);
                assert_eq!(b.min_lon, -124.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_during_forms() {
        let q = Query::parse("during 2010").unwrap();
        let t = q.time.unwrap();
        assert_eq!(t.start.to_date_string(), "2010-01-01");
        assert_eq!(t.end.to_date_string(), "2010-12-31");
        let q2 = Query::parse("during 2010-06").unwrap();
        let t2 = q2.time.unwrap();
        assert_eq!(t2.start.to_date_string(), "2010-06-01");
        assert_eq!(t2.end.to_date_string(), "2010-06-30");
        let q3 = Query::parse("during 2010-12").unwrap();
        assert_eq!(q3.time.unwrap().end.to_date_string(), "2010-12-31");
    }

    #[test]
    fn parse_multiple_variables() {
        let q = Query::parse("with salinity with temperature between 5 and 10 limit 3").unwrap();
        assert_eq!(q.variables.len(), 2);
        assert_eq!(q.variables[0].range, None);
        assert_eq!(q.limit, 3);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "near",
            "near 45.5",
            "near notanumber,-124",
            "from 2010-01-01",
            "from 2010-01-01 until 2010-02-01",
            "with temperature between 5",
            "with temperature between 5 and x",
            "frobnicate everything",
            "in 45,-124",
            "during 2010-06-01-02",
            "limit x",
            "near 45,-124 within NaNkm",
            "near 45,-124 within -5km",
        ] {
            assert!(Query::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn check_refuses_what_names_no_place_range_or_weight() {
        let near = |lat, lon, radius_km| Query {
            spatial: Some(SpatialTerm::Near { point: GeoPoint { lat, lon }, radius_km }),
            ..Query::new()
        };
        let region = |min_lat, max_lat| {
            Query::new().in_region(GeoBBox { min_lat, max_lat, min_lon: 0.0, max_lon: 1.0 })
        };
        let weighted = |space, time| Query {
            weights: Weights { space, time, variables: 0.0 },
            ..Query::new()
        };
        let mut ranged = Query::new();
        ranged.variables.push(VariableTerm { name: "t".into(), range: Some((10.0, 5.0)) });
        for (q, field) in [
            (near(100.0, 0.0, 25.0), "near: latitude 100"),
            (near(0.0, 180.5, 25.0), "near: longitude 180.5"),
            (near(45.0, -124.0, f64::NAN), "radius_km NaN"),
            (near(45.0, -124.0, -1.0), "radius_km -1"),
            (near(45.0, -124.0, f64::INFINITY), "radius_km inf"),
            (region(50.0, -50.0), "region: bounding box not normalized"),
            (region(80.0, 95.0), "region: latitude 95"),
            (ranged, "range of t: 10"),
            (weighted(-1.0, 1.0), "weights.space -1"),
            (weighted(1.0, f64::NAN), "weights.time NaN"),
            (weighted(f64::MAX, f64::MAX), "weights sum"),
        ] {
            let e = q.check().unwrap_err().to_string();
            assert!(e.contains(field), "{q:?}: {e}");
        }
        // a zero radius and weights that sum to zero are sound: the score is 0
        for q in [near(45.0, -124.0, -0.0), weighted(0.0, 0.0), Query::new(), region(-90.0, 90.0)] {
            assert!(q.check().is_ok(), "{q:?}");
        }
        // the parser asks it too: an infinite radius parses as a number
        let e = Query::parse("near 45,-124 within infkm").unwrap_err().to_string();
        assert!(e.contains("radius_km inf"), "{e}");
        assert!(Query::parse("with t between NaN and 5").is_err());
    }

    #[test]
    fn builder_normalizes_range() {
        let q = Query::new().with_variable("t", Some((10.0, 5.0)));
        assert_eq!(q.variables[0].range, Some((5.0, 10.0)));
    }

    #[test]
    fn limit_is_clamped_on_every_entry_path() {
        // Builder and parser.
        assert_eq!(Query::new().limit(0).limit, 1);
        assert_eq!(Query::new().limit(usize::MAX).limit, MAX_LIMIT);
        assert_eq!(Query::parse("limit 18446744073709551615").unwrap().limit, MAX_LIMIT);
        // Deserialization (the HTTP API's structured-query path).
        let q: Query = serde_json::from_str(r#"{"limit": 18446744073709551615}"#).unwrap();
        assert_eq!(q.limit, MAX_LIMIT);
        let q: Query = serde_json::from_str(r#"{"limit": 0}"#).unwrap();
        assert_eq!(q.limit, 1);
        // A structured query may omit the limit entirely.
        let q: Query = serde_json::from_str("{}").unwrap();
        assert_eq!(q.limit, 10);
    }

    #[test]
    fn empty_query() {
        let q = Query::parse("").unwrap();
        assert!(q.is_empty());
        assert_eq!(q.limit, 10);
    }

    #[test]
    fn inclusive_end_date() {
        let q = Query::parse("from 2010-05-01 to 2010-05-02").unwrap();
        let t = q.time.unwrap();
        assert_eq!(t.end.to_iso8601(), "2010-05-02T23:59:59Z");
        // explicit timestamp end is taken verbatim
        let q2 = Query::parse("from 2010-05-01 to 2010-05-02T06:00:00Z").unwrap();
        assert_eq!(q2.time.unwrap().end.to_iso8601(), "2010-05-02T06:00:00Z");
    }
}
