//! Geospatial primitives: points, bounding boxes, and great-circle distance.
//!
//! The catalog stores a spatial bounding box per dataset; ranked search scores
//! query points against those boxes (Megler & Maier's "Data Near Here").

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Mean Earth radius in kilometres (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A WGS-84 point: latitude/longitude in decimal degrees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, in `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, validating ranges.
    pub fn new(lat: f64, lon: f64) -> Result<GeoPoint> {
        if !(-90.0..=90.0).contains(&lat) || !lat.is_finite() {
            return Err(Error::invalid(format!("latitude {lat} out of range")));
        }
        if !(-180.0..=180.0).contains(&lon) || !lon.is_finite() {
            return Err(Error::invalid(format!("longitude {lon} out of range")));
        }
        Ok(GeoPoint { lat, lon })
    }

    /// Great-circle (haversine) distance to another point, in kilometres.
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().min(1.0).asin()
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat, self.lon)
    }
}

/// An axis-aligned lat/lon bounding box (the spatial "feature" of a dataset).
///
/// Longitude wrap-around at the antimeridian is not modelled: the archives the
/// paper targets (Columbia River estuary / NE Pacific) sit well inside one
/// hemisphere, and the synthetic archive generator respects that.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoBBox {
    /// Minimum (southern) latitude.
    pub min_lat: f64,
    /// Maximum (northern) latitude.
    pub max_lat: f64,
    /// Minimum (western) longitude.
    pub min_lon: f64,
    /// Maximum (eastern) longitude.
    pub max_lon: f64,
}

impl GeoBBox {
    /// Creates a box, validating ranges and ordering ([`GeoBBox::check`]).
    pub fn new(min_lat: f64, max_lat: f64, min_lon: f64, max_lon: f64) -> Result<GeoBBox> {
        let bbox = GeoBBox { min_lat, max_lat, min_lon, max_lon };
        bbox.check()?;
        Ok(bbox)
    }

    /// Whether the box is a place: both corners are points
    /// [`GeoPoint::new`] accepts, and each minimum is at most its maximum.
    /// The one definition of a valid box; deserialization does not check it.
    pub fn check(&self) -> Result<()> {
        let GeoBBox { min_lat, max_lat, min_lon, max_lon } = *self;
        GeoPoint::new(min_lat, min_lon)?;
        GeoPoint::new(max_lat, max_lon)?;
        if min_lat > max_lat || min_lon > max_lon {
            return Err(Error::invalid(format!(
                "bounding box not normalized: lat [{min_lat}, {max_lat}] lon [{min_lon}, {max_lon}]"
            )));
        }
        Ok(())
    }

    /// A degenerate box containing a single point.
    pub fn point(p: GeoPoint) -> GeoBBox {
        GeoBBox { min_lat: p.lat, max_lat: p.lat, min_lon: p.lon, max_lon: p.lon }
    }

    /// Centre of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint {
            lat: (self.min_lat + self.max_lat) / 2.0,
            lon: (self.min_lon + self.max_lon) / 2.0,
        }
    }

    /// True when the point lies inside the closed box.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lon >= self.min_lon
            && p.lon <= self.max_lon
    }

    /// True when the two boxes intersect (closed semantics).
    pub fn intersects(&self, other: &GeoBBox) -> bool {
        self.min_lat <= other.max_lat
            && other.min_lat <= self.max_lat
            && self.min_lon <= other.max_lon
            && other.min_lon <= self.max_lon
    }

    /// Smallest box covering both.
    pub fn union(&self, other: &GeoBBox) -> GeoBBox {
        GeoBBox {
            min_lat: self.min_lat.min(other.min_lat),
            max_lat: self.max_lat.max(other.max_lat),
            min_lon: self.min_lon.min(other.min_lon),
            max_lon: self.max_lon.max(other.max_lon),
        }
    }

    /// Grows the box to cover `p`.
    pub fn extend(&mut self, p: &GeoPoint) {
        self.min_lat = self.min_lat.min(p.lat);
        self.max_lat = self.max_lat.max(p.lat);
        self.min_lon = self.min_lon.min(p.lon);
        self.max_lon = self.max_lon.max(p.lon);
    }

    /// Great-circle distance from a point to the nearest edge of the box, in
    /// kilometres; 0 when the point is inside.
    ///
    /// Uses the closest point in lat/lon space, which is exact for containment
    /// and a tight approximation at the regional scales the catalog covers.
    pub fn distance_km(&self, p: &GeoPoint) -> f64 {
        let clamped = GeoPoint {
            lat: p.lat.clamp(self.min_lat, self.max_lat),
            lon: p.lon.clamp(self.min_lon, self.max_lon),
        };
        clamped.distance_km(p)
    }

    /// Minimum distance between two boxes in kilometres; 0 when they intersect.
    pub fn box_distance_km(&self, other: &GeoBBox) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        // Closest pair of points in lat/lon space.
        let lat = if other.max_lat < self.min_lat {
            (other.max_lat, self.min_lat)
        } else if self.max_lat < other.min_lat {
            (self.max_lat, other.min_lat)
        } else {
            let l = self.min_lat.max(other.min_lat);
            (l, l)
        };
        let lon = if other.max_lon < self.min_lon {
            (other.max_lon, self.min_lon)
        } else if self.max_lon < other.min_lon {
            (self.max_lon, other.min_lon)
        } else {
            let l = self.min_lon.max(other.min_lon);
            (l, l)
        };
        GeoPoint { lat: lat.0, lon: lon.0 }.distance_km(&GeoPoint { lat: lat.1, lon: lon.1 })
    }

    /// Approximate area in square kilometres (spherical rectangle).
    pub fn area_km2(&self) -> f64 {
        let lat_km = (self.max_lat - self.min_lat).to_radians() * EARTH_RADIUS_KM;
        let mid_lat = ((self.min_lat + self.max_lat) / 2.0).to_radians();
        let lon_km = (self.max_lon - self.min_lon).to_radians() * EARTH_RADIUS_KM * mid_lat.cos();
        lat_km * lon_km
    }
}

impl fmt::Display for GeoBBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.4}, {:.4}] x [{:.4}, {:.4}]",
            self.min_lat, self.max_lat, self.min_lon, self.max_lon
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn point_validation() {
        assert!(GeoPoint::new(91.0, 0.0).is_err());
        assert!(GeoPoint::new(-91.0, 0.0).is_err());
        assert!(GeoPoint::new(0.0, 181.0).is_err());
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
        assert!(GeoPoint::new(45.5, -124.4).is_ok());
    }

    #[test]
    fn haversine_known_distance() {
        // Portland, OR to Seattle, WA is about 234 km.
        let pdx = p(45.5152, -122.6784);
        let sea = p(47.6062, -122.3321);
        let d = pdx.distance_km(&sea);
        assert!((d - 233.0).abs() < 5.0, "got {d}");
    }

    #[test]
    fn haversine_zero_and_symmetry() {
        let a = p(45.0, -124.0);
        let b = p(46.0, -123.0);
        assert_eq!(a.distance_km(&a), 0.0);
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn bbox_validation() {
        assert!(GeoBBox::new(46.0, 45.0, -124.0, -123.0).is_err());
        assert!(GeoBBox::new(45.0, 46.0, -123.0, -124.0).is_err());
        assert!(GeoBBox::new(45.0, 46.0, -124.0, -123.0).is_ok());
        // `check` holds what `new` holds, for a box built any other way
        let corners =
            |min_lat, max_lat, min_lon, max_lon| GeoBBox { min_lat, max_lat, min_lon, max_lon };
        assert!(corners(80.0, 95.0, 0.0, 1.0).check().is_err());
        assert!(corners(0.0, 1.0, 170.0, 1e10).check().is_err());
        assert!(corners(f64::NAN, 1.0, 0.0, 1.0).check().is_err());
        assert!(corners(50.0, -50.0, 0.0, 1.0).check().is_err());
        assert!(corners(-90.0, 90.0, -180.0, 180.0).check().is_ok());
    }

    #[test]
    fn bbox_contains_and_distance_inside() {
        let b = GeoBBox::new(45.0, 46.0, -124.0, -123.0).unwrap();
        let inside = p(45.5, -123.5);
        assert!(b.contains(&inside));
        assert_eq!(b.distance_km(&inside), 0.0);
    }

    #[test]
    fn bbox_distance_outside_positive() {
        let b = GeoBBox::new(45.0, 46.0, -124.0, -123.0).unwrap();
        let out = p(44.0, -123.5);
        assert!(!b.contains(&out));
        let d = b.distance_km(&out);
        // one degree of latitude is about 111 km
        assert!((d - 111.0).abs() < 2.0, "got {d}");
    }

    #[test]
    fn bbox_intersects_and_union() {
        let a = GeoBBox::new(45.0, 46.0, -124.0, -123.0).unwrap();
        let b = GeoBBox::new(45.5, 47.0, -123.5, -122.0).unwrap();
        let c = GeoBBox::new(48.0, 49.0, -124.0, -123.0).unwrap();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let u = a.union(&c);
        assert_eq!(u.min_lat, 45.0);
        assert_eq!(u.max_lat, 49.0);
    }

    #[test]
    fn bbox_box_distance() {
        let a = GeoBBox::new(45.0, 46.0, -124.0, -123.0).unwrap();
        let b = GeoBBox::new(45.5, 47.0, -123.5, -122.0).unwrap();
        assert_eq!(a.box_distance_km(&b), 0.0);
        let c = GeoBBox::new(47.0, 48.0, -124.0, -123.0).unwrap();
        let d = a.box_distance_km(&c);
        assert!((d - 111.0).abs() < 2.0, "got {d}");
    }

    #[test]
    fn bbox_extend() {
        let mut b = GeoBBox::point(p(45.5, -123.5));
        b.extend(&p(45.0, -124.0));
        b.extend(&p(46.0, -123.0));
        assert_eq!(b, GeoBBox::new(45.0, 46.0, -124.0, -123.0).unwrap());
    }

    #[test]
    fn bbox_area_reasonable() {
        // 1 degree x 1 degree near 45N: about 111 * 78.5 km
        let b = GeoBBox::new(45.0, 46.0, -124.0, -123.0).unwrap();
        let a = b.area_km2();
        assert!(a > 7000.0 && a < 10000.0, "got {a}");
    }

    #[test]
    fn degenerate_point_box() {
        let b = GeoBBox::point(p(45.5, -124.4));
        assert!(b.contains(&p(45.5, -124.4)));
        assert_eq!(b.area_km2(), 0.0);
    }
}
