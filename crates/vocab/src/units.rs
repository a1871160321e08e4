//! Unit registry: canonical units, unit synonyms, and conversions.
//!
//! The poster's synonym row uses units as its example — `C`, `degC`,
//! `Centigrade` must "be made the same" — and notes "similar problems in
//! other areas, e.g. units". Conversions are affine (`si = a * x + b`),
//! which covers every unit the observatory formats use (temperatures need
//! the offset).

use metamess_core::error::{Error, Result};
use metamess_core::text::normalize_term;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Physical dimension of a unit; conversions only happen within a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Dimension {
    /// Thermodynamic temperature.
    Temperature,
    /// Length / depth.
    Length,
    /// Pressure.
    Pressure,
    /// Speed.
    Speed,
    /// Direction (angle).
    Angle,
    /// Salinity (practical salinity scale — treated as its own dimension).
    Salinity,
    /// Electrical conductivity.
    Conductivity,
    /// Mass concentration (e.g. mg/L).
    Concentration,
    /// Volume fraction / percentage.
    Fraction,
    /// Turbidity (NTU).
    Turbidity,
    /// Acidity (pH, unitless scale).
    Acidity,
    /// Irradiance / radiation flux.
    Irradiance,
    /// Dimensionless counts, flags, indexes.
    Dimensionless,
}

/// A canonical unit: affine mapping to the dimension's SI/base unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitDef {
    /// Canonical name, e.g. `celsius`.
    pub name: String,
    /// Display symbol, e.g. `°C`.
    pub symbol: String,
    /// Dimension the unit measures.
    pub dimension: Dimension,
    /// Scale for `base = scale * x + offset`; `None` when the unit is not
    /// inter-convertible (needs molar mass or spectral assumptions).
    pub scale: Option<f64>,
    /// Offset: `base = scale * x + offset`.
    pub offset: f64,
}

/// Registry of units and their alternate spellings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UnitRegistry {
    units: BTreeMap<String, UnitDef>,
    /// normalized alias → canonical unit key
    aliases: BTreeMap<String, String>,
}

impl UnitRegistry {
    /// Creates an empty registry.
    pub fn new() -> UnitRegistry {
        UnitRegistry::default()
    }

    /// Registry pre-loaded with the units the observatory archive uses.
    pub fn builtin() -> UnitRegistry {
        let mut r = UnitRegistry::new();
        // Temperature: base unit kelvin.
        r.define("kelvin", "K", Dimension::Temperature, Some(1.0), 0.0, &["K", "deg K", "degK"]);
        r.define(
            "celsius",
            "°C",
            Dimension::Temperature,
            Some(1.0),
            273.15,
            &["C", "degC", "deg C", "Centigrade", "centigrade", "celcius", "deg_C", "°C"],
        );
        r.define(
            "fahrenheit",
            "°F",
            Dimension::Temperature,
            Some(5.0 / 9.0),
            459.67 * 5.0 / 9.0,
            &["F", "degF", "deg F", "deg_F"],
        );
        // Length: base metre.
        r.define("meter", "m", Dimension::Length, Some(1.0), 0.0, &["m", "metre", "meters", "mtr"]);
        r.define("centimeter", "cm", Dimension::Length, Some(0.01), 0.0, &["cm"]);
        r.define("millimeter", "mm", Dimension::Length, Some(0.001), 0.0, &["mm"]);
        r.define("kilometer", "km", Dimension::Length, Some(1000.0), 0.0, &["km"]);
        r.define("foot", "ft", Dimension::Length, Some(0.3048), 0.0, &["ft", "feet"]);
        // Pressure: base pascal.
        r.define("pascal", "Pa", Dimension::Pressure, Some(1.0), 0.0, &["Pa"]);
        r.define("decibar", "dbar", Dimension::Pressure, Some(10_000.0), 0.0, &["dbar", "db"]);
        r.define("millibar", "mbar", Dimension::Pressure, Some(100.0), 0.0, &["mbar", "mb", "hPa"]);
        // Speed: base m/s.
        r.define(
            "meters_per_second",
            "m/s",
            Dimension::Speed,
            Some(1.0),
            0.0,
            &["m/s", "m s-1", "ms-1", "mps"],
        );
        r.define(
            "knots",
            "kn",
            Dimension::Speed,
            Some(0.514444),
            0.0,
            &["kn", "kt", "kts", "knot"],
        );
        r.define(
            "centimeters_per_second",
            "cm/s",
            Dimension::Speed,
            Some(0.01),
            0.0,
            &["cm/s", "cm s-1"],
        );
        // Angle: base degree.
        r.define(
            "degree",
            "°",
            Dimension::Angle,
            Some(1.0),
            0.0,
            &["deg", "degrees", "degT", "deg true"],
        );
        // Salinity: base PSU.
        r.define(
            "psu",
            "PSU",
            Dimension::Salinity,
            Some(1.0),
            0.0,
            &["PSU", "psu", "practical salinity units", "ppt"],
        );
        // Conductivity: base S/m.
        r.define(
            "siemens_per_meter",
            "S/m",
            Dimension::Conductivity,
            Some(1.0),
            0.0,
            &["S/m", "S m-1"],
        );
        r.define(
            "millisiemens_per_centimeter",
            "mS/cm",
            Dimension::Conductivity,
            Some(0.1),
            0.0,
            &["mS/cm", "mmho/cm", "mmho"],
        );
        // Concentration: base mg/L.
        r.define(
            "milligrams_per_liter",
            "mg/L",
            Dimension::Concentration,
            Some(1.0),
            0.0,
            &["mg/L", "mg/l", "mg L-1", "ppm"],
        );
        r.define(
            "micrograms_per_liter",
            "µg/L",
            Dimension::Concentration,
            Some(0.001),
            0.0,
            &["ug/L", "ug/l", "µg/L", "ug L-1", "ppb"],
        );
        r.define(
            "micromolar",
            "µM",
            Dimension::Concentration,
            None, // molar mass dependent; convertible only to itself
            0.0,
            &["uM", "µM", "umol/L", "mmol/m^3", "mmol m-3"],
        );
        // Fraction: base fraction (0..1).
        r.define(
            "percent",
            "%",
            Dimension::Fraction,
            Some(0.01),
            0.0,
            &["%", "pct", "percent saturation", "% sat"],
        );
        r.define("fraction", "1", Dimension::Fraction, Some(1.0), 0.0, &["1", "frac"]);
        // Turbidity.
        r.define("ntu", "NTU", Dimension::Turbidity, Some(1.0), 0.0, &["NTU", "ntu"]);
        // pH.
        r.define(
            "ph_units",
            "pH",
            Dimension::Acidity,
            Some(1.0),
            0.0,
            &["pH", "ph units", "pH units"],
        );
        // Irradiance.
        r.define(
            "watts_per_square_meter",
            "W/m²",
            Dimension::Irradiance,
            Some(1.0),
            0.0,
            &["W/m2", "W m-2", "w/m^2"],
        );
        r.define(
            "microeinsteins",
            "µE/m²/s",
            Dimension::Irradiance,
            None, // spectral; convertible only to itself
            0.0,
            &["uE/m2/s", "uEin", "umol photons m-2 s-1"],
        );
        // Dimensionless.
        r.define("count", "#", Dimension::Dimensionless, Some(1.0), 0.0, &["#", "n", "counts"]);
        r
    }

    /// Defines a unit and its aliases. Later definitions win (for overrides).
    pub fn define(
        &mut self,
        name: &str,
        symbol: &str,
        dimension: Dimension,
        scale: Option<f64>,
        offset: f64,
        aliases: &[&str],
    ) {
        let key = normalize_term(name);
        self.units.insert(
            key.clone(),
            UnitDef {
                name: name.to_string(),
                symbol: symbol.to_string(),
                dimension,
                scale,
                offset,
            },
        );
        for a in aliases {
            self.aliases.insert(normalize_term(a), key.clone());
        }
    }

    /// Resolves a harvested unit string to its canonical definition.
    pub fn resolve(&self, raw: &str) -> Option<&UnitDef> {
        let key = normalize_term(raw);
        if let Some(u) = self.units.get(&key) {
            return Some(u);
        }
        let canon = self.aliases.get(&key)?;
        self.units.get(canon)
    }

    /// True when the raw unit string is known.
    pub fn contains(&self, raw: &str) -> bool {
        self.resolve(raw).is_some()
    }

    /// Converts `value` from unit `from` to unit `to`.
    ///
    /// Errors when either unit is unknown, the dimensions differ, or the
    /// units are not inter-convertible (spectral/molar units).
    pub fn convert(&self, value: f64, from: &str, to: &str) -> Result<f64> {
        let f = self.resolve(from).ok_or_else(|| Error::not_found("unit", from))?;
        let t = self.resolve(to).ok_or_else(|| Error::not_found("unit", to))?;
        if f.dimension != t.dimension {
            return Err(Error::invalid(format!(
                "cannot convert {:?} ({}) to {:?} ({})",
                f.dimension, f.name, t.dimension, t.name
            )));
        }
        if f.name == t.name {
            return Ok(value);
        }
        let (Some(fs), Some(ts)) = (f.scale, t.scale) else {
            return Err(Error::invalid(format!(
                "units {} and {} are not inter-convertible",
                f.name, t.name
            )));
        };
        let base = fs * value + f.offset;
        Ok((base - t.offset) / ts)
    }

    /// The affine map `(scale, offset)` converting values in `from` to
    /// values in `to`: `y = scale * x + offset`. Errors exactly like
    /// [`UnitRegistry::convert`].
    pub fn affine_to(&self, from: &str, to: &str) -> Result<(f64, f64)> {
        let f = self.resolve(from).ok_or_else(|| Error::not_found("unit", from))?;
        let t = self.resolve(to).ok_or_else(|| Error::not_found("unit", to))?;
        if f.dimension != t.dimension {
            return Err(Error::invalid(format!(
                "cannot convert {:?} ({}) to {:?} ({})",
                f.dimension, f.name, t.dimension, t.name
            )));
        }
        if f.name == t.name {
            return Ok((1.0, 0.0));
        }
        let (Some(fs), Some(ts)) = (f.scale, t.scale) else {
            return Err(Error::invalid(format!(
                "units {} and {} are not inter-convertible",
                f.name, t.name
            )));
        };
        Ok((fs / ts, (f.offset - t.offset) / ts))
    }

    /// Number of canonical units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when no units are defined.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Iterates canonical unit definitions, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = &UnitDef> {
        self.units.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poster_synonym_row() {
        // "C, degC, Centigrade → make them the same"
        let r = UnitRegistry::builtin();
        for raw in ["C", "degC", "Centigrade", "deg C", "celcius"] {
            assert_eq!(r.resolve(raw).unwrap().name, "celsius", "raw {raw:?}");
        }
    }

    #[test]
    fn temperature_conversions() {
        let r = UnitRegistry::builtin();
        assert!((r.convert(0.0, "C", "K").unwrap() - 273.15).abs() < 1e-9);
        assert!((r.convert(212.0, "F", "C").unwrap() - 100.0).abs() < 1e-9);
        assert!((r.convert(100.0, "celsius", "fahrenheit").unwrap() - 212.0).abs() < 1e-9);
        assert!((r.convert(-40.0, "F", "C").unwrap() + 40.0).abs() < 1e-9);
    }

    #[test]
    fn length_and_speed() {
        let r = UnitRegistry::builtin();
        assert!((r.convert(1.0, "km", "m").unwrap() - 1000.0).abs() < 1e-9);
        assert!((r.convert(10.0, "ft", "m").unwrap() - 3.048).abs() < 1e-9);
        assert!((r.convert(1.0, "kn", "m/s").unwrap() - 0.514444).abs() < 1e-9);
    }

    #[test]
    fn cross_dimension_rejected() {
        let r = UnitRegistry::builtin();
        let e = r.convert(1.0, "C", "m").unwrap_err();
        assert!(e.to_string().contains("cannot convert"));
    }

    #[test]
    fn unknown_unit_rejected() {
        let r = UnitRegistry::builtin();
        assert!(r.convert(1.0, "furlong", "m").is_err());
        assert!(!r.contains("furlong"));
    }

    #[test]
    fn non_convertible_same_dimension() {
        let r = UnitRegistry::builtin();
        // µM and mg/L share Dimension::Concentration but need a molar mass.
        assert!(r.convert(1.0, "uM", "mg/L").is_err());
        // identity conversion still fine
        assert!((r.convert(2.5, "uM", "umol/L").unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn conversion_round_trip() {
        let r = UnitRegistry::builtin();
        for (a, b) in [("C", "F"), ("m", "ft"), ("dbar", "Pa"), ("%", "frac")] {
            let x = 17.25;
            let y = r.convert(x, a, b).unwrap();
            let back = r.convert(y, b, a).unwrap();
            assert!((back - x).abs() < 1e-9, "{a}->{b}");
        }
    }

    #[test]
    fn affine_map_matches_convert() {
        let r = UnitRegistry::builtin();
        for (from, to) in [("F", "C"), ("C", "K"), ("km", "m"), ("%", "frac"), ("psu", "ppt")] {
            let (a, b) = r.affine_to(from, to).unwrap();
            for x in [-40.0, 0.0, 17.5, 212.0] {
                let direct = r.convert(x, from, to).unwrap();
                assert!((a * x + b - direct).abs() < 1e-9, "{from}->{to} at {x}");
            }
        }
        assert_eq!(r.affine_to("C", "C").unwrap(), (1.0, 0.0));
        assert!(r.affine_to("C", "m").is_err());
        assert!(r.affine_to("uM", "mg/L").is_err());
    }

    #[test]
    fn case_insensitive_resolution() {
        let r = UnitRegistry::builtin();
        assert_eq!(r.resolve("DEGC").unwrap().name, "celsius");
        assert_eq!(r.resolve("Psu").unwrap().name, "psu");
    }

    #[test]
    fn serde_round_trip() {
        let r = UnitRegistry::builtin();
        let json = serde_json::to_string(&r).unwrap();
        let back: UnitRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), r.len());
        assert_eq!(back.resolve("degC").unwrap().name, "celsius");
    }
}
