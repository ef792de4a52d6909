//! Well-Known Text (WKT) reader and writer.
//!
//! iGDB stores every geometry column — city Thiessen cells, inferred
//! right-of-way paths, submarine cable segments — as WKT strings so the
//! database stays GIS-agnostic (paper §3.1, citing the OGC WKT spec). This
//! module implements the subset the schema uses: `POINT`, `LINESTRING`,
//! `MULTILINESTRING`, `POLYGON`, `MULTIPOLYGON`, plus `EMPTY` forms.
//!
//! Coordinates are written `lon lat` (x y), matching OGC axis order.

use std::fmt;
use std::fmt::Write as _;

use crate::geometry::{Geometry, LineString, MultiLineString, MultiPolygon, Polygon};
use crate::point::GeoPoint;

/// Error produced when parsing malformed WKT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WktError {
    /// Human-readable description with byte offset.
    pub message: String,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for WktError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WKT parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for WktError {}

/// Parses a WKT string into a [`Geometry`].
///
/// ```
/// use igdb_geo::{parse_wkt, Geometry};
/// let g = parse_wkt("POINT (13.4050 52.5200)").unwrap();
/// assert!(matches!(g, Geometry::Point(p) if (p.lat - 52.52).abs() < 1e-9));
/// ```
pub fn parse_wkt(input: &str) -> Result<Geometry, WktError> {
    let mut p = Parser::new(input);
    let g = p.parse_geometry()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing characters after geometry"));
    }
    Ok(g)
}

/// Serializes a [`Geometry`] to WKT with six decimal places (≈0.1 m), the
/// precision iGDB uses for all stored paths.
pub fn to_wkt(g: &Geometry) -> String {
    let mut s = String::new();
    match g {
        Geometry::Point(pt) => {
            s.push_str("POINT (");
            write_point(&mut s, pt);
            s.push(')');
        }
        Geometry::LineString(ls) => {
            if ls.0.is_empty() {
                return "LINESTRING EMPTY".to_string();
            }
            s.push_str("LINESTRING ");
            write_coord_list(&mut s, &ls.0);
        }
        Geometry::MultiLineString(mls) => {
            if mls.0.is_empty() {
                return "MULTILINESTRING EMPTY".to_string();
            }
            s.push_str("MULTILINESTRING (");
            for (i, ls) in mls.0.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                write_coord_list(&mut s, &ls.0);
            }
            s.push(')');
        }
        Geometry::Polygon(poly) => {
            if poly.exterior.is_empty() {
                return "POLYGON EMPTY".to_string();
            }
            s.push_str("POLYGON ");
            write_polygon_body(&mut s, poly);
        }
        Geometry::MultiPolygon(mp) => {
            if mp.0.is_empty() {
                return "MULTIPOLYGON EMPTY".to_string();
            }
            s.push_str("MULTIPOLYGON (");
            for (i, poly) in mp.0.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                write_polygon_body(&mut s, poly);
            }
            s.push(')');
        }
    }
    s
}

fn write_point(s: &mut String, p: &GeoPoint) {
    write_coord(s, p.lon);
    s.push(' ');
    write_coord(s, p.lat);
}

fn write_coord_list(s: &mut String, pts: &[GeoPoint]) {
    s.push('(');
    for (i, p) in pts.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_point(s, p);
    }
    s.push(')');
}

fn write_polygon_body(s: &mut String, poly: &Polygon) {
    s.push('(');
    write_coord_list(s, &poly.exterior);
    for h in &poly.holes {
        s.push_str(", ");
        write_coord_list(s, h);
    }
    s.push(')');
}

/// Appends a coordinate with up to six decimals, trimming trailing zeros so
/// round numbers stay compact (`13.4` not `13.400000`), and writing a zero
/// result as `0`, never `-0`: the text of `format!("{v:.6}")` after that
/// trimming.
///
/// Most values take a fast path. Let `m = v·1e6` as computed. Where
/// `|m| < 2^33`, one ulp of `m` is at most 2^-20, so `m` lies within 2^-21
/// of the exact product. Where `frac(|m|)` is also more than 2^-19 from
/// one half, the exact product is on the same side of the half as `m`, so
/// `m.round()` is the correctly rounded value `{:.6}` prints, and its
/// digits are written by hand. Near-ties, huge values, NaN and infinities
/// take the formatter.
fn write_coord(s: &mut String, v: f64) {
    const LIMIT: f64 = (1u64 << 33) as f64;
    const TIE_MARGIN: f64 = 1.0 / (1u64 << 19) as f64;
    let m = v * 1e6;
    if !(m.abs() < LIMIT && (m.abs().fract() - 0.5).abs() > TIE_MARGIN) {
        let start = s.len();
        let _ = write!(s, "{v:.6}");
        if s[start..].contains('.') {
            let trimmed = s.trim_end_matches('0').trim_end_matches('.').len();
            s.truncate(trimmed);
        }
        if &s[start..] == "-0" {
            s.truncate(start);
            s.push('0');
        }
        return;
    }
    let micro = m.round() as i64;
    if micro < 0 {
        s.push('-');
    }
    let micro = micro.unsigned_abs();
    let (mut whole, mut frac) = (micro / 1_000_000, micro % 1_000_000);
    // Digits right to left: the trimmed fraction, its point, the whole part.
    let mut buf = [0u8; 24];
    let mut at = buf.len();
    let mut push = |d: u8| {
        at -= 1;
        buf[at] = d;
    };
    if frac != 0 {
        let mut width = 6;
        while frac % 10 == 0 {
            frac /= 10;
            width -= 1;
        }
        for _ in 0..width {
            push(b'0' + (frac % 10) as u8);
            frac /= 10;
        }
        push(b'.');
    }
    loop {
        push(b'0' + (whole % 10) as u8);
        whole /= 10;
        if whole == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> WktError {
        WktError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), WktError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn keyword(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        self.input[start..self.pos].to_ascii_uppercase()
    }

    /// Returns true (consuming) if the next keyword is `EMPTY`.
    fn try_empty(&mut self) -> bool {
        self.skip_ws();
        // Bytes, not `str`: byte 5 of arbitrary input need not be a char
        // boundary.
        let rest = &self.bytes[self.pos..];
        if rest.len() >= 5 && rest[..5].eq_ignore_ascii_case(b"EMPTY") {
            self.pos += 5;
            true
        } else {
            false
        }
    }

    fn number(&mut self) -> Result<f64, WktError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|e| WktError {
                message: format!("bad number: {e}"),
                offset: start,
            })
    }

    fn coord(&mut self) -> Result<GeoPoint, WktError> {
        let lon = self.number()?;
        let lat = self.number()?;
        if !lon.is_finite() || !lat.is_finite() {
            return Err(self.err("non-finite coordinate"));
        }
        Ok(GeoPoint::raw(lon, lat))
    }

    fn coord_list(&mut self) -> Result<Vec<GeoPoint>, WktError> {
        self.expect(b'(')?;
        let mut pts = vec![self.coord()?];
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    pts.push(self.coord()?);
                }
                Some(b')') => {
                    self.pos += 1;
                    return Ok(pts);
                }
                _ => return Err(self.err("expected ',' or ')' in coordinate list")),
            }
        }
    }

    fn polygon_body(&mut self) -> Result<Polygon, WktError> {
        self.expect(b'(')?;
        let exterior = self.coord_list()?;
        let mut holes = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    holes.push(self.coord_list()?);
                }
                Some(b')') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or ')' in polygon body")),
            }
        }
        if exterior.len() < 4 {
            return Err(self.err("polygon ring needs at least 4 points (closed)"));
        }
        Ok(Polygon::new(exterior, holes))
    }

    fn parse_geometry(&mut self) -> Result<Geometry, WktError> {
        let kw = self.keyword();
        match kw.as_str() {
            "POINT" => {
                if self.try_empty() {
                    return Err(self.err("POINT EMPTY is not representable"));
                }
                self.expect(b'(')?;
                let p = self.coord()?;
                self.expect(b')')?;
                Ok(Geometry::Point(p))
            }
            "LINESTRING" => {
                if self.try_empty() {
                    return Ok(Geometry::LineString(LineString::new(vec![])));
                }
                Ok(Geometry::LineString(LineString::new(self.coord_list()?)))
            }
            "MULTILINESTRING" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiLineString(MultiLineString::new(vec![])));
                }
                self.expect(b'(')?;
                let mut lines = vec![LineString::new(self.coord_list()?)];
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                            lines.push(LineString::new(self.coord_list()?));
                        }
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected ',' or ')' in MULTILINESTRING")),
                    }
                }
                Ok(Geometry::MultiLineString(MultiLineString::new(lines)))
            }
            "POLYGON" => {
                if self.try_empty() {
                    return Ok(Geometry::Polygon(Polygon::new(vec![], vec![])));
                }
                Ok(Geometry::Polygon(self.polygon_body()?))
            }
            "MULTIPOLYGON" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiPolygon(MultiPolygon(vec![])));
                }
                self.expect(b'(')?;
                let mut polys = vec![self.polygon_body()?];
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                            polys.push(self.polygon_body()?);
                        }
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected ',' or ')' in MULTIPOLYGON")),
                    }
                }
                Ok(Geometry::MultiPolygon(MultiPolygon(polys)))
            }
            "" => Err(self.err("empty input")),
            other => Err(self.err(&format!("unsupported geometry type '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The formatter-only writer [`write_coord`] must print exactly as.
    fn fmt_coord(v: f64) -> String {
        let mut s = format!("{v:.6}");
        if s.contains('.') {
            while s.ends_with('0') {
                s.pop();
            }
            if s.ends_with('.') {
                s.pop();
            }
        }
        // Avoid the "-0" artifact.
        if s == "-0" {
            s = "0".to_string();
        }
        s
    }

    fn assert_writes_as_formatter(v: f64) {
        let mut s = String::from("x ");
        write_coord(&mut s, v);
        assert_eq!(&s[2..], fmt_coord(v), "bits {:#018x}", v.to_bits());
    }

    fn arb_coord_value() -> impl Strategy<Value = f64> {
        let limit = (1u64 << 33) as f64 / 1e6;
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            -180.0f64..180.0,
            // Within 1e-12 of a half micro-degree.
            (-(1i64 << 33)..(1i64 << 33), -1e-12f64..1e-12)
                .prop_map(|(k, e)| (k as f64 + 0.5) / 1e6 + e),
            // Exact k/128: every odd k is a tie at the sixth decimal.
            (-(1i64 << 20)..(1i64 << 20)).prop_map(|k| k as f64 / 128.0),
            // Subnormals.
            (1u64..(1u64 << 52), any::<bool>())
                .prop_map(|(m, neg)| f64::from_bits(m | (u64::from(neg) << 63))),
            // At and past the fast path's magnitude bound.
            (limit..1e300, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn write_coord_matches_formatter(v in arb_coord_value()) {
            assert_writes_as_formatter(v);
        }
    }

    #[test]
    fn write_coord_matches_formatter_at_edges() {
        let limit = (1u64 << 33) as f64 / 1e6;
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            limit,
            -limit,
            0.0000005,
            -0.0000005,
            0.0000015,
            0.00000049999999,
            1e-7,
            -1e-7,
            13.4,
            -179.999_999_5,
            180.0,
        ] {
            assert_writes_as_formatter(v);
        }
        // Ties and their neighbours, one ulp either side.
        for k in -4096i64..4096 {
            let v = k as f64 / 128.0;
            for w in [
                v,
                f64::from_bits(v.to_bits() + 1),
                f64::from_bits(v.to_bits().saturating_sub(1)),
            ] {
                assert_writes_as_formatter(w);
            }
        }
    }

    #[test]
    fn parse_point() {
        let g = parse_wkt("POINT (-3.7038 40.4168)").unwrap();
        match g {
            Geometry::Point(p) => {
                assert!((p.lon - -3.7038).abs() < 1e-9);
                assert!((p.lat - 40.4168).abs() < 1e-9);
            }
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn parse_point_case_insensitive_and_spacing() {
        assert!(parse_wkt("point(1 2)").is_ok());
        assert!(parse_wkt("  POINT  (  1   2  )  ").is_ok());
    }

    #[test]
    fn parse_linestring() {
        let g = parse_wkt("LINESTRING (0 0, 1 1, 2 0)").unwrap();
        match g {
            Geometry::LineString(ls) => assert_eq!(ls.0.len(), 3),
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn parse_multilinestring() {
        let g = parse_wkt("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))").unwrap();
        match g {
            Geometry::MultiLineString(m) => {
                assert_eq!(m.0.len(), 2);
                assert_eq!(m.0[1].0.len(), 3);
            }
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn parse_polygon_with_hole() {
        let g = parse_wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))")
            .unwrap();
        match g {
            Geometry::Polygon(p) => {
                assert_eq!(p.holes.len(), 1);
                assert!(p.contains(&GeoPoint::raw(1.0, 1.0)));
                assert!(!p.contains(&GeoPoint::raw(5.0, 5.0)));
            }
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn parse_multipolygon() {
        let g =
            parse_wkt("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))")
                .unwrap();
        match g {
            Geometry::MultiPolygon(mp) => assert_eq!(mp.0.len(), 2),
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn parse_empty_forms() {
        assert!(matches!(
            parse_wkt("LINESTRING EMPTY").unwrap(),
            Geometry::LineString(ls) if ls.0.is_empty()
        ));
        assert!(matches!(
            parse_wkt("MULTIPOLYGON EMPTY").unwrap(),
            Geometry::MultiPolygon(mp) if mp.0.is_empty()
        ));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_wkt("").is_err());
        assert!(parse_wkt("CIRCLE (0 0)").is_err());
        assert!(parse_wkt("POINT (1)").is_err());
        assert!(parse_wkt("POINT (1 2) extra").is_err());
        assert!(parse_wkt("LINESTRING (0 0, )").is_err());
        assert!(parse_wkt("POLYGON ((0 0, 1 1))").is_err()); // ring too short
        assert!(parse_wkt("POINT (nanna 2)").is_err());
        // Non-ASCII text where `EMPTY` could start.
        assert!(parse_wkt("POINT ééé").is_err());
        assert!(parse_wkt("LINESTRING-2.5é,").is_err());
    }

    /// Truncated inputs — the shapes a half-written snapshot file produces —
    /// must come back as typed errors pointing at the cut, never panics.
    #[test]
    fn truncated_inputs_give_typed_errors() {
        let unterminated = "POLYGON ((0 0, 1 1, 2 2, 0 0";
        let e = parse_wkt(unterminated).expect_err("must reject");
        assert!(
            e.offset <= unterminated.len(),
            "offset {} past end",
            e.offset
        );
        assert!(!e.message.is_empty());

        let cut_mid_pair = "LINESTRING (0 0, 1";
        let e = parse_wkt(cut_mid_pair).expect_err("must reject");
        assert!(e.offset >= "LINESTRING (".len(), "offset was {}", e.offset);

        for cut in [
            "POINT (",
            "POINT (1 ",
            "MULTILINESTRING ((0 0, 1 1), (2 2",
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0))",
            "LINESTRING (0 0,",
        ] {
            assert!(parse_wkt(cut).is_err(), "accepted truncation: {cut:?}");
        }
    }

    /// Every prefix of a valid document is handled — `Ok` only for prefixes
    /// that happen to be complete geometries, `Err` otherwise, no panics.
    #[test]
    fn all_prefixes_of_valid_wkt_are_handled() {
        let full = "MULTIPOLYGON (((0 0, 4 0, 4 4, 0 0), (1 1, 2 1, 1 2, 1 1)))";
        for end in 0..full.len() {
            let _ = parse_wkt(&full[..end]);
        }
        assert!(parse_wkt(full).is_ok());
    }

    #[test]
    fn error_carries_offset() {
        let e = parse_wkt("POINT (1 2) junk").unwrap_err();
        assert!(e.offset >= 11, "offset was {}", e.offset);
        assert!(e.to_string().contains("byte"));
    }

    #[test]
    fn roundtrip_point() {
        let g = parse_wkt("POINT (13.405 52.52)").unwrap();
        let s = to_wkt(&g);
        assert_eq!(s, "POINT (13.405 52.52)");
        assert_eq!(parse_wkt(&s).unwrap(), g);
    }

    #[test]
    fn roundtrip_scientific_notation_accepted() {
        let g = parse_wkt("POINT (1e1 2.5E-1)").unwrap();
        match g {
            Geometry::Point(p) => {
                assert!((p.lon - 10.0).abs() < 1e-12);
                assert!((p.lat - 0.25).abs() < 1e-12);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn writer_trims_trailing_zeros() {
        let g = Geometry::Point(GeoPoint::raw(1.5, -0.0));
        assert_eq!(to_wkt(&g), "POINT (1.5 0)");
    }

    #[test]
    fn roundtrip_polygon_preserves_structure() {
        let src = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))";
        let g = parse_wkt(src).unwrap();
        let g2 = parse_wkt(&to_wkt(&g)).unwrap();
        assert_eq!(g, g2);
    }
}
