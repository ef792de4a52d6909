//! Hostname conventions and geocodes — the rDNS side of the world.
//!
//! Real ISPs encode location hints in router hostnames
//! (`be2695.rcr21.drs01.atlas.cogentco.com` → Dresden), and Hoiho ships the
//! regexes that extract them (paper §4.2). Here we build the synthetic
//! equivalent: a collision-free geocode per city (3 letters, spilling
//! to 4 at planet scale), per-AS hostname
//! conventions in three styles (geocode, city-name, opaque), and the
//! matching Hoiho-style rule set (regex strings consumed by `igdb-core`'s
//! rule engine, exactly like the downloadable Hoiho file).

use std::collections::HashMap;

use crate::ases::{RdnsStyle, SynthAs};
use crate::cities::{base_geocode, City};
use igdb_net::Ip4;

/// Bidirectional city ↔ 3-letter-code mapping with collision resolution.
pub struct GeoCodebook {
    code_of: Vec<String>,
    city_of: HashMap<String, usize>,
}

impl GeoCodebook {
    /// Assigns every city a unique code: the natural `base_geocode`, or the
    /// first free mutation of it. Worlds past the 26³ space (17,576 codes —
    /// enough for the paper's 7,342 urban areas, not for the large/planet
    /// tiers) spill the remaining cities into 4-letter codes; assignments
    /// inside the 3-letter space are unaffected, so smaller worlds emit
    /// byte-identical codebooks.
    pub fn build(cities: &[City]) -> Self {
        const SPACE3: usize = 26 * 26 * 26;
        let render3 = |n: usize| {
            format!(
                "{}{}{}",
                (b'a' + (n / 676) as u8) as char,
                (b'a' + (n / 26 % 26) as u8) as char,
                (b'a' + (n % 26) as u8) as char
            )
        };
        let mut code_of = Vec::with_capacity(cities.len());
        let mut city_of: HashMap<String, usize> = HashMap::new();
        // Count of assigned 3-letter codes: once the space is full, later
        // cities skip straight to the 4-letter spill instead of probing
        // all 17,576 occupied slots.
        let mut used3 = 0usize;
        for city in cities {
            let base = base_geocode(&city.name);
            // Treat the code as a base-26 number and probe upward (with
            // wraparound) until a free slot appears.
            let b = base.as_bytes();
            let mut n =
                (b[0] - b'a') as usize * 676 + (b[1] - b'a') as usize * 26 + (b[2] - b'a') as usize;
            let mut code = base.clone();
            if used3 >= SPACE3 {
                // Spill: probe the 26⁴ space from the same base position.
                // The Hoiho geocode rule captures `[a-z]{3,4}`, so spilled
                // codes stay resolvable.
                let mut m = n * 26;
                code = format!("{}{}", render3(m / 26), (b'a' + (m % 26) as u8) as char);
                while city_of.contains_key(&code) {
                    m = (m + 1) % (SPACE3 * 26);
                    code = format!("{}{}", render3(m / 26), (b'a' + (m % 26) as u8) as char);
                }
            } else {
                while city_of.contains_key(&code) {
                    n = (n + 1) % SPACE3;
                    code = render3(n);
                }
                used3 += 1;
            }
            city_of.insert(code.clone(), city.id);
            code_of.push(code);
        }
        Self { code_of, city_of }
    }

    pub fn code(&self, city: usize) -> &str {
        &self.code_of[city]
    }

    pub fn city(&self, code: &str) -> Option<usize> {
        self.city_of.get(code).copied()
    }

    pub fn len(&self) -> usize {
        self.code_of.len()
    }

    pub fn is_empty(&self) -> bool {
        self.code_of.is_empty()
    }
}

/// Lowercase dash-slug of a city name ("Kansas City" → "kansas-city").
pub fn city_slug(name: &str) -> String {
    name.split_whitespace()
        .map(|w| w.to_ascii_lowercase())
        .collect::<Vec<_>>()
        .join("-")
}

/// DNS-safe lowercase domain stem of an AS brand.
pub fn brand_domain(brand: &str) -> String {
    brand
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Builds the PTR hostname for one router interface, or `None` when the
/// owning AS publishes no rDNS.
///
/// `iface_serial` differentiates interfaces on the same router.
pub fn hostname_for(
    a: &SynthAs,
    city: &City,
    codebook: &GeoCodebook,
    ip: Ip4,
    iface_serial: u32,
) -> Option<String> {
    let dom = brand_domain(&a.names.brand);
    match a.rdns_style {
        RdnsStyle::GeoCode => Some(format!(
            "be{}.rcr{}.{}{:02}.atlas.{}.com",
            1000 + iface_serial,
            10 + (iface_serial % 40),
            codebook.code(city.id),
            1 + (iface_serial % 4),
            dom
        )),
        RdnsStyle::CityName => Some(format!(
            "xe-{}.{}.{}.net",
            iface_serial % 8,
            city_slug(&city.name),
            dom
        )),
        RdnsStyle::Opaque => {
            let o = ip.octets();
            Some(format!(
                "ip-{}-{}-{}-{}.{}.net",
                o[0], o[1], o[2], o[3], dom
            ))
        }
        RdnsStyle::None => None,
    }
}

/// One Hoiho-style geolocation rule: a regex whose first capture group
/// yields a location token, plus how to interpret the token.
#[derive(Clone, Debug, PartialEq)]
pub struct HoihoRule {
    /// The regex source text (consumed by `igdb-regex`).
    pub pattern: String,
    /// How to map capture group 1 to a city.
    pub token_kind: TokenKind,
    /// Human-readable provenance, e.g. the domain the rule was learnt for.
    pub domain: String,
}

/// Interpretation of a rule's captured token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// 3-letter geocode, resolved through the codebook.
    GeoCode,
    /// City-name slug, resolved by slug comparison.
    CitySlug,
}

/// Emits the Hoiho rule set: one rule per AS whose hostname convention
/// encodes location. (Opaque and silent ASes produce no rule — exactly why
/// the paper finds only ~14% of resolving hostnames geolocatable.)
pub fn hoiho_rules(ases: &[SynthAs]) -> Vec<HoihoRule> {
    let mut rules = Vec::new();
    for a in ases {
        let dom = brand_domain(&a.names.brand);
        match a.rdns_style {
            RdnsStyle::GeoCode => rules.push(HoihoRule {
                pattern: format!(r"\.rcr\d+\.([a-z]{{3,4}})\d{{2}}\.atlas\.{dom}\.com$"),
                token_kind: TokenKind::GeoCode,
                domain: format!("{dom}.com"),
            }),
            RdnsStyle::CityName => rules.push(HoihoRule {
                pattern: format!(r"^xe-\d+\.([a-z0-9-]+)\.{dom}\.net$"),
                token_kind: TokenKind::CitySlug,
                domain: format!("{dom}.net"),
            }),
            RdnsStyle::Opaque | RdnsStyle::None => {}
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ases::{AsClass, AsNames, InternalEdge};
    use crate::cities::build_cities;
    use igdb_net::Asn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mk_as(style: RdnsStyle) -> SynthAs {
        SynthAs {
            asn: Asn(64500),
            class: AsClass::Tier2,
            names: AsNames {
                brand: "Veralink".into(),
                asrank_as_name: "VERALINK-64500".into(),
                peeringdb_as_name: "as-veralink".into(),
                asrank_org: "Veralink Communications, LLC".into(),
                peeringdb_org: "Veralink - AS64500".into(),
                pch_org: "Veralink Networks B.V.".into(),
            },
            region: None,
            footprint: vec![0],
            declared_footprint: vec![0],
            internal_edges: Vec::<InternalEdge>::new(),
            rdns_style: style,
            mpls: false,
            in_atlas: true,
        }
    }

    #[test]
    fn codebook_codes_unique_and_reversible() {
        let mut rng = StdRng::seed_from_u64(3);
        let cities = build_cities(2000, &mut rng);
        let book = GeoCodebook::build(&cities);
        assert_eq!(book.len(), 2000);
        let mut seen = std::collections::HashSet::new();
        for c in &cities {
            let code = book.code(c.id);
            assert_eq!(code.len(), 3);
            assert!(code.chars().all(|ch| ch.is_ascii_lowercase()));
            assert!(seen.insert(code.to_string()), "duplicate code {code}");
            assert_eq!(book.city(code), Some(c.id), "code {code} not reversible");
        }
        assert_eq!(book.city("zz9"), None);
    }

    #[test]
    fn hostname_styles() {
        let mut rng = StdRng::seed_from_u64(3);
        let cities = build_cities(260, &mut rng);
        let book = GeoCodebook::build(&cities);
        let kc = cities.iter().find(|c| c.name == "Kansas City").unwrap();
        let ip: Ip4 = "10.1.2.3".parse().unwrap();

        let h = hostname_for(&mk_as(RdnsStyle::GeoCode), kc, &book, ip, 7).unwrap();
        assert!(h.contains(".atlas.veralink.com"), "{h}");
        assert!(h.contains(book.code(kc.id)), "{h}");

        let h2 = hostname_for(&mk_as(RdnsStyle::CityName), kc, &book, ip, 7).unwrap();
        assert!(h2.contains("kansas-city"), "{h2}");

        let h3 = hostname_for(&mk_as(RdnsStyle::Opaque), kc, &book, ip, 7).unwrap();
        assert!(h3.starts_with("ip-10-1-2-3."), "{h3}");

        assert!(hostname_for(&mk_as(RdnsStyle::None), kc, &book, ip, 7).is_none());
    }

    #[test]
    fn rules_match_generated_hostnames() {
        use igdb_regex::Regex;
        let mut rng = StdRng::seed_from_u64(3);
        let cities = build_cities(260, &mut rng);
        let book = GeoCodebook::build(&cities);
        let kc = cities.iter().find(|c| c.name == "Kansas City").unwrap();
        let ip: Ip4 = "10.1.2.3".parse().unwrap();

        let geo_as = mk_as(RdnsStyle::GeoCode);
        let city_as = mk_as(RdnsStyle::CityName);
        let rules = hoiho_rules(&[geo_as.clone(), city_as.clone(), mk_as(RdnsStyle::Opaque)]);
        assert_eq!(rules.len(), 2, "opaque AS must not emit a rule");

        let h = hostname_for(&geo_as, kc, &book, ip, 3).unwrap();
        let re = Regex::new(&rules[0].pattern).unwrap();
        let caps = re
            .captures(&h)
            .expect("geo rule must match its own hostnames");
        assert_eq!(book.city(caps.group(1).unwrap()), Some(kc.id));

        let h2 = hostname_for(&city_as, kc, &book, ip, 3).unwrap();
        let re2 = Regex::new(&rules[1].pattern).unwrap();
        let caps2 = re2.captures(&h2).expect("slug rule must match");
        assert_eq!(caps2.group(1).unwrap(), "kansas-city");
    }

    #[test]
    fn slug_and_domain_sanitization() {
        assert_eq!(city_slug("Ho Chi Minh City"), "ho-chi-minh-city");
        assert_eq!(brand_domain("Véra Link9"), "vralink9");
    }
}
