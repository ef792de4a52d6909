//! Hostname geolocation: the Hoiho rule engine.
//!
//! Paper §4.2: "ISPs often encode geohints within the hostname assigned to
//! IP addresses … The Hoiho hostname-to-location geohints are available for
//! use in the form of a set of downloadable regular expressions … we
//! determine the city-country code from the hostnames by leveraging these
//! existing regexes … rather than learning and developing our own
//! hostname-location pairings."
//!
//! The engine compiles the rule file with `igdb-regex` and resolves the
//! captured token either through the public geocode dictionary (IATA-style
//! 3-letter codes) or by city-name slug comparison against the standard
//! metros.
//!
//! Hoiho's rules are per domain suffix, so a hostname is not run against
//! the whole file: each rule is filed under the whole-label tail
//! (`.atlas.cogentco.com`) that its own regex requires of every hostname
//! it can match ([`Regex::required_suffix`]), and a hostname probes that
//! index once per `.` it contains. Which rules are *tried* shrinks; which
//! rule *wins* — the first in file order whose capture resolves — does not.

use std::collections::HashMap;

use igdb_regex::Regex;
use igdb_synth::naming::{HoihoRule, TokenKind};

use crate::metros::MetroRegistry;

/// A compiled rule.
struct CompiledRule {
    regex: Regex,
    token_kind: TokenKind,
}

/// The rule engine: hostname in, standard metro out.
pub struct HoihoEngine {
    rules: Vec<CompiledRule>,
    /// Indexes into `rules`, ascending, by the tail the rule's regex
    /// requires: its `required_suffix` cut to start at its first `.`, so
    /// the key is what a hostname has from one of its dots to its end. The
    /// key never comes from `HoihoRule::domain`, which is free text.
    by_tail: HashMap<String, Vec<usize>>,
    /// Rules whose regex requires no such tail, ascending: tried on every
    /// hostname.
    untailed: Vec<usize>,
    /// geocode → metro id (the public dictionary).
    codes: HashMap<String, usize>,
    /// city-name slug → metro id.
    slugs: HashMap<String, usize>,
}

impl HoihoEngine {
    /// Compiles the rule file. Rules whose regex fails to compile are
    /// skipped (and counted) rather than aborting the build — a malformed
    /// rule in a community-maintained file must not poison the pipeline.
    pub fn build(
        rules: &[HoihoRule],
        geo_codes: &[(String, usize)],
        metros: &MetroRegistry,
    ) -> (Self, usize) {
        let mut compiled = Vec::with_capacity(rules.len());
        let mut by_tail: HashMap<String, Vec<usize>> = HashMap::new();
        let mut untailed = Vec::new();
        let mut skipped = 0;
        for r in rules {
            let Ok(regex) = Regex::new(&r.pattern) else {
                skipped += 1;
                continue;
            };
            let tail = regex
                .required_suffix()
                .and_then(|s| s.find('.').map(|dot| &s[dot..]));
            match tail {
                Some(tail) => by_tail
                    .entry(tail.to_string())
                    .or_default()
                    .push(compiled.len()),
                None => untailed.push(compiled.len()),
            }
            compiled.push(CompiledRule {
                regex,
                token_kind: r.token_kind,
            });
        }
        let codes = geo_codes.iter().cloned().collect();
        let slugs = metros
            .metros()
            .iter()
            .map(|m| (slugify(&m.name), m.id))
            .collect();
        (
            Self {
                rules: compiled,
                by_tail,
                untailed,
                codes,
                slugs,
            },
            skipped,
        )
    }

    /// Number of usable rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Geolocates a hostname: the standard metro its geohint names, if any
    /// rule matches and its token resolves. Rules apply in file order and
    /// the first whose capture resolves wins; only rules whose required
    /// tail the hostname ends with (and the untailed ones) are run.
    pub fn geolocate(&self, hostname: &str) -> Option<usize> {
        let host = hostname.to_ascii_lowercase();
        let mut candidates = self.untailed.clone();
        for (dot, _) in host.match_indices('.') {
            if let Some(filed) = self.by_tail.get(&host[dot..]) {
                candidates.extend_from_slice(filed);
            }
        }
        // Nested tails (`.foo.com`, `.atlas.foo.com`) and the untailed
        // rules interleave in the file; file order decides between them.
        candidates.sort_unstable();
        candidates
            .into_iter()
            .find_map(|i| self.apply(&self.rules[i], &host))
    }

    /// Runs one rule on a lower-cased hostname: the metro its captured
    /// token resolves to, `None` when it does not match or resolve.
    fn apply(&self, rule: &CompiledRule, host: &str) -> Option<usize> {
        let caps = rule.regex.captures(host)?;
        let token = caps.group(1)?;
        match rule.token_kind {
            TokenKind::GeoCode => self.codes.get(token).copied(),
            TokenKind::CitySlug => self.slugs.get(token).copied(),
        }
    }

    /// The reference `geolocate` is tested against: every rule, in file
    /// order, on every hostname.
    #[cfg(test)]
    fn geolocate_scan(&self, hostname: &str) -> Option<usize> {
        let host = hostname.to_ascii_lowercase();
        self.rules.iter().find_map(|rule| self.apply(rule, &host))
    }
}

/// Lowercase dash-slug, matching the convention of CityName hostnames.
pub fn slugify(name: &str) -> String {
    name.split_whitespace()
        .map(|w| w.to_ascii_lowercase())
        .collect::<Vec<_>>()
        .join("-")
}

#[cfg(test)]
mod tests {
    use super::*;
    use igdb_geo::GeoPoint;
    use igdb_synth::sources::NaturalEarthPlace;

    fn registry() -> MetroRegistry {
        let places: Vec<NaturalEarthPlace> = [
            ("Dresden", "DE", 13.738, 51.051),
            ("Kansas City", "US", -94.579, 39.100),
            ("Hong Kong", "HK", 114.169, 22.319),
        ]
        .into_iter()
        .map(|(n, c, lon, lat)| NaturalEarthPlace {
            name: n.to_string(),
            state: String::new(),
            country: c.to_string(),
            loc: GeoPoint::new(lon, lat),
            population: 1000,
        })
        .collect();
        MetroRegistry::build(&places)
    }

    fn rules() -> Vec<HoihoRule> {
        vec![
            HoihoRule {
                pattern: r"\.rcr\d+\.([a-z]{3})\d{2}\.atlas\.example\.com$".to_string(),
                token_kind: TokenKind::GeoCode,
                domain: "example.com".to_string(),
            },
            HoihoRule {
                pattern: r"^xe-\d+\.([a-z0-9-]+)\.citystyle\.net$".to_string(),
                token_kind: TokenKind::CitySlug,
                domain: "citystyle.net".to_string(),
            },
        ]
    }

    fn codes() -> Vec<(String, usize)> {
        vec![
            ("drs".to_string(), 0),
            ("kcy".to_string(), 1),
            ("hkg".to_string(), 2),
        ]
    }

    #[test]
    fn geocode_rule_resolves() {
        let reg = registry();
        let (engine, skipped) = HoihoEngine::build(&rules(), &codes(), &reg);
        assert_eq!(skipped, 0);
        assert_eq!(engine.rule_count(), 2);
        assert_eq!(
            engine.geolocate("be2695.rcr21.drs01.atlas.example.com"),
            Some(0)
        );
        assert_eq!(
            engine.geolocate("be3701.rcr11.hkg02.atlas.example.com"),
            Some(2)
        );
    }

    #[test]
    fn slug_rule_resolves() {
        let reg = registry();
        let (engine, _) = HoihoEngine::build(&rules(), &codes(), &reg);
        assert_eq!(engine.geolocate("xe-3.kansas-city.citystyle.net"), Some(1));
        assert_eq!(engine.geolocate("xe-3.hong-kong.citystyle.net"), Some(2));
    }

    #[test]
    fn unknown_token_or_no_match_is_none() {
        let reg = registry();
        let (engine, _) = HoihoEngine::build(&rules(), &codes(), &reg);
        assert_eq!(engine.geolocate("be1.rcr2.zzz01.atlas.example.com"), None);
        assert_eq!(engine.geolocate("ip-10-1-2-3.opaque.net"), None);
        assert_eq!(engine.geolocate("xe-1.atlantis.citystyle.net"), None);
    }

    #[test]
    fn hostname_case_insensitive() {
        let reg = registry();
        let (engine, _) = HoihoEngine::build(&rules(), &codes(), &reg);
        assert_eq!(
            engine.geolocate("BE2695.RCR21.DRS01.ATLAS.EXAMPLE.COM"),
            Some(0)
        );
    }

    #[test]
    fn malformed_rule_skipped_not_fatal() {
        let reg = registry();
        let mut rs = rules();
        rs.push(HoihoRule {
            pattern: "(((".to_string(),
            token_kind: TokenKind::GeoCode,
            domain: "broken.example".to_string(),
        });
        let (engine, skipped) = HoihoEngine::build(&rs, &codes(), &reg);
        assert_eq!(skipped, 1);
        assert_eq!(engine.rule_count(), 2);
    }

    fn rule(pattern: &str, token_kind: TokenKind) -> HoihoRule {
        HoihoRule {
            pattern: pattern.to_string(),
            token_kind,
            // Deliberately useless: the index must not read it.
            domain: "provenance only".to_string(),
        }
    }

    fn assert_same_as_scan(engine: &HoihoEngine, host: &str) -> Option<usize> {
        let got = engine.geolocate(host);
        assert_eq!(got, engine.geolocate_scan(host), "host {host:?}");
        got
    }

    #[test]
    fn rules_are_filed_by_the_tail_their_regex_requires() {
        let reg = registry();
        let rs = [
            rule(r"\.([a-z]{3})\d{2}\.atlas\.foo\.com$", TokenKind::GeoCode),
            rule(r"([a-z]{3})\d{2}s\.foo\.com$", TokenKind::GeoCode),
            rule(r"^xe-\d+\.([a-z-]+)\.foo\.com", TokenKind::CitySlug),
            rule(r"\.([a-z]{3})\.com$|\.([a-z]{3})\.net$", TokenKind::GeoCode),
            rule(r"([a-z]{3})-gw$", TokenKind::GeoCode),
            rule(r"\.([a-z]{3})\.$", TokenKind::GeoCode),
        ];
        let (engine, _) = HoihoEngine::build(&rs, &codes(), &reg);
        assert_eq!(engine.by_tail[".atlas.foo.com"], [0]);
        assert_eq!(engine.by_tail[".foo.com"], [1]);
        assert_eq!(engine.by_tail["."], [5]);
        assert_eq!(engine.by_tail.len(), 3);
        assert_eq!(engine.untailed, [2, 3, 4]);
        for (host, want) in [
            ("a.drs01.atlas.foo.com", Some(0)),
            ("kcy02s.foo.com", Some(1)),
            ("xe-1.hong-kong.foo.com.example", Some(2)),
            ("a.kcy.com", Some(1)),
            ("hkg-gw", Some(2)),
            ("a.drs.", Some(0)),
            ("a.drs01.atlas.foo.com.", None),
            ("", None),
            (".", None),
        ] {
            assert_eq!(assert_same_as_scan(&engine, host), want, "host {host:?}");
        }
    }

    #[test]
    fn file_order_decides_across_nested_tails_and_unresolved_tokens() {
        let reg = registry();
        // One hostname, four rules that all match it and capture a
        // different label each; whichever comes first in the file and
        // resolves must win, wherever the index filed it.
        let first = rule(r"^([a-z]{3})\d\.", TokenKind::GeoCode); // untailed
        let outer = rule(r"\.([a-z]{3})\d\.[a-z]+\.foo\.com$", TokenKind::GeoCode);
        let inner = rule(r"\.([a-z]{3})\d\.atlas\.foo\.com$", TokenKind::GeoCode);
        let slug = rule(
            r"\.([a-z-]+)\.[a-z]{3}\d\.atlas\.foo\.com$",
            TokenKind::CitySlug,
        );
        let host = "drs1.kansas-city.hkg2.atlas.foo.com";
        for (rules, want) in [
            (vec![&first, &outer, &inner, &slug], 0),
            (vec![&outer, &first, &inner, &slug], 2),
            (vec![&inner, &outer, &first, &slug], 2),
            (vec![&slug, &inner, &outer, &first], 1),
        ] {
            let rs: Vec<HoihoRule> = rules.into_iter().cloned().collect();
            let (engine, _) = HoihoEngine::build(&rs, &codes(), &reg);
            assert_eq!(assert_same_as_scan(&engine, host), Some(want));
        }
        // An earlier rule that matches but whose token is not in its
        // dictionary does not end the search: the slug pattern read as a
        // geocode captures "kansas-city", which is no code.
        let unresolved = HoihoRule {
            token_kind: TokenKind::GeoCode,
            ..slug.clone()
        };
        let rs = vec![unresolved, slug.clone(), slug, inner];
        let (engine, _) = HoihoEngine::build(&rs, &codes(), &reg);
        assert_eq!(assert_same_as_scan(&engine, host), Some(1));
    }

    #[test]
    fn tiny_world_corpus_matches_the_scan() {
        use igdb_synth::{emit_snapshots, World, WorldConfig};
        let world = World::generate(WorldConfig::tiny());
        let snaps = emit_snapshots(&world, "2022-05-03", 50);
        let reg = MetroRegistry::build(&snaps.natural_earth);
        let (engine, skipped) = HoihoEngine::build(&snaps.hoiho_rules, &snaps.geo_codes, &reg);
        assert_eq!(skipped, 0);
        // Every emitted convention spells its domain out before `$`, so no
        // rule is left to run on every hostname.
        assert!(engine.rule_count() > 0 && engine.untailed.is_empty());
        let located = snaps
            .rdns
            .iter()
            .filter(|r| assert_same_as_scan(&engine, &r.hostname).is_some())
            .count();
        assert!(
            located > 20,
            "only {located} of {} located",
            snaps.rdns.len()
        );
    }

    /// Rule conventions the generated files draw from; `{d}` is a domain
    /// with its dots escaped. Between them: end-anchored rules (keyed by
    /// tail — shared when two pick one domain, nested when they pick
    /// `foo.com` and `atlas.foo.com`), a suffix that starts mid-label,
    /// start-anchored-only, un-anchored and dot-less rules (untailed), a
    /// top-level alternation, an upper-case tail no lower-cased hostname
    /// has, and a tail ending in the root dot. They capture different
    /// labels of one hostname, so which rule comes first shows.
    const CONVENTIONS: [&str; 10] = [
        r"\.rcr\d+\.([a-z]{3})\d{2}\.{d}$",
        r"^([a-z-]+)\d\..*\.{d}$",
        r"^xe-\d+\.([a-z0-9-]+)\.{d}$",
        r"([a-z]{3})\d{2}s\.{d}$",
        r"^xe-\d+\.([a-z0-9-]+)\.{d}",
        r"^([a-z]{3})\d*[.-]",
        r"\.([a-z]{3})\d{2}\.{d}$|^xe-\d+\.([a-z0-9-]+)\.{d}$",
        r"([a-z-]+)\.[a-z.]*{D}$",
        r"\.([a-z]{3})\d{2}\.{d}\.$",
        r"([a-z]{3})-gw$",
    ];
    const DOMAINS: [&str; 3] = ["foo.com", "atlas.foo.com", "bar.net"];
    const TOKENS: [&str; 6] = ["drs", "kcy", "hkg", "zzz", "kansas-city", "atlantis"];

    fn generated_rule((convention, domain, geocode): (usize, usize, bool)) -> HoihoRule {
        let d = DOMAINS[domain].replace('.', r"\.");
        rule(
            &CONVENTIONS[convention]
                .replace("{d}", &d)
                .replace("{D}", &d.to_ascii_uppercase()),
            if geocode {
                TokenKind::GeoCode
            } else {
                TokenKind::CitySlug
            },
        )
    }

    /// A hostname in one of the conventions above (or opaque, or empty),
    /// optionally upper-cased and optionally with the root dot.
    fn generated_host(
        (shape, a, b, domain): (usize, usize, usize, usize),
        (upper, root_dot): (bool, bool),
    ) -> String {
        let (a, b, d) = (TOKENS[a], TOKENS[b], DOMAINS[domain]);
        let host = match shape {
            0 | 1 => format!("{a}1.rcr21.{b}01.{d}"),
            2 => format!("xe-3.{b}.{d}"),
            3 => format!("{a}-7.{b}02s.{d}"),
            4 => format!("ip-10-1-2-3.{d}"),
            5 => format!("{a}-gw"),
            6 => format!("xe-3.{b}.{d}.example.org"),
            _ => String::new(),
        };
        let host = if upper {
            host.to_ascii_uppercase()
        } else {
            host
        };
        if root_dot {
            host + "."
        } else {
            host
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// The tentpole property: on any rule file and any hostname the
        /// index answers exactly what running every rule in order answers.
        #[test]
        fn indexed_geolocate_equals_the_scan(
            picks in proptest::collection::vec((0usize..10, 0usize..3, proptest::bool::weighted(0.7)), 0..12),
            duplicate in proptest::arbitrary::any::<bool>(),
            hosts in proptest::collection::vec(
                (
                    (0usize..8, 0usize..6, 0usize..6, 0usize..3),
                    (proptest::bool::weighted(0.2), proptest::bool::weighted(0.2)),
                ),
                1..12,
            ),
        ) {
            let mut rs: Vec<HoihoRule> = picks.into_iter().map(generated_rule).collect();
            if duplicate {
                rs.extend_from_within(..rs.len() / 2);
            }
            let (engine, skipped) = HoihoEngine::build(&rs, &codes(), &registry());
            proptest::prop_assert_eq!(skipped, 0);
            for (shape, flags) in hosts {
                let host = generated_host(shape, flags);
                proptest::prop_assert_eq!(
                    engine.geolocate(&host),
                    engine.geolocate_scan(&host),
                    "host {:?} under {:?}",
                    host,
                    rs.iter().map(|r| &r.pattern).collect::<Vec<_>>()
                );
            }
        }
    }
}
