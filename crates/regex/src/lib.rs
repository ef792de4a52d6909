//! `igdb-regex` — a from-scratch regular-expression engine.
//!
//! iGDB geolocates router interfaces by matching their reverse-DNS
//! hostnames against the Hoiho rule set — "a set of downloadable regular
//! expressions" (paper §4.2) that extract airport/city codes from names
//! like `be2695.rcr21.drs01.atlas.cogentco.com`. No regex crate is in the
//! approved offline set, and a pattern matcher over hostname conventions is
//! a well-scoped substrate, so this crate implements one:
//!
//! * [`parse`] — pattern text → AST (literals, `.`, escapes `\d \w \s`,
//!   character classes with ranges and negation, groups `( )` and `(?: )`,
//!   alternation `|`, quantifiers `* + ? {m} {m,} {m,n}` with lazy `?`
//!   variants, anchors `^ $`).
//! * [`compile`] — AST → NFA program, refused with a typed error when it
//!   would exceed 100,000 instructions.
//! * [`vm`] — a Pike VM executing the program with capture-group tracking
//!   in linear time (no backtracking, no pathological inputs).
//!
//! The public surface is [`Regex`]: compile once, then [`Regex::is_match`],
//! [`Regex::find`] and [`Regex::captures`]. [`Regex::required_suffix`] is a
//! literal analysis of the pattern: the string every match must end with,
//! which lets a caller holding many rules index them instead of running
//! each one.

pub mod compile;
pub mod parse;
pub mod vm;

pub use parse::RegexError;

use compile::Program;
use parse::Ast;

/// A compiled regular expression.
///
/// ```
/// use igdb_regex::Regex;
/// // A Hoiho-style rule: extract the 3-letter location code from a
/// // Cogent-style router hostname.
/// let re = Regex::new(r"\.(?:rcr|ccr|nr)\d+\.([a-z]{3})\d{2}\.atlas\.cogentco\.com$").unwrap();
/// let caps = re.captures("be2695.rcr21.drs01.atlas.cogentco.com").unwrap();
/// assert_eq!(caps.group(1), Some("drs"));
/// ```
pub struct Regex {
    program: Program,
    pattern: String,
    required_suffix: Option<String>,
}

/// A successful match: overall span plus capture-group spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Captures<'t> {
    text: &'t str,
    /// Byte-span per slot pair; index 0 is the whole match.
    spans: Vec<Option<(usize, usize)>>,
}

impl<'t> Captures<'t> {
    /// The text of capture group `i` (0 = whole match), if it participated
    /// in the match.
    pub fn group(&self, i: usize) -> Option<&'t str> {
        let (s, e) = (*self.spans.get(i)?)?;
        Some(&self.text[s..e])
    }

    /// The byte span of group `i`.
    pub fn span(&self, i: usize) -> Option<(usize, usize)> {
        *self.spans.get(i)?
    }

    /// Number of groups including group 0.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl Regex {
    /// Compiles a pattern.
    pub fn new(pattern: &str) -> Result<Self, RegexError> {
        let ast = parse::parse(pattern)?;
        let program = compile::compile(&ast)?;
        Ok(Self {
            program,
            pattern: pattern.to_string(),
            required_suffix: required_suffix(&ast),
        })
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of capture groups (excluding group 0).
    pub fn group_count(&self) -> usize {
        self.program.groups
    }

    /// A literal every text this pattern matches must end with, when the
    /// pattern spells one out: for `\.atlas\.cogentco\.com$` it is
    /// `.atlas.cogentco.com`. `None` promises nothing — the pattern may
    /// still only match texts with a common ending (`(\.com)$`,
    /// `\.com$|\.net$`); `Some(s)` promises `text.ends_with(s)` whenever
    /// [`Regex::is_match`] holds. Matching is case-sensitive, so is `s`.
    pub fn required_suffix(&self) -> Option<&str> {
        self.required_suffix.as_deref()
    }

    /// True if the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        vm::search(&self.program, text).is_some()
    }

    /// Leftmost match with capture groups.
    pub fn captures<'t>(&self, text: &'t str) -> Option<Captures<'t>> {
        let slots = vm::search(&self.program, text)?;
        let spans = slots
            .chunks(2)
            .map(|c| match (c[0], c[1]) {
                (Some(s), Some(e)) if s <= e => Some((s, e)),
                _ => None,
            })
            .collect();
        Some(Captures { text, spans })
    }

    /// The span and text of the leftmost match.
    pub fn find<'t>(&self, text: &'t str) -> Option<(usize, usize, &'t str)> {
        let caps = self.captures(text)?;
        let (s, e) = caps.span(0)?;
        Some((s, e, &text[s..e]))
    }
}

/// The literal analysis behind [`Regex::required_suffix`]: when the whole
/// pattern is a concatenation ending in `$`, the maximal run of plain
/// literals just before it. Sound because `$` is strict end-of-input here
/// (no multi-line mode, no optional trailing newline) and every item of a
/// top-level concatenation takes part in every match.
fn required_suffix(ast: &Ast) -> Option<String> {
    let Ast::Concat(items) = ast else {
        return None;
    };
    let (Ast::AnchorEnd, before) = items.split_last()? else {
        return None;
    };
    let mut suffix: Vec<char> = before
        .iter()
        .rev()
        .map_while(|item| match item {
            Ast::Literal(c) => Some(*c),
            _ => None,
        })
        .collect();
    suffix.reverse();
    (!suffix.is_empty()).then(|| suffix.into_iter().collect())
}

impl std::fmt::Debug for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Regex({:?})", self.pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(pat: &str, text: &str, group: usize) -> Option<String> {
        Regex::new(pat)
            .unwrap()
            .captures(text)
            .and_then(|c| c.group(group).map(str::to_string))
    }

    #[test]
    fn literal_match() {
        let re = Regex::new("abc").unwrap();
        assert!(re.is_match("abc"));
        assert!(re.is_match("xxabcxx"));
        assert!(!re.is_match("ab"));
        assert!(!re.is_match("acb"));
    }

    #[test]
    fn find_leftmost() {
        let re = Regex::new("ab").unwrap();
        assert_eq!(re.find("xxabyyab"), Some((2, 4, "ab")));
    }

    #[test]
    fn dot_and_anchors() {
        assert!(Regex::new("^a.c$").unwrap().is_match("abc"));
        assert!(!Regex::new("^a.c$").unwrap().is_match("xabc"));
        assert!(!Regex::new("^a.c$").unwrap().is_match("abcx"));
        assert!(!Regex::new("a.c").unwrap().is_match("ac"));
    }

    #[test]
    fn escape_classes() {
        assert!(Regex::new(r"^\d+$").unwrap().is_match("12345"));
        assert!(!Regex::new(r"^\d+$").unwrap().is_match("12a45"));
        assert!(Regex::new(r"^\w+$").unwrap().is_match("ab_9"));
        assert!(!Regex::new(r"^\w+$").unwrap().is_match("a b"));
        assert!(Regex::new(r"^\s$").unwrap().is_match(" "));
        assert!(Regex::new(r"^\D+$").unwrap().is_match("abc"));
        assert!(!Regex::new(r"^\D+$").unwrap().is_match("a1c"));
    }

    #[test]
    fn char_classes() {
        let re = Regex::new("^[a-f0-9]+$").unwrap();
        assert!(re.is_match("deadbeef42"));
        assert!(!re.is_match("xyz"));
        let neg = Regex::new("^[^0-9]+$").unwrap();
        assert!(neg.is_match("abc-def"));
        assert!(!neg.is_match("ab3"));
        // Literal dash at the end of a class.
        assert!(Regex::new("^[a-]+$").unwrap().is_match("a-a"));
        assert!(Regex::new(r"^[\]]+$").unwrap().is_match("]]"));
    }

    #[test]
    fn class_with_escapes_inside() {
        let re = Regex::new(r"^[\d\-]+$").unwrap();
        assert!(re.is_match("12-34"));
        assert!(!re.is_match("a"));
    }

    #[test]
    fn quantifiers() {
        assert!(Regex::new("^ab*c$").unwrap().is_match("ac"));
        assert!(Regex::new("^ab*c$").unwrap().is_match("abbbc"));
        assert!(Regex::new("^ab+c$").unwrap().is_match("abc"));
        assert!(!Regex::new("^ab+c$").unwrap().is_match("ac"));
        assert!(Regex::new("^ab?c$").unwrap().is_match("ac"));
        assert!(Regex::new("^ab?c$").unwrap().is_match("abc"));
        assert!(!Regex::new("^ab?c$").unwrap().is_match("abbc"));
    }

    #[test]
    fn counted_repetition() {
        let re = Regex::new(r"^[a-z]{3}$").unwrap();
        assert!(re.is_match("ord"));
        assert!(!re.is_match("or"));
        assert!(!re.is_match("ordx"));
        let re2 = Regex::new(r"^\d{2,4}$").unwrap();
        assert!(!re2.is_match("1"));
        assert!(re2.is_match("12"));
        assert!(re2.is_match("1234"));
        assert!(!re2.is_match("12345"));
        let re3 = Regex::new(r"^a{2,}$").unwrap();
        assert!(!re3.is_match("a"));
        assert!(re3.is_match("aaaa"));
        let re0 = Regex::new(r"^a{0}b$").unwrap();
        assert!(re0.is_match("b"));
        assert!(!re0.is_match("ab"));
    }

    #[test]
    fn alternation() {
        let re = Regex::new("^(cat|dog|bird)$").unwrap();
        assert!(re.is_match("cat"));
        assert!(re.is_match("dog"));
        assert!(re.is_match("bird"));
        assert!(!re.is_match("cow"));
        let re2 = Regex::new("^a(b|)c$").unwrap();
        assert!(re2.is_match("abc"));
        assert!(re2.is_match("ac"));
    }

    #[test]
    fn groups_capture() {
        assert_eq!(cap(r"(\d+)-(\d+)", "a 12-34 b", 1).as_deref(), Some("12"));
        assert_eq!(cap(r"(\d+)-(\d+)", "a 12-34 b", 2).as_deref(), Some("34"));
        assert_eq!(
            cap(r"(\d+)-(\d+)", "a 12-34 b", 0).as_deref(),
            Some("12-34")
        );
    }

    #[test]
    fn nested_and_noncapturing_groups() {
        assert_eq!(cap(r"((a+)b)", "xaab", 1).as_deref(), Some("aab"));
        assert_eq!(cap(r"((a+)b)", "xaab", 2).as_deref(), Some("aa"));
        assert_eq!(cap(r"(?:abc)+(d)", "abcabcd", 1).as_deref(), Some("d"));
    }

    #[test]
    fn unmatched_group_is_none() {
        let re = Regex::new(r"(a)|(b)").unwrap();
        let c = re.captures("b").unwrap();
        assert_eq!(c.group(1), None);
        assert_eq!(c.group(2), Some("b"));
    }

    #[test]
    fn greedy_vs_lazy() {
        assert_eq!(cap(r"<(.+)>", "<a><b>", 1).as_deref(), Some("a><b"));
        assert_eq!(cap(r"<(.+?)>", "<a><b>", 1).as_deref(), Some("a"));
        assert_eq!(cap(r"a(b*?)b", "abbb", 1).as_deref(), Some(""));
    }

    #[test]
    fn repeated_group_captures_last_iteration() {
        assert_eq!(cap(r"(?:(\d)x)+", "1x2x3x", 1).as_deref(), Some("3"));
    }

    #[test]
    fn escaped_metacharacters() {
        assert!(Regex::new(r"^a\.b$").unwrap().is_match("a.b"));
        assert!(!Regex::new(r"^a\.b$").unwrap().is_match("axb"));
        assert!(Regex::new(r"^\(\)$").unwrap().is_match("()"));
        assert!(Regex::new(r"^\{\}$").unwrap().is_match("{}"));
        assert!(Regex::new(r"\$\^").unwrap().is_match("a$^b"));
        assert!(Regex::new(r"^a\\b$").unwrap().is_match(r"a\b"));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "(", ")", "a)", "(a", "[a", "a{2,1}", "a**", "*a", r"\q", "a{", "a{x}", "(?",
        ] {
            assert!(Regex::new(bad).is_err(), "{bad:?} should fail to parse");
        }
    }

    #[test]
    fn empty_pattern_matches_empty() {
        let re = Regex::new("").unwrap();
        assert!(re.is_match(""));
        assert!(re.is_match("abc"));
        assert_eq!(re.find("abc"), Some((0, 0, "")));
    }

    #[test]
    fn hoiho_style_cogent_rule() {
        let re =
            Regex::new(r"\.(?:rcr|ccr|nr)\d+\.([a-z]{3})\d{2}\.atlas\.cogentco\.com$").unwrap();
        for (host, code) in [
            ("be2695.rcr21.drs01.atlas.cogentco.com", "drs"),
            ("be3172.rcr21.syr01.atlas.cogentco.com", "syr"),
            ("be3701.ccr21.hkg02.atlas.cogentco.com", "hkg"),
        ] {
            let caps = re.captures(host);
            assert_eq!(
                caps.as_ref().and_then(|c| c.group(1)),
                Some(code),
                "host {host}"
            );
        }
        assert!(!re.is_match("www.cogentco.com"));
    }

    #[test]
    fn hoiho_style_airport_code_with_iata_list() {
        let re = Regex::new(r"\.(ord|dfw|iah|atl|mci)\d*\.[a-z]+\.net$").unwrap();
        assert_eq!(
            re.captures("xe-0-0-0.ord1.backbone.net")
                .unwrap()
                .group(1)
                .unwrap(),
            "ord"
        );
        assert!(!re.is_match("xe-0-0-0.zzz1.backbone.net"));
    }

    #[test]
    fn linear_time_on_pathological_input() {
        // (a+)+b against aaaa…c is exponential for backtrackers; the Pike
        // VM must finish instantly.
        let re = Regex::new("(a+)+b").unwrap();
        let text = "a".repeat(2000) + "c";
        let start = std::time::Instant::now();
        assert!(!re.is_match(&text));
        assert!(start.elapsed().as_secs() < 2, "not linear time");
    }

    #[test]
    fn unicode_text_does_not_panic() {
        let re = Regex::new("a.c").unwrap();
        assert!(re.is_match("aéc"));
        assert!(re.is_match("日本aXc語"));
    }

    #[test]
    fn group_count_reported() {
        assert_eq!(Regex::new(r"(a)(b(c))").unwrap().group_count(), 3);
        assert_eq!(Regex::new(r"(?:a)").unwrap().group_count(), 0);
    }
}
