//! Property-based tests: the Pike VM against a naive backtracking
//! reference matcher over a restricted pattern grammar, and the
//! `required_suffix` literal analysis against the VM.

use proptest::prelude::*;

use igdb_regex::Regex;

/// A restricted pattern AST we can both render as pattern text and match
/// naively.
#[derive(Clone, Debug)]
enum Pat {
    Lit(char),
    Dot,
    Class(Vec<char>, bool),
    Star(Box<Pat>),
    Plus(Box<Pat>),
    Opt(Box<Pat>),
    Concat(Vec<Pat>),
    Alt(Box<Pat>, Box<Pat>),
}

fn render(p: &Pat) -> String {
    match p {
        Pat::Lit(c) => c.to_string(),
        Pat::Dot => ".".to_string(),
        Pat::Class(chars, neg) => format!(
            "[{}{}]",
            if *neg { "^" } else { "" },
            chars.iter().collect::<String>()
        ),
        Pat::Star(inner) => format!("(?:{})*", render(inner)),
        Pat::Plus(inner) => format!("(?:{})+", render(inner)),
        Pat::Opt(inner) => format!("(?:{})?", render(inner)),
        Pat::Concat(items) => items.iter().map(render).collect(),
        Pat::Alt(a, b) => format!("(?:{}|{})", render(a), render(b)),
    }
}

/// Naive recursive matcher: can `p` match some prefix of `text`, returning
/// all possible remainder suff indexes?
fn match_ends(p: &Pat, text: &[char], start: usize, out: &mut Vec<usize>) {
    match p {
        Pat::Lit(c) => {
            if text.get(start) == Some(c) {
                out.push(start + 1);
            }
        }
        Pat::Dot => {
            if start < text.len() && text[start] != '\n' {
                out.push(start + 1);
            }
        }
        Pat::Class(chars, neg) => {
            if let Some(&c) = text.get(start) {
                if chars.contains(&c) != *neg {
                    out.push(start + 1);
                }
            }
        }
        Pat::Opt(inner) => {
            out.push(start);
            match_ends(inner, text, start, out);
        }
        Pat::Star(inner) => {
            let mut frontier = vec![start];
            let mut seen = std::collections::HashSet::new();
            while let Some(pos) = frontier.pop() {
                if !seen.insert(pos) {
                    continue;
                }
                out.push(pos);
                let mut next = Vec::new();
                match_ends(inner, text, pos, &mut next);
                frontier.extend(next.into_iter().filter(|&e| e > pos));
            }
        }
        Pat::Plus(inner) => {
            let mut first = Vec::new();
            match_ends(inner, text, start, &mut first);
            for e in first {
                let star = Pat::Star(inner.clone());
                match_ends(&star, text, e, out);
            }
        }
        Pat::Concat(items) => {
            let mut frontier = vec![start];
            for item in items {
                let mut next = Vec::new();
                for &pos in &frontier {
                    match_ends(item, text, pos, &mut next);
                }
                next.sort_unstable();
                next.dedup();
                frontier = next;
                if frontier.is_empty() {
                    return;
                }
            }
            out.extend(frontier);
        }
        Pat::Alt(a, b) => {
            match_ends(a, text, start, out);
            match_ends(b, text, start, out);
        }
    }
}

fn naive_is_match(p: &Pat, text: &str) -> bool {
    let chars: Vec<char> = text.chars().collect();
    for start in 0..=chars.len() {
        let mut out = Vec::new();
        match_ends(p, &chars, start, &mut out);
        if !out.is_empty() {
            return true;
        }
    }
    false
}

/// Appends to `out` a text `p` matches in full, steered by `picks`.
fn sample(p: &Pat, picks: &mut impl Iterator<Item = usize>, out: &mut String) {
    let mut pick = |n: usize| picks.next().unwrap() % n;
    match p {
        Pat::Lit(c) => out.push(*c),
        Pat::Dot => out.push(['a', 'b', 'c', '.'][pick(4)]),
        Pat::Class(chars, false) => out.push(chars[pick(chars.len())]),
        Pat::Class(chars, true) => {
            let outside: Vec<char> = "abc.".chars().filter(|c| !chars.contains(c)).collect();
            out.push(outside[pick(outside.len())]);
        }
        Pat::Star(inner) | Pat::Plus(inner) | Pat::Opt(inner) => {
            let reps = match p {
                Pat::Star(_) => pick(3),
                Pat::Plus(_) => 1 + pick(2),
                _ => pick(2),
            };
            for _ in 0..reps {
                sample(inner, picks, out);
            }
        }
        Pat::Concat(items) => items.iter().for_each(|item| sample(item, picks, out)),
        Pat::Alt(a, b) => sample(if pick(2) == 0 { a } else { b }, picks, out),
    }
}

fn arb_pat() -> impl Strategy<Value = Pat> {
    let alphabet = prop_oneof![Just('a'), Just('b'), Just('c')];
    let leaf = prop_oneof![
        alphabet.clone().prop_map(Pat::Lit),
        Just(Pat::Dot),
        proptest::collection::vec(alphabet, 1..3)
            .prop_flat_map(|cs| any::<bool>().prop_map(move |neg| Pat::Class(cs.clone(), neg))),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|p| Pat::Star(Box::new(p))),
            inner.clone().prop_map(|p| Pat::Plus(Box::new(p))),
            inner.clone().prop_map(|p| Pat::Opt(Box::new(p))),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Pat::Concat),
            (inner.clone(), inner).prop_map(|(a, b)| Pat::Alt(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_agrees_with_naive_matcher(
        pat in arb_pat(),
        text in r#"[abcd]{0,10}"#,
    ) {
        let source = render(&pat);
        let re = Regex::new(&source).unwrap_or_else(|e| panic!("{source}: {e}"));
        let got = re.is_match(&text);
        let want = naive_is_match(&pat, &text);
        prop_assert_eq!(got, want, "pattern {} on {:?}", source, text);
    }

    #[test]
    fn literal_text_always_matches_itself(text in r#"[a-z0-9]{1,16}"#) {
        let re = Regex::new(&text).unwrap();
        prop_assert!(re.is_match(&text));
        prop_assert_eq!(re.find(&text).map(|(s, _, _)| s), Some(0));
    }

    #[test]
    fn anchored_literal_rejects_prefixed(text in r#"[a-z]{1,12}"#) {
        let re = Regex::new(&format!("^{text}$")).unwrap();
        prop_assert!(re.is_match(&text));
        let prefixed = format!("x{}", text);
        let suffixed = format!("{}x", text);
        prop_assert!(!re.is_match(&prefixed));
        prop_assert!(!re.is_match(&suffixed));
    }

    #[test]
    fn match_span_is_a_real_substring(
        pat in arb_pat(),
        text in r#"[abc]{0,12}"#,
    ) {
        let re = Regex::new(&render(&pat)).unwrap();
        if let Some((s, e, m)) = re.find(&text) {
            prop_assert!(s <= e && e <= text.len());
            prop_assert_eq!(m, &text[s..e]);
        }
    }

    /// Soundness of the literal analysis, over the generator above with an
    /// optional `^`, a literal tail and an optional `$` around it: a
    /// promised suffix ends every text the pattern matches, is promised
    /// only under `$`, and covers at least the literal tail. The text is
    /// random or, so that matches are common, built to fit the pattern.
    #[test]
    fn required_suffix_ends_every_match(
        pat in arb_pat(),
        tail in r#"[abc.]{0,3}"#,
        anchors in (any::<bool>(), any::<bool>()),
        text in r#"[abc.]{0,8}"#,
        fitted in proptest::bool::weighted(0.7),
        picks in proptest::collection::vec(0usize..12, 1..16),
    ) {
        let (start, end) = anchors;
        let source = format!(
            "{}{}{}{}",
            if start { "^" } else { "" },
            render(&pat),
            tail.replace('.', r"\."),
            if end { "$" } else { "" },
        );
        let re = Regex::new(&source).unwrap_or_else(|e| panic!("{source}: {e}"));
        let text = if fitted {
            let mut fit = String::new();
            sample(&pat, &mut picks.iter().copied().cycle(), &mut fit);
            fit + &tail
        } else {
            text
        };
        prop_assert!(!(fitted && end) || re.is_match(&text), "{} misses fitted {:?}", source, text);
        match re.required_suffix() {
            Some(s) => {
                prop_assert!(end, "{} promises {:?} without '$'", source, s);
                prop_assert!(s.ends_with(&tail), "{}: {:?} drops tail {:?}", source, s, tail);
                if re.is_match(&text) {
                    prop_assert!(text.ends_with(s), "{} matched {:?}, promised {:?}", source, text, s);
                }
            }
            None => prop_assert!(!end || tail.is_empty(), "{} promises nothing", source),
        }
    }
}

/// Soup ingredients: literals, escapes (one unknown), group and class
/// openers and closers, anchors, quantifiers, and repetition counts up to
/// ones no `u32` holds — the lengths a compiler must not allocate from.
const REGEX_TOKENS: [&str; 30] = [
    "a",
    "é",
    "日",
    ".",
    "\\",
    "\\d",
    "\\w",
    "\\q",
    "(",
    "(?:",
    "(?",
    ")",
    "[",
    "[^",
    "]",
    "-",
    "^",
    "$",
    "|",
    "*",
    "+",
    "?",
    "{",
    "}",
    ",",
    "0",
    "3",
    "2000",
    "4000000000",
    "99999999999",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Token soup is compiled or refused with a typed error, never a
    /// panic; a pattern that compiles runs.
    #[test]
    fn regex_new_never_panics_on_token_soup(
        tokens in proptest::collection::vec(0..REGEX_TOKENS.len(), 0..16),
    ) {
        let soup: String = tokens.iter().map(|&i| REGEX_TOKENS[i]).collect();
        if let Ok(re) = Regex::new(&soup) {
            let _ = re.find("a.é日-0{3}");
        }
    }
}

#[test]
fn required_suffix_unit_cases() {
    let suffix = |pat: &str| {
        Regex::new(pat)
            .unwrap()
            .required_suffix()
            .map(str::to_string)
    };
    // Promised: a top-level concatenation ending in `$`, literals before it.
    assert_eq!(suffix(r"x?\.com$").as_deref(), Some(".com"));
    assert_eq!(suffix(r"\.co{2}m$").as_deref(), Some("m"));
    assert_eq!(suffix("^abc$").as_deref(), Some("abc"));
    assert_eq!(suffix("a$").as_deref(), Some("a"));
    assert_eq!(
        suffix(r"\.rcr\d+\.([a-z]{3,4})\d{2}\.atlas\.cogentco\.com$").as_deref(),
        Some(".atlas.cogentco.com")
    );
    // Not promised: alternation, group or anything else at the top level,
    // a `$` that is not last, no `$` at all.
    for pat in [
        r"\.com$|\.net$",
        r"(\.com)$",
        "foo$bar",
        "abc",
        "$",
        "",
        r"\.com?$",
        "[m]$",
    ] {
        assert_eq!(suffix(pat), None, "{pat}");
    }
    // Case is the caller's business: the suffix is as spelled, and a
    // lower-cased hostname neither matches nor ends with it.
    let upper = Regex::new(r"\.COM$").unwrap();
    assert_eq!(upper.required_suffix(), Some(".COM"));
    assert!(upper.is_match("HOST.COM"));
    assert!(!upper.is_match("host.com") && !"host.com".ends_with(".COM"));
    // `foo$bar` can never match, whatever it promises.
    assert!(!Regex::new("foo$bar").unwrap().is_match("foobar"));
}
