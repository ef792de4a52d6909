//! Pattern text → AST.

use std::fmt;

/// Why a pattern was refused: a parse error with its byte offset into the
/// pattern, or (at offset 0) a program past the compiler's size limit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegexError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for RegexError {}

/// A set of character ranges (inclusive), possibly negated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CharClass {
    pub negated: bool,
    pub ranges: Vec<(char, char)>,
}

impl CharClass {
    pub fn matches(&self, c: char) -> bool {
        let inside = self.ranges.iter().any(|&(lo, hi)| c >= lo && c <= hi);
        inside != self.negated
    }

    fn digit() -> Self {
        Self {
            negated: false,
            ranges: vec![('0', '9')],
        }
    }

    fn word() -> Self {
        Self {
            negated: false,
            ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
        }
    }

    fn space() -> Self {
        Self {
            negated: false,
            ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r'), ('\x0b', '\x0c')],
        }
    }

    fn negate(mut self) -> Self {
        self.negated = !self.negated;
        self
    }
}

/// AST node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ast {
    /// Empty expression (matches the empty string).
    Empty,
    Literal(char),
    /// `.` — any character except newline.
    Dot,
    Class(CharClass),
    /// Sequence.
    Concat(Vec<Ast>),
    /// Alternation.
    Alt(Vec<Ast>),
    /// Repetition. `max == None` means unbounded; `greedy == false` for
    /// lazy (`*?` etc.) variants.
    Repeat {
        node: Box<Ast>,
        min: u32,
        max: Option<u32>,
        greedy: bool,
    },
    /// Capturing group with 1-based index.
    Group(usize, Box<Ast>),
    /// Non-capturing group.
    NonCapGroup(Box<Ast>),
    AnchorStart,
    AnchorEnd,
}

/// Parses a pattern into an AST. Also returns group count via the AST
/// (compiled later).
pub fn parse(pattern: &str) -> Result<Ast, RegexError> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut p = P {
        chars: &chars,
        pos: 0,
        groups: 0,
    };
    let ast = p.alternation()?;
    if p.pos != p.chars.len() {
        return Err(p.err("unexpected character (unbalanced ')'?)"));
    }
    Ok(ast)
}

struct P<'a> {
    chars: &'a [char],
    pos: usize,
    groups: usize,
}

impl P<'_> {
    fn err(&self, msg: &str) -> RegexError {
        RegexError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// alternation := concat ('|' concat)*
    fn alternation(&mut self) -> Result<Ast, RegexError> {
        let mut alts = vec![self.concat()?];
        while self.eat('|') {
            alts.push(self.concat()?);
        }
        Ok(if alts.len() == 1 {
            alts.pop().unwrap()
        } else {
            Ast::Alt(alts)
        })
    }

    /// concat := repeat*
    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.repeat()?);
        }
        Ok(match items.len() {
            0 => Ast::Empty,
            1 => items.pop().unwrap(),
            _ => Ast::Concat(items),
        })
    }

    /// repeat := atom quantifier?
    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.atom()?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.bump();
                (0, None)
            }
            Some('+') => {
                self.bump();
                (1, None)
            }
            Some('?') => {
                self.bump();
                (0, Some(1))
            }
            Some('{') => {
                let save = self.pos;
                self.bump();
                match self.counted() {
                    Ok(mm) => mm,
                    Err(e) => {
                        self.pos = save;
                        return Err(e);
                    }
                }
            }
            _ => return Ok(atom),
        };
        // Quantifying an anchor or a bare quantifier is an error.
        if matches!(atom, Ast::AnchorStart | Ast::AnchorEnd) {
            return Err(self.err("cannot quantify an anchor"));
        }
        let greedy = !self.eat('?');
        // Reject double quantifiers like `a**`.
        if matches!(self.peek(), Some('*') | Some('+')) {
            return Err(self.err("nothing to repeat (double quantifier)"));
        }
        if let (m, Some(x)) = (min, max) {
            if m > x {
                return Err(self.err("bad repetition range {m,n} with m > n"));
            }
        }
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
            greedy,
        })
    }

    /// `{m}`, `{m,}`, `{m,n}` — the `{` is already consumed.
    fn counted(&mut self) -> Result<(u32, Option<u32>), RegexError> {
        let m = self.number()?;
        if self.eat('}') {
            return Ok((m, Some(m)));
        }
        if !self.eat(',') {
            return Err(self.err("expected ',' or '}' in repetition"));
        }
        if self.eat('}') {
            return Ok((m, None));
        }
        let n = self.number()?;
        if !self.eat('}') {
            return Err(self.err("expected '}' in repetition"));
        }
        Ok((m, Some(n)))
    }

    fn number(&mut self) -> Result<u32, RegexError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        let s: String = self.chars[start..self.pos].iter().collect();
        s.parse()
            .map_err(|_| self.err("repetition count too large"))
    }

    /// atom := literal | '.' | class | group | anchor | escape
    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.peek() {
            None => Err(self.err("unexpected end of pattern")),
            Some('(') => {
                self.bump();
                let capturing = if self.eat('?') {
                    if self.eat(':') {
                        false
                    } else {
                        return Err(self.err("unsupported group flag (only (?: is supported)"));
                    }
                } else {
                    true
                };
                let index = if capturing {
                    self.groups += 1;
                    self.groups
                } else {
                    0
                };
                let inner = self.alternation()?;
                if !self.eat(')') {
                    return Err(self.err("missing ')'"));
                }
                Ok(if capturing {
                    Ast::Group(index, Box::new(inner))
                } else {
                    Ast::NonCapGroup(Box::new(inner))
                })
            }
            Some(')') => Err(self.err("unmatched ')'")),
            Some('[') => {
                self.bump();
                self.class()
            }
            Some('^') => {
                self.bump();
                Ok(Ast::AnchorStart)
            }
            Some('$') => {
                self.bump();
                Ok(Ast::AnchorEnd)
            }
            Some('.') => {
                self.bump();
                Ok(Ast::Dot)
            }
            Some('\\') => {
                self.bump();
                self.escape(false)
            }
            Some(c @ ('*' | '+' | '?')) => {
                Err(self.err(&format!("'{c}' with nothing to repeat")))
            }
            Some('{') => {
                // `{` not starting a valid counted repetition after an atom
                // is treated as an error (strict mode keeps rule sets honest).
                Err(self.err("'{' with nothing to repeat"))
            }
            Some(c) => {
                self.bump();
                Ok(Ast::Literal(c))
            }
        }
    }

    /// Handles `\x` escapes. `in_class` relaxes what is allowed.
    fn escape(&mut self, in_class: bool) -> Result<Ast, RegexError> {
        let c = self.bump().ok_or_else(|| self.err("dangling '\\'"))?;
        let lit = |ch| Ok(Ast::Literal(ch));
        match c {
            'd' => Ok(Ast::Class(CharClass::digit())),
            'D' => Ok(Ast::Class(CharClass::digit().negate())),
            'w' => Ok(Ast::Class(CharClass::word())),
            'W' => Ok(Ast::Class(CharClass::word().negate())),
            's' => Ok(Ast::Class(CharClass::space())),
            'S' => Ok(Ast::Class(CharClass::space().negate())),
            'n' => lit('\n'),
            't' => lit('\t'),
            'r' => lit('\r'),
            '\\' | '.' | '+' | '*' | '?' | '(' | ')' | '[' | ']' | '{' | '}' | '|' | '^'
            | '$' | '-' | '/' => lit(c),
            other => {
                if in_class {
                    Ok(Ast::Literal(other))
                } else {
                    Err(self.err(&format!("unknown escape '\\{other}'")))
                }
            }
        }
    }

    /// Character class body; the `[` is already consumed.
    fn class(&mut self) -> Result<Ast, RegexError> {
        let negated = self.eat('^');
        let mut ranges: Vec<(char, char)> = Vec::new();
        let mut first = true;
        loop {
            let c = match self.peek() {
                None => return Err(self.err("unterminated character class")),
                Some(']') if !first => {
                    self.bump();
                    break;
                }
                Some(c) => c,
            };
            first = false;
            self.bump();
            let lo = if c == '\\' {
                match self.escape(true)? {
                    Ast::Literal(l) => l,
                    Ast::Class(cc) => {
                        // Embedded \d, \w etc.: merge its ranges.
                        if cc.negated {
                            return Err(self.err("negated escape inside class unsupported"));
                        }
                        ranges.extend(cc.ranges);
                        continue;
                    }
                    _ => unreachable!("escape returns Literal or Class"),
                }
            } else {
                c
            };
            // Range?
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') && self.chars.get(self.pos + 1).is_some() {
                self.bump(); // '-'
                let hc = self.bump().unwrap();
                let hi = if hc == '\\' {
                    match self.escape(true)? {
                        Ast::Literal(l) => l,
                        _ => return Err(self.err("class escape cannot end a range")),
                    }
                } else {
                    hc
                };
                if hi < lo {
                    return Err(self.err("invalid range in character class"));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        Ok(Ast::Class(CharClass { negated, ranges }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_shapes() {
        assert_eq!(parse("a").unwrap(), Ast::Literal('a'));
        assert_eq!(
            parse("ab").unwrap(),
            Ast::Concat(vec![Ast::Literal('a'), Ast::Literal('b')])
        );
        assert!(matches!(parse("a|b").unwrap(), Ast::Alt(v) if v.len() == 2));
        assert_eq!(parse("").unwrap(), Ast::Empty);
    }

    #[test]
    fn group_indexes_assigned_in_order() {
        let ast = parse("(a)(?:x)(b)").unwrap();
        match ast {
            Ast::Concat(items) => {
                assert!(matches!(&items[0], Ast::Group(1, _)));
                assert!(matches!(&items[1], Ast::NonCapGroup(_)));
                assert!(matches!(&items[2], Ast::Group(2, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quantifier_shapes() {
        match parse("a{2,5}?").unwrap() {
            Ast::Repeat {
                min, max, greedy, ..
            } => {
                assert_eq!((min, max, greedy), (2, Some(5), false));
            }
            other => panic!("{other:?}"),
        }
        match parse("a+").unwrap() {
            Ast::Repeat { min, max, greedy, .. } => {
                assert_eq!((min, max, greedy), (1, None, true));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn class_parsing() {
        match parse("[a-c_]").unwrap() {
            Ast::Class(cc) => {
                assert!(cc.matches('b'));
                assert!(cc.matches('_'));
                assert!(!cc.matches('d'));
            }
            other => panic!("{other:?}"),
        }
        match parse("[^a-c]").unwrap() {
            Ast::Class(cc) => {
                assert!(!cc.matches('b'));
                assert!(cc.matches('z'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn class_first_bracket_literal() {
        // `[]]` — a ']' immediately after '[' is a literal member.
        match parse("[]]").unwrap() {
            Ast::Class(cc) => assert!(cc.matches(']')),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn anchors_not_quantifiable() {
        assert!(parse("^*").is_err());
        assert!(parse("$+").is_err());
    }

    #[test]
    fn error_offsets_nonzero_for_late_errors() {
        let e = parse("abc(").unwrap_err();
        assert!(e.offset >= 3);
    }
}
