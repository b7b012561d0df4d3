//! Parser for normal logic programs.
//!
//! Grammar (Prolog-flavoured, as in the paper's examples):
//!
//! ```text
//! program  := rule*
//! rule     := atom ( ":-" literals )? "."
//! literals := literal ( "," literal )*
//! literal  := ("not" | "\+" | "~" | "¬")? atom
//! atom     := IDENT ( "(" term ("," term)* ")" )?
//! term     := VARIABLE | CONSTANT | NUMBER | QUOTED | IDENT "(" term,* ")"
//! ```
//!
//! Identifiers beginning with a lowercase letter are constants / predicate /
//! function symbols; identifiers beginning with an uppercase letter or `_`
//! are variables (convention (3) of Section 1.1). Comments run from `%` or
//! `//` to end of line, or between `/*` and `*/`.
//!
//! The lexer runs on demand, one token of lookahead ahead of the parser,
//! and its tokens borrow their text from the input: only a quoted
//! constant with escapes owns a copy. A malformed input reports the
//! first *lexical* error anywhere in it (an unexpected character, an
//! unterminated quote or block comment) before any grammar error, so a
//! grammar error first lexes the rest of the input to look for one.
//! Columns count chars, not bytes.

use crate::ast::{Atom, Literal, Program, Rule, Term};
use crate::error::{Location, ParseError};
use std::borrow::Cow;

/// Deepest nesting of function applications a term may have. Terms are
/// parsed, rendered, imported and dropped recursively, so the bound
/// keeps hostile input from exhausting the stack; deeper input is a
/// [`ParseError::TooDeep`].
pub const MAX_TERM_DEPTH: usize = 128;

/// Parse a complete program from source text.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut parser = Parser::new(src, Program::new());
    match parser.advance().and_then(|()| parser.program()) {
        Ok(()) => Ok(parser.program),
        Err(e) => Err(parser.lexical_first(e)),
    }
}

/// Parse a single ground or non-ground atom (handy for queries in examples
/// and tests). The atom must consume the entire input (a trailing `.` is
/// allowed).
pub fn parse_atom_into(src: &str, program: &mut Program) -> Result<Atom, ParseError> {
    let mut parser = Parser::new(src, std::mem::take(program));
    let result = parser.advance().and_then(|()| parser.whole_atom());
    *program = std::mem::take(&mut parser.program);
    result.map_err(|e| parser.lexical_first(e))
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TokenKind<'a> {
    /// lowercase-initial identifier
    Ident(&'a str),
    /// uppercase/underscore-initial identifier
    Variable(&'a str),
    /// number or quoted literal, kept as constant text (owned only when
    /// a quoted literal had escapes to undo)
    Constant(Cow<'a, str>),
    If,  // :-
    Not, // not | \+ | ~ | ¬
    Comma,
    Dot,
    LParen,
    RParen,
}

#[derive(Debug)]
struct Token<'a> {
    kind: TokenKind<'a>,
    at: Location,
}

/// An on-demand tokenizer over `src`: a byte cursor plus the line and
/// char column it stands at.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    column: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    /// The next token, `None` at the end of input. After an error the
    /// lexer stands at the end of input.
    fn next_token(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        let token = self.lex();
        if token.is_err() {
            self.pos = self.src.len();
        }
        token
    }

    fn here(&self) -> Location {
        Location {
            line: self.line,
            column: self.column,
        }
    }

    /// The char at the cursor.
    fn peek_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    /// Step over `c`, the char at the cursor.
    fn step(&mut self, c: char) {
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.step(c);
        Some(c)
    }

    /// Step over the `n` one-byte chars at the cursor, none a newline.
    fn step_ascii(&mut self, n: usize) {
        self.pos += n;
        self.column += n as u32;
    }

    /// Move the cursor to byte `end`, counting the lines and chars
    /// passed.
    fn skip_to(&mut self, end: usize) {
        let text = &self.src[self.pos..end];
        match text.rfind('\n') {
            Some(last) => {
                self.line += text.bytes().filter(|&b| b == b'\n').count() as u32;
                self.column = 1 + text[last + 1..].chars().count() as u32;
            }
            None => self.column += text.chars().count() as u32,
        }
        self.pos = end;
    }

    /// Skip a line comment, up to (not over) its newline.
    fn skip_line(&mut self) {
        let end = self.src[self.pos..]
            .find('\n')
            .map_or(self.src.len(), |i| self.pos + i);
        self.skip_to(end);
    }

    fn lex(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        let bytes = self.src.as_bytes();
        loop {
            let at = self.here();
            let Some(&b) = bytes.get(self.pos) else {
                return Ok(None);
            };
            let next = bytes.get(self.pos + 1).copied();
            let kind = match b {
                b'\n' => {
                    self.step('\n');
                    continue;
                }
                // The ASCII chars `char::is_whitespace` accepts.
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                    self.step_ascii(1);
                    continue;
                }
                b'%' => {
                    self.skip_line();
                    continue;
                }
                b'/' if next == Some(b'/') => {
                    self.skip_line();
                    continue;
                }
                b'/' if next == Some(b'*') => {
                    let body = self.pos + 2;
                    let Some(len) = self.src[body..].find("*/") else {
                        return Err(ParseError::UnexpectedEof {
                            expected: "closing */",
                        });
                    };
                    self.skip_to(body + len + 2);
                    continue;
                }
                b':' if next == Some(b'-') => {
                    self.step_ascii(2);
                    TokenKind::If
                }
                b'\\' if next == Some(b'+') => {
                    self.step_ascii(2);
                    TokenKind::Not
                }
                b'~' | b',' | b'.' | b'(' | b')' => {
                    self.step_ascii(1);
                    match b {
                        b'~' => TokenKind::Not,
                        b',' => TokenKind::Comma,
                        b'.' => TokenKind::Dot,
                        b'(' => TokenKind::LParen,
                        _ => TokenKind::RParen,
                    }
                }
                b'\'' => self.quoted(at)?,
                b'0'..=b'9' => {
                    let len = bytes[self.pos..]
                        .iter()
                        .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                        .count();
                    let text = &self.src[self.pos..self.pos + len];
                    self.step_ascii(len);
                    TokenKind::Constant(Cow::Borrowed(text))
                }
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.word(b as char),
                _ => {
                    let c = self.peek_char().expect("not at the end");
                    match c {
                        '←' => {
                            self.step(c);
                            TokenKind::If
                        }
                        '¬' => {
                            self.step(c);
                            TokenKind::Not
                        }
                        c if c.is_whitespace() => {
                            self.step(c);
                            continue;
                        }
                        c if c.is_alphabetic() => self.word(c),
                        c => return Err(ParseError::UnexpectedChar { ch: c, at }),
                    }
                }
            };
            return Ok(Some(Token { kind, at }));
        }
    }

    /// An identifier, a variable or `not`, starting with `first`.
    fn word(&mut self, first: char) -> TokenKind<'a> {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        let mut chars = 0;
        while let Some(&b) = bytes.get(self.pos) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else if b.is_ascii() {
                break;
            } else {
                match self.peek_char() {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
            chars += 1;
        }
        self.column += chars;
        let text = &self.src[start..self.pos];
        if text == "not" {
            TokenKind::Not
        } else if first.is_uppercase() || first == '_' {
            TokenKind::Variable(text)
        } else {
            TokenKind::Ident(text)
        }
    }

    /// A quoted constant whose opening quote, at `at`, is at the cursor.
    /// Without escapes its text is borrowed; with them, unescaped into
    /// an owned string (`\n` is a newline, `\c` is `c` for any other
    /// `c`).
    fn quoted(&mut self, at: Location) -> Result<TokenKind<'a>, ParseError> {
        self.step_ascii(1);
        let start = self.pos;
        let Some(len) = self.src[start..].find(['\'', '\\']) else {
            return Err(ParseError::UnterminatedQuote { at });
        };
        let plain = &self.src[start..start + len];
        self.skip_to(start + len);
        if self.bump() == Some('\'') {
            return Ok(TokenKind::Constant(Cow::Borrowed(plain)));
        }
        let mut text = String::from(plain);
        let mut escaped = true; // the backslash just read
        loop {
            match (self.bump(), escaped) {
                (None, _) => return Err(ParseError::UnterminatedQuote { at }),
                (Some('n'), true) => text.push('\n'),
                (Some(c), true) => text.push(c),
                (Some('\\'), false) => {
                    escaped = true;
                    continue;
                }
                (Some('\''), false) => break,
                (Some(c), false) => text.push(c),
            }
            escaped = false;
        }
        Ok(TokenKind::Constant(Cow::Owned(text)))
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The lookahead token; `None` at the end of input.
    tok: Option<Token<'a>>,
    program: Program,
    /// Function applications open around the term being parsed.
    depth: usize,
    /// The argument lists being parsed, innermost last, and the body
    /// being parsed: each list is split off from here into a vector of
    /// its exact length, and these keep their capacity.
    terms: Vec<Term>,
    literals: Vec<Literal>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, program: Program) -> Self {
        Parser {
            lexer: Lexer::new(src),
            tok: None,
            program,
            depth: 0,
            terms: Vec::new(),
            literals: Vec::new(),
        }
    }

    /// Lex the next lookahead token.
    fn advance(&mut self) -> Result<(), ParseError> {
        self.tok = self.lexer.next_token()?;
        Ok(())
    }

    /// `e`, unless the rest of the input holds a lexical error, which
    /// takes precedence: errors stay those of lexing the whole input
    /// before parsing any of it.
    fn lexical_first(&mut self, e: ParseError) -> ParseError {
        loop {
            match self.lexer.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => return e,
                Err(lexical) => return lexical,
            }
        }
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tok.as_ref()
    }

    fn next(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        let token = self.tok.take();
        self.advance()?;
        Ok(token)
    }

    fn eat(&mut self, kind: &TokenKind) -> Result<bool, ParseError> {
        if self.peek().is_some_and(|t| t.kind == *kind) {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect(&mut self, kind: TokenKind, expected: &'static str) -> Result<(), ParseError> {
        if self.eat(&kind)? {
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn unexpected(&self, expected: &'static str) -> ParseError {
        match self.peek() {
            Some(t) => ParseError::UnexpectedToken {
                found: format!("{:?}", t.kind),
                expected,
                at: t.at,
            },
            None => ParseError::UnexpectedEof { expected },
        }
    }

    fn program(&mut self) -> Result<(), ParseError> {
        while self.peek().is_some() {
            let rule = self.rule()?;
            self.program.push(rule);
        }
        Ok(())
    }

    /// One atom spanning the whole input, with an optional trailing `.`.
    fn whole_atom(&mut self) -> Result<Atom, ParseError> {
        let atom = self.atom()?;
        self.eat(&TokenKind::Dot)?;
        match self.peek() {
            Some(_) => Err(self.unexpected("end of input")),
            None => Ok(atom),
        }
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        // A head must be a plain atom; reject a leading `not`.
        if let Some(t) = self.peek() {
            if matches!(t.kind, TokenKind::Not | TokenKind::Variable(_)) {
                return Err(ParseError::InvalidHead { at: t.at });
            }
        }
        let head = self.atom()?;
        if self.eat(&TokenKind::If)? {
            loop {
                let literal = self.literal()?;
                self.literals.push(literal);
                if !self.eat(&TokenKind::Comma)? {
                    break;
                }
            }
        }
        self.expect(TokenKind::Dot, "'.' at end of rule")?;
        Ok(Rule::new(head, self.literals.split_off(0)))
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        if self.eat(&TokenKind::Not)? {
            Ok(Literal::neg(self.atom()?))
        } else {
            Ok(Literal::pos(self.atom()?))
        }
    }

    /// A parenthesized, comma-separated list of terms, if the lookahead
    /// opens one; none otherwise.
    fn args(&mut self) -> Result<Vec<Term>, ParseError> {
        if !self.eat(&TokenKind::LParen)? {
            return Ok(Vec::new());
        }
        let start = self.terms.len();
        loop {
            let term = self.term()?;
            self.terms.push(term);
            if !self.eat(&TokenKind::Comma)? {
                break;
            }
        }
        self.expect(TokenKind::RParen, "')'")?;
        Ok(self.terms.split_off(start))
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let tok = self.next()?.ok_or(ParseError::UnexpectedEof {
            expected: "an atom",
        })?;
        let pred = match tok.kind {
            TokenKind::Ident(name) => self.program.symbols.intern(name),
            other => {
                return Err(ParseError::UnexpectedToken {
                    found: format!("{other:?}"),
                    expected: "a predicate symbol",
                    at: tok.at,
                })
            }
        };
        Ok(Atom::new(pred, self.args()?))
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let tok = self
            .next()?
            .ok_or(ParseError::UnexpectedEof { expected: "a term" })?;
        match tok.kind {
            TokenKind::Variable(name) => Ok(Term::Var(self.program.symbols.intern(name))),
            TokenKind::Constant(text) => Ok(Term::Const(self.program.symbols.intern(&text))),
            TokenKind::Ident(name) => {
                let sym = self.program.symbols.intern(name);
                if self.peek().is_some_and(|t| t.kind == TokenKind::LParen) {
                    if self.depth == MAX_TERM_DEPTH {
                        return Err(ParseError::TooDeep { at: tok.at });
                    }
                    self.depth += 1;
                    let args = self.args()?;
                    self.depth -= 1;
                    Ok(Term::App(sym, args))
                } else {
                    Ok(Term::Const(sym))
                }
            }
            other => Err(ParseError::UnexpectedToken {
                found: format!("{other:?}"),
                expected: "a term",
                at: tok.at,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::display_rule;

    #[test]
    fn parses_win_move() {
        let p = parse_program(
            "wins(X) :- move(X, Y), not wins(Y).\n\
             move(a, b). move(b, a). move(b, c).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 4);
        assert!(!p.rules[0].body[1].positive);
        assert!(p.symbols.get("wins").is_some());
    }

    #[test]
    fn parses_propositional() {
        let p = parse_program("p :- not q. q :- not p. r.").unwrap();
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rules[0].head.arity(), 0);
        assert!(p.rules[2].is_fact());
    }

    #[test]
    fn alternative_negation_and_arrow_syntax() {
        let a = parse_program("p :- not q.").unwrap();
        let b = parse_program("p :- \\+ q.").unwrap();
        let c = parse_program("p :- ~q.").unwrap();
        let d = parse_program("p ← ¬q.").unwrap();
        for prog in [&a, &b, &c, &d] {
            assert_eq!(prog.rules.len(), 1);
            assert!(!prog.rules[0].body[0].positive);
        }
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program(
            "% line comment\n\
             p. // another\n\
             /* block\n comment */ q :- p.",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn quoted_and_numeric_constants() {
        let p = parse_program("age('Alice Smith', 42).").unwrap();
        let r = &p.rules[0];
        assert!(r.is_fact());
        match (&r.head.args[0], &r.head.args[1]) {
            (Term::Const(a), Term::Const(n)) => {
                assert_eq!(p.symbols.name(*a), "Alice Smith");
                assert_eq!(p.symbols.name(*n), "42");
            }
            other => panic!("unexpected args {other:?}"),
        }
    }

    #[test]
    fn function_symbols_parse() {
        let p = parse_program("p(f(X, a)) :- q(X).").unwrap();
        match &p.rules[0].head.args[0] {
            Term::App(f, args) => {
                assert_eq!(p.symbols.name(*f), "f");
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected App, got {other:?}"),
        }
    }

    #[test]
    fn error_on_negated_head() {
        let e = parse_program("not p :- q.").unwrap_err();
        assert!(matches!(e, ParseError::InvalidHead { .. }));
    }

    #[test]
    fn error_on_missing_dot() {
        let e = parse_program("p :- q").unwrap_err();
        assert!(matches!(e, ParseError::UnexpectedEof { .. }));
    }

    #[test]
    fn error_on_variable_head() {
        let e = parse_program("X :- p.").unwrap_err();
        assert!(matches!(e, ParseError::InvalidHead { .. }));
    }

    #[test]
    fn error_reports_location() {
        let e = parse_program("p.\nq :- ,").unwrap_err();
        match e {
            ParseError::UnexpectedToken { at, .. } => {
                assert_eq!(at.line, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unterminated_quote_is_reported() {
        let e = parse_program("p('oops.").unwrap_err();
        assert!(matches!(e, ParseError::UnterminatedQuote { .. }));
    }

    #[test]
    fn unterminated_block_comment_is_reported() {
        let e = parse_program("/* forever").unwrap_err();
        assert!(matches!(e, ParseError::UnexpectedEof { .. }));
    }

    #[test]
    fn roundtrip_display_then_reparse() {
        let src = "wins(X) :- move(X, Y), not wins(Y).\nmove(a, b).\n";
        let p1 = parse_program(src).unwrap();
        let text = p1.to_text();
        let p2 = parse_program(&text).unwrap();
        assert_eq!(p1.rules.len(), p2.rules.len());
        for (a, b) in p1.rules.iter().zip(&p2.rules) {
            assert_eq!(display_rule(a, &p1.symbols), display_rule(b, &p2.symbols));
        }
    }

    #[test]
    fn parse_atom_helper() {
        let mut p = parse_program("p(a).").unwrap();
        let atom = parse_atom_into("p(b)", &mut p).unwrap();
        assert_eq!(p.symbols.name(atom.pred), "p");
        assert_eq!(atom.arity(), 1);
        // trailing junk is rejected
        assert!(parse_atom_into("p(b) extra", &mut p).is_err());
    }

    fn at(line: u32, column: u32) -> Location {
        Location { line, column }
    }

    fn token(found: &str, expected: &'static str, line: u32, column: u32) -> ParseError {
        ParseError::UnexpectedToken {
            found: found.into(),
            expected,
            at: at(line, column),
        }
    }

    /// Malformed inputs pinned to their exact error and location. Columns
    /// count chars, so after `¬`, `←` or `é` a column is a char, not a
    /// byte; comments and quoted escapes move the position like any other
    /// text. The first lexical error anywhere in the input wins over an
    /// earlier grammar error.
    #[test]
    fn malformed_inputs_report_exact_errors() {
        use ParseError::{InvalidHead, UnexpectedChar, UnexpectedEof, UnterminatedQuote};
        let cases: Vec<(&str, ParseError)> = vec![
            (
                "p :- q",
                UnexpectedEof {
                    expected: "'.' at end of rule",
                },
            ),
            ("p.\nq :- ,", token("Comma", "a predicate symbol", 2, 6)),
            ("¬p.", InvalidHead { at: at(1, 1) }),
            ("X :- p.", InvalidHead { at: at(1, 1) }),
            (
                "p ← ¬q, ¬ $.",
                UnexpectedChar {
                    ch: '$',
                    at: at(1, 11),
                },
            ),
            (
                "p(X) ← q(X), ¬r(X), .",
                token("Dot", "a predicate symbol", 1, 21),
            ),
            (
                "% comment\np :- q ) .",
                token("RParen", "'.' at end of rule", 2, 8),
            ),
            (
                "p. // comment\n  q(a b).",
                token("Ident(\"b\")", "')'", 2, 7),
            ),
            (
                "/* a\n b */ p :- :q.",
                UnexpectedChar {
                    ch: ':',
                    at: at(2, 12),
                },
            ),
            (
                "p :- q, /* never closed",
                UnexpectedEof {
                    expected: "closing */",
                },
            ),
            (
                "p :- q. /",
                UnexpectedChar {
                    ch: '/',
                    at: at(1, 9),
                },
            ),
            ("p('a\\'b", UnterminatedQuote { at: at(1, 3) }),
            ("p('x\\", UnterminatedQuote { at: at(1, 3) }),
            (
                "p('é\\n', 'ok') q.",
                token("Ident(\"q\")", "'.' at end of rule", 1, 16),
            ),
            ("p('line\nbreak' c).", token("Ident(\"c\")", "')'", 2, 8)),
            ("p(X) :- not.", token("Dot", "a predicate symbol", 1, 12)),
            ("p(a, ).", token("RParen", "a term", 1, 6)),
            ("p(f(a).", token("Dot", "')'", 1, 7)),
            (
                "p :- q, ⊥.",
                UnexpectedChar {
                    ch: '⊥',
                    at: at(1, 9),
                },
            ),
            (
                "p :- q. r :- \\ s.",
                UnexpectedChar {
                    ch: '\\',
                    at: at(1, 14),
                },
            ),
            (
                "p :- , q. $",
                UnexpectedChar {
                    ch: '$',
                    at: at(1, 11),
                },
            ),
            ("p(¬).", token("Not", "a term", 1, 3)),
            (
                "'quoted'(a).",
                token("Constant(\"quoted\")", "a predicate symbol", 1, 1),
            ),
            ("p :- q ~ r.", token("Not", "'.' at end of rule", 1, 8)),
            (
                "p(1x_2, Y) :- q(Y), not r(Y) s.",
                token("Ident(\"s\")", "'.' at end of rule", 1, 30),
            ),
            ("ünï(a) :- b ← c.", token("If", "'.' at end of rule", 1, 13)),
        ];
        for (src, want) in &cases {
            assert_eq!(&parse_program(src).unwrap_err(), want, "{src:?}");
        }
        let atoms = [
            (
                "p(b) extra",
                token("Ident(\"extra\")", "end of input", 1, 6),
            ),
            ("p(", UnexpectedEof { expected: "a term" }),
            (
                "",
                UnexpectedEof {
                    expected: "an atom",
                },
            ),
            ("q :- r", token("If", "end of input", 1, 3)),
            ("p('é' ¬", token("Not", "')'", 1, 7)),
            (
                "p(a) $",
                UnexpectedChar {
                    ch: '$',
                    at: at(1, 6),
                },
            ),
        ];
        for (src, want) in &atoms {
            let mut program = Program::new();
            assert_eq!(
                &parse_atom_into(src, &mut program).unwrap_err(),
                want,
                "{src:?}"
            );
        }
    }

    /// Deterministic xorshift for the seeded round trip.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    const CONSTANTS: &[&str] = &[
        "a",
        "b2",
        "42",
        "007",
        "1x_2",
        "''",
        "'two words'",
        "'it\\'s'",
        "'back\\\\slash'",
        "'Up'",
        "'ünï'",
        "'line\nbreak'",
        "'a\\nb'",
        "'not'",
        "'0'",
    ];
    const VARIABLES: &[&str] = &["X", "Y2", "_Z", "_", "Ü"];
    const NEGATIONS: &[&str] = &["not ", "\\+ ", "~", "¬", "¬ "];
    const ARROWS: &[&str] = &[" :- ", " ← ", ":-"];
    const GAPS: &[&str] = &["", " ", "\n", " % note\n", " /* c.\n */ ", "\t", " // x\n"];

    /// Append a random term, nesting function applications `depth` more
    /// levels at most.
    fn random_term(rng: &mut Rng, depth: usize, out: &mut String) {
        match rng.below(if depth == 0 { 2 } else { 3 }) {
            0 => out.push_str(rng.pick(CONSTANTS)),
            1 => out.push_str(rng.pick(VARIABLES)),
            _ => {
                out.push_str(rng.pick(&["f", "g", "h_2"]));
                random_args(rng, depth - 1, out);
            }
        }
    }

    fn random_args(rng: &mut Rng, depth: usize, out: &mut String) {
        out.push('(');
        for i in 0..1 + rng.below(3) {
            if i > 0 {
                out.push(',');
                out.push_str(rng.pick(GAPS));
            }
            random_term(rng, depth, out);
        }
        out.push(')');
    }

    fn random_atom(rng: &mut Rng, out: &mut String) {
        out.push_str(rng.pick(&["p", "q", "r_1", "éé", "nota"]));
        if rng.below(3) > 0 {
            random_args(rng, 2, out);
        }
    }

    /// Seeded random programs come back equal through their rendering:
    /// parse, `Display`, parse again gives the same rules over the same
    /// names. The programs mix function terms, numeric and quoted
    /// constants (escapes, spaces, newlines, non-ASCII, the word `not`),
    /// every negation and arrow spelling, and comments.
    #[test]
    fn seeded_programs_round_trip_through_their_rendering() {
        for seed in 1..=40u64 {
            let mut rng = Rng(seed);
            let mut src = String::new();
            for _ in 0..1 + rng.below(10) {
                random_atom(&mut rng, &mut src);
                for i in 0..rng.below(4) {
                    src.push_str(if i == 0 { rng.pick(ARROWS) } else { "," });
                    src.push_str(rng.pick(GAPS));
                    if rng.below(2) == 0 {
                        src.push_str(rng.pick(NEGATIONS));
                    }
                    random_atom(&mut rng, &mut src);
                }
                src.push('.');
                src.push_str(rng.pick(&[" ", "\n", " % end\n"]));
            }
            let first = parse_program(&src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
            let text = first.to_text();
            let again = parse_program(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(first.rules, again.rules, "{src:?} rendered as {text:?}");
            let names = |p: &Program| {
                p.symbols
                    .iter()
                    .map(|(_, n)| n.to_string())
                    .collect::<Vec<_>>()
            };
            assert_eq!(names(&first), names(&again));
            assert_eq!(again.to_text(), text);
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("p({}a{}).", "f(".repeat(depth), ")".repeat(depth));
        assert!(parse_program(&nested(MAX_TERM_DEPTH)).is_ok());
        assert!(matches!(
            parse_program(&nested(MAX_TERM_DEPTH + 1)),
            Err(ParseError::TooDeep { .. })
        ));
        // Far past the bound: an error, not a stack overflow.
        assert!(parse_program(&nested(1 << 20)).is_err());
    }
}
