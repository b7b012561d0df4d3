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

use crate::ast::{Atom, Literal, Program, Rule, Term};
use crate::error::{Location, ParseError};

/// Deepest nesting of function applications a term may have. Terms are
/// parsed, rendered, imported and dropped recursively, so the bound
/// keeps hostile input from exhausting the stack; deeper input is a
/// [`ParseError::TooDeep`].
pub const MAX_TERM_DEPTH: usize = 128;

/// Parse a complete program from source text.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        program: Program::new(),
    };
    parser.program()?;
    Ok(parser.program)
}

/// Parse a single ground or non-ground atom (handy for queries in examples
/// and tests). The atom must consume the entire input (a trailing `.` is
/// allowed).
pub fn parse_atom_into(src: &str, program: &mut Program) -> Result<Atom, ParseError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        program: std::mem::take(program),
    };
    let atom = parser.atom();
    let atom = match atom {
        Ok(a) => a,
        Err(e) => {
            *program = std::mem::take(&mut parser.program);
            return Err(e);
        }
    };
    let _ = parser.eat(&TokenKind::Dot);
    let result = if parser.peek().is_some() {
        Err(parser.unexpected("end of input"))
    } else {
        Ok(atom)
    };
    *program = std::mem::take(&mut parser.program);
    result
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TokenKind {
    /// lowercase-initial identifier
    Ident(String),
    /// uppercase/underscore-initial identifier
    Variable(String),
    /// number or quoted literal, kept as constant text
    Constant(String),
    If,  // :-
    Not, // not | \+ | ~ | ¬
    Comma,
    Dot,
    LParen,
    RParen,
}

#[derive(Debug, Clone)]
struct Token {
    kind: TokenKind,
    at: Location,
}

fn tokenize(src: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! bump {
        () => {{
            let c = chars.next();
            if let Some(c) = c {
                if c == '\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            c
        }};
    }

    loop {
        let at = Location { line, column: col };
        let Some(&c) = chars.peek() else { break };
        match c {
            c if c.is_whitespace() => {
                bump!();
            }
            '%' => {
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    bump!();
                }
            }
            '/' => {
                bump!();
                match chars.peek() {
                    Some('/') => {
                        while let Some(&c) = chars.peek() {
                            if c == '\n' {
                                break;
                            }
                            bump!();
                        }
                    }
                    Some('*') => {
                        bump!();
                        let mut prev = ' ';
                        loop {
                            match bump!() {
                                None => {
                                    return Err(ParseError::UnexpectedEof {
                                        expected: "closing */",
                                    })
                                }
                                Some('/') if prev == '*' => break,
                                Some(c) => prev = c,
                            }
                        }
                    }
                    _ => return Err(ParseError::UnexpectedChar { ch: '/', at }),
                }
            }
            ':' => {
                bump!();
                if chars.peek() == Some(&'-') {
                    bump!();
                    tokens.push(Token {
                        kind: TokenKind::If,
                        at,
                    });
                } else {
                    return Err(ParseError::UnexpectedChar { ch: ':', at });
                }
            }
            '←' => {
                bump!();
                tokens.push(Token {
                    kind: TokenKind::If,
                    at,
                });
            }
            '\\' => {
                bump!();
                if chars.peek() == Some(&'+') {
                    bump!();
                    tokens.push(Token {
                        kind: TokenKind::Not,
                        at,
                    });
                } else {
                    return Err(ParseError::UnexpectedChar { ch: '\\', at });
                }
            }
            '~' | '¬' => {
                bump!();
                tokens.push(Token {
                    kind: TokenKind::Not,
                    at,
                });
            }
            ',' => {
                bump!();
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    at,
                });
            }
            '.' => {
                bump!();
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    at,
                });
            }
            '(' => {
                bump!();
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    at,
                });
            }
            ')' => {
                bump!();
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    at,
                });
            }
            '\'' => {
                bump!();
                let mut text = String::new();
                loop {
                    match bump!() {
                        None => return Err(ParseError::UnterminatedQuote { at }),
                        Some('\\') => match bump!() {
                            Some('\\') => text.push('\\'),
                            Some('\'') => text.push('\''),
                            Some('n') => text.push('\n'),
                            Some(other) => text.push(other),
                            None => return Err(ParseError::UnterminatedQuote { at }),
                        },
                        Some('\'') => break,
                        Some(c) => text.push(c),
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Constant(text),
                    at,
                });
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        text.push(c);
                        bump!();
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Constant(text),
                    at,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut text = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        bump!();
                    } else {
                        break;
                    }
                }
                let kind = if text == "not" {
                    TokenKind::Not
                } else if c.is_uppercase() || c == '_' {
                    TokenKind::Variable(text)
                } else {
                    TokenKind::Ident(text)
                };
                tokens.push(Token { kind, at });
            }
            other => return Err(ParseError::UnexpectedChar { ch: other, at }),
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    program: Program,
    /// Function applications open around the term being parsed.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, expected: &'static str) -> Result<(), ParseError> {
        if self.eat(&kind) {
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

    fn rule(&mut self) -> Result<Rule, ParseError> {
        // A head must be a plain atom; reject a leading `not`.
        if let Some(t) = self.peek() {
            if t.kind == TokenKind::Not {
                return Err(ParseError::InvalidHead { at: t.at });
            }
            if matches!(t.kind, TokenKind::Variable(_)) {
                return Err(ParseError::InvalidHead { at: t.at });
            }
        }
        let head = self.atom()?;
        let mut body = Vec::new();
        if self.eat(&TokenKind::If) {
            loop {
                body.push(self.literal()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::Dot, "'.' at end of rule")?;
        Ok(Rule::new(head, body))
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        if self.eat(&TokenKind::Not) {
            Ok(Literal::neg(self.atom()?))
        } else {
            Ok(Literal::pos(self.atom()?))
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let tok = self.next().ok_or(ParseError::UnexpectedEof {
            expected: "an atom",
        })?;
        let pred = match tok.kind {
            TokenKind::Ident(name) => self.program.symbols.intern(&name),
            other => {
                return Err(ParseError::UnexpectedToken {
                    found: format!("{other:?}"),
                    expected: "a predicate symbol",
                    at: tok.at,
                })
            }
        };
        let mut args = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                args.push(self.term()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen, "')'")?;
        }
        Ok(Atom::new(pred, args))
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let tok = self
            .next()
            .ok_or(ParseError::UnexpectedEof { expected: "a term" })?;
        match tok.kind {
            TokenKind::Variable(name) => Ok(Term::Var(self.program.symbols.intern(&name))),
            TokenKind::Constant(text) => Ok(Term::Const(self.program.symbols.intern(&text))),
            TokenKind::Ident(name) => {
                let sym = self.program.symbols.intern(&name);
                if self.eat(&TokenKind::LParen) {
                    if self.depth == MAX_TERM_DEPTH {
                        return Err(ParseError::TooDeep { at: tok.at });
                    }
                    self.depth += 1;
                    let mut args = Vec::new();
                    loop {
                        args.push(self.term()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RParen, "')'")?;
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
