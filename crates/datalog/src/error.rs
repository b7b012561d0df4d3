//! Typed errors for parsing, validation, and grounding.

use std::fmt;

/// Source location (1-based line and column) of a parse diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub column: u32,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Errors produced while turning program text into an AST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A character the tokenizer does not understand.
    UnexpectedChar {
        /// The offending character.
        ch: char,
        /// Where it was found.
        at: Location,
    },
    /// A token that does not fit the grammar at this point.
    UnexpectedToken {
        /// Debug rendering of the found token.
        found: String,
        /// What the grammar wanted.
        expected: &'static str,
        /// Where the token was found.
        at: Location,
    },
    /// Input ended mid-rule.
    UnexpectedEof {
        /// What the grammar wanted.
        expected: &'static str,
    },
    /// A quoted constant was never closed.
    UnterminatedQuote {
        /// Where the quote opened.
        at: Location,
    },
    /// A rule head used a variable-headed "atom" or other non-atom.
    InvalidHead {
        /// Where the head starts.
        at: Location,
    },
    /// Function terms nest deeper than
    /// [`MAX_TERM_DEPTH`](crate::parser::MAX_TERM_DEPTH).
    TooDeep {
        /// Where the first application past the limit starts.
        at: Location,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedChar { ch, at } => {
                write!(f, "{at}: unexpected character {ch:?}")
            }
            ParseError::UnexpectedToken {
                found,
                expected,
                at,
            } => write!(f, "{at}: expected {expected}, found {found}"),
            ParseError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ParseError::UnterminatedQuote { at } => {
                write!(f, "{at}: unterminated quoted constant")
            }
            ParseError::InvalidHead { at } => {
                write!(f, "{at}: rule head must be a non-negated atom")
            }
            ParseError::TooDeep { at } => write!(
                f,
                "{at}: function terms nest deeper than {}",
                crate::parser::MAX_TERM_DEPTH
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// Errors produced while validating or grounding a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroundError {
    /// A rule is unsafe: `variable` occurs in the head or in a negative
    /// subgoal but in no positive body subgoal, and the active-domain
    /// safety policy was not enabled.
    UnsafeRule {
        /// Display form of the offending rule.
        rule: String,
        /// Name of the first unguarded variable.
        variable: String,
    },
    /// Instantiation exceeded the configured atom budget; the Herbrand
    /// universe is (or behaves as if) infinite.
    AtomBudgetExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// Instantiation exceeded the configured ground-rule budget.
    RuleBudgetExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A program with no constants anywhere cannot be grounded under the
    /// active-domain policy (the active domain is empty).
    EmptyDomain,
}

impl fmt::Display for GroundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundError::UnsafeRule { rule, variable } => write!(
                f,
                "unsafe rule `{rule}`: variable {variable} does not occur in any \
                 positive body subgoal (enable SafetyPolicy::ActiveDomain to range-restrict it)"
            ),
            GroundError::AtomBudgetExceeded { limit } => write!(
                f,
                "grounding exceeded the atom budget of {limit}; the Herbrand base is too \
                 large or infinite (function symbols?)"
            ),
            GroundError::RuleBudgetExceeded { limit } => {
                write!(f, "grounding exceeded the ground-rule budget of {limit}")
            }
            GroundError::EmptyDomain => write!(
                f,
                "cannot ground under the active-domain policy: the program mentions no constants"
            ),
        }
    }
}

impl std::error::Error for GroundError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = ParseError::UnexpectedToken {
            found: "','".into(),
            expected: "an atom",
            at: Location { line: 3, column: 7 },
        };
        let s = e.to_string();
        assert!(s.contains("3:7"));
        assert!(s.contains("an atom"));

        let g = GroundError::UnsafeRule {
            rule: "p(X) :- not q(X).".into(),
            variable: "X".into(),
        };
        assert!(g.to_string().contains("unsafe rule"));
        assert!(g.to_string().contains('X'));
    }
}
