//! A parser and writer for the rule syntax used in the paper.
//!
//! A schema is a sequence of rules, one per line (blank lines and `#` comments
//! are ignored):
//!
//! ```text
//! Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*
//! User -> name::Literal, email::Literal?
//! Literal -> EMPTY
//! ```
//!
//! * `,` (or `||`) is unordered concatenation, `|` is disjunction, and
//!   parentheses group sub-expressions.
//! * A factor may be followed by `?`, `*`, `+`, `[n;m]`, `[n;*]`, or `{n,m}`.
//! * `EMPTY`, `ε`, or `.` denote the empty-bag expression.
//! * Types referenced but never defined receive the definition `EMPTY`
//!   (like `Literal` in Figure 1 of the paper).
//! * An expression nests at most [`MAX_NESTING`] levels deep, counting
//!   parentheses and stacked repeats (`?`, `*`, `[n;m]`, …) together.

use shapex_rbe::{Interval, Rbe};

use crate::schema::{Atom, Schema, ShapeExpr};

/// The deepest expression nesting [`parse_schema`] accepts: parentheses
/// and stacked postfix repeats together, counted along any path from the
/// rule's root to an atom. Every later pass over a schema (rendering,
/// hashing, validation, the containment procedures) recurses over the
/// expression tree, so the bound keeps text from any source off the
/// stack's limit; real schemas nest a handful of levels.
pub const MAX_NESTING: usize = 256;

/// Parse a schema from the rule syntax.
pub fn parse_schema(text: &str) -> Result<Schema, String> {
    let mut schema = Schema::new();
    let mut rules: Vec<(String, Vec<Token>, usize)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, body) = line
            .split_once("->")
            .ok_or_else(|| format!("line {}: expected `Type -> expression`", lineno + 1))?;
        let name = head.trim();
        if name.is_empty() || name.split_whitespace().count() != 1 {
            return Err(format!("line {}: invalid type name `{name}`", lineno + 1));
        }
        let tokens = tokenize(body).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        // Declare the type now so rule order does not matter.
        if schema.find_type(name).is_none() {
            schema.add_type(name);
        } else if rules.iter().any(|(n, ..)| n == name) {
            return Err(format!(
                "line {}: duplicate rule for type `{name}`",
                lineno + 1
            ));
        }
        rules.push((name.to_owned(), tokens, lineno + 1));
    }
    for (name, tokens, line) in rules {
        let mut parser = Parser {
            tokens,
            pos: 0,
            open: 0,
            schema: &mut schema,
        };
        let (expr, _) = parser
            .parse_expr()
            .map_err(|e| format!("line {line}: {e}"))?;
        if parser.pos != parser.tokens.len() {
            return Err(format!(
                "line {line}: rule for `{name}`: unexpected trailing input near token {}",
                parser.pos + 1
            ));
        }
        let t = schema.find_type(&name).expect("declared above");
        schema.define(t, expr);
    }
    Ok(schema)
}

/// Write a schema in the syntax accepted by [`parse_schema`]: its
/// [`Display`](std::fmt::Display) rendering, one rule per line.
pub fn write_schema(schema: &Schema) -> String {
    schema.to_string()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    DoubleColon,
    Comma,
    Pipe,
    LParen,
    RParen,
    Question,
    Star,
    Plus,
    Interval(Interval),
    Empty,
}

fn tokenize(body: &str) -> Result<Vec<Token>, String> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = body.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '|' => {
                if i + 1 < chars.len() && chars[i + 1] == '|' {
                    tokens.push(Token::Comma); // `||` is unordered concatenation
                    i += 2;
                } else {
                    tokens.push(Token::Pipe);
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '?' => {
                tokens.push(Token::Question);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            ':' => {
                if i + 1 < chars.len() && chars[i + 1] == ':' {
                    tokens.push(Token::DoubleColon);
                    i += 2;
                } else {
                    return Err("single `:` (did you mean `::`?)".to_owned());
                }
            }
            '.' => {
                tokens.push(Token::Empty);
                i += 1;
            }
            '[' | '{' => {
                let close = if c == '[' { ']' } else { '}' };
                let end = chars[i..]
                    .iter()
                    .position(|&x| x == close)
                    .ok_or_else(|| format!("unterminated `{c}`"))?;
                let inner: String = chars[i + 1..i + end].iter().collect();
                let normalized = inner.replace(',', ";");
                let interval =
                    Interval::parse(&format!("[{normalized}]")).map_err(|e| e.to_string())?;
                tokens.push(Token::Interval(interval));
                i += end + 1;
            }
            c if is_ident_char(c) => {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                if word == "EMPTY" || word == "ε" || word == "epsilon" {
                    tokens.push(Token::Empty);
                } else {
                    tokens.push(Token::Ident(word));
                }
            }
            other => return Err(format!("unexpected character `{other}`")),
        }
    }
    Ok(tokens)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '\'' || c == 'ε'
}

struct Parser<'s> {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses open at the current position — the parser's recursion
    /// depth, bounded by [`MAX_NESTING`] before it can grow further.
    open: usize,
    schema: &'s mut Schema,
}

/// The error for an expression nested deeper than [`MAX_NESTING`].
fn too_deep() -> String {
    format!("expression nested deeper than {MAX_NESTING} levels")
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    // Each parse function returns its expression with its nesting: the
    // parentheses and repeats on the deepest path from it to an atom.

    /// expr := concat ( '|' concat )*
    fn parse_expr(&mut self) -> Result<(ShapeExpr, usize), String> {
        let (first, mut nesting) = self.parse_concat()?;
        let mut parts = vec![first];
        while matches!(self.peek(), Some(Token::Pipe)) {
            self.bump();
            let (part, depth) = self.parse_concat()?;
            parts.push(part);
            nesting = nesting.max(depth);
        }
        Ok((Rbe::disj(parts), nesting))
    }

    /// concat := factor ( ',' factor )*
    fn parse_concat(&mut self) -> Result<(ShapeExpr, usize), String> {
        let (first, mut nesting) = self.parse_factor()?;
        let mut parts = vec![first];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.bump();
            let (part, depth) = self.parse_factor()?;
            parts.push(part);
            nesting = nesting.max(depth);
        }
        Ok((Rbe::concat(parts), nesting))
    }

    /// factor := primary repeat*
    fn parse_factor(&mut self) -> Result<(ShapeExpr, usize), String> {
        let (mut expr, mut nesting) = self.parse_primary()?;
        loop {
            let interval = match self.peek() {
                Some(Token::Question) => Interval::OPT,
                Some(Token::Star) => Interval::STAR,
                Some(Token::Plus) => Interval::PLUS,
                Some(Token::Interval(i)) => *i,
                _ => break,
            };
            self.bump();
            nesting += 1;
            if nesting > MAX_NESTING {
                return Err(too_deep());
            }
            expr = Rbe::repeat(expr, interval);
        }
        Ok((expr, nesting))
    }

    /// primary := EMPTY | label '::' type | '(' expr ')'
    fn parse_primary(&mut self) -> Result<(ShapeExpr, usize), String> {
        match self.bump() {
            Some(Token::Empty) => Ok((Rbe::Epsilon, 0)),
            Some(Token::LParen) => {
                self.open += 1;
                if self.open > MAX_NESTING {
                    return Err(too_deep());
                }
                let (inner, nesting) = self.parse_expr()?;
                self.open -= 1;
                if nesting + 1 > MAX_NESTING {
                    return Err(too_deep());
                }
                match self.bump() {
                    Some(Token::RParen) => Ok((inner, nesting + 1)),
                    _ => Err("expected `)`".to_owned()),
                }
            }
            Some(Token::Ident(label)) => match self.bump() {
                Some(Token::DoubleColon) => match self.bump() {
                    Some(Token::Ident(type_name)) => {
                        let t = self.schema.type_named(&type_name);
                        // Intern through the schema's label table: one
                        // allocation per distinct predicate in the schema.
                        let label = self.schema.intern_label(&label);
                        Ok((Rbe::symbol(Atom::new(label, t)), 0))
                    }
                    _ => Err(format!("expected a type name after `{label}::`")),
                },
                _ => Err(format!("expected `::` after label `{label}`")),
            },
            other => Err(format!("unexpected token {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaClass;
    use shapex_rbe::Interval;

    const FIG1: &str = "\
# Figure 1 of the paper
Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*
User -> name::Literal, email::Literal?
Employee -> name::Literal, email::Literal
";

    #[test]
    fn parse_figure_1() {
        let s = parse_schema(FIG1).unwrap();
        // `Literal` is auto-declared with definition EMPTY.
        assert_eq!(s.type_count(), 4);
        let literal = s.find_type("Literal").unwrap();
        assert_eq!(*s.def(literal), Rbe::Epsilon);
        assert_eq!(s.classify(), SchemaClass::DetShEx0Minus);
        let bug = s.find_type("Bug").unwrap();
        let rbe0 = s.def(bug).to_rbe0().unwrap();
        assert_eq!(rbe0.atoms().len(), 4);
        assert_eq!(rbe0.atoms()[2].1, Interval::OPT);
        assert_eq!(rbe0.atoms()[3].1, Interval::STAR);
    }

    #[test]
    fn parse_figure_2_schema() {
        let text = "\
t0 -> a::t1
t1 -> b::t2 , c::t3
t2 -> b::t2?, c::t3
t3 -> EMPTY
";
        let s = parse_schema(text).unwrap();
        assert_eq!(s.type_count(), 4);
        assert_eq!(s.classify(), SchemaClass::DetShEx0);
        let t2 = s.find_type("t2").unwrap();
        let atoms = s.def(t2).to_rbe0().unwrap();
        assert_eq!(atoms.atoms()[0].1, Interval::OPT);
    }

    #[test]
    fn parse_disjunction_and_groups() {
        let text = "A -> (p::B | q::C), r::B[2;3]\nB -> EMPTY\nC -> EMPTY\n";
        let s = parse_schema(text).unwrap();
        let a = s.find_type("A").unwrap();
        assert!(!s.is_rbe0());
        assert!(s.def(a).has_disjunction());
        assert_eq!(s.classify(), SchemaClass::ShEx);
        // `{n,m}` braces work as interval syntax too.
        let s2 = parse_schema("A -> p::B{2,5}\nB -> EMPTY\n").unwrap();
        let a2 = s2.find_type("A").unwrap();
        let rbe0 = s2.def(a2).to_rbe0().unwrap();
        assert_eq!(rbe0.atoms()[0].1, Interval::bounded(2, 5));
    }

    #[test]
    fn parse_double_pipe_concatenation() {
        let s = parse_schema("A -> p::B || q::B\nB -> EMPTY\n").unwrap();
        let a = s.find_type("A").unwrap();
        let rbe0 = s.def(a).to_rbe0().unwrap();
        assert_eq!(rbe0.atoms().len(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_schema("A p::B").is_err(), "missing arrow");
        assert!(
            parse_schema("A -> p:B\nB -> EMPTY").is_err(),
            "single colon"
        );
        assert!(
            parse_schema("A -> (p::B\nB -> EMPTY").is_err(),
            "unclosed paren"
        );
        assert!(parse_schema("A -> p::B ???x").is_err(), "trailing junk");
        assert!(
            parse_schema("A -> p::B\nA -> q::B\nB -> EMPTY").is_err(),
            "duplicate rule"
        );
        assert!(
            parse_schema("A -> p::B[3;").is_err(),
            "unterminated interval"
        );
    }

    #[test]
    fn deep_parentheses_are_an_error_naming_the_line() {
        let deep = format!("T -> {}p::L{}\n", "(".repeat(15_000), ")".repeat(15_000));
        let err = parse_schema(&deep).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("nested deeper than"), "{err}");
        // Unclosed ones are refused at the same depth, before recursing on.
        let unclosed = format!("L -> EMPTY\nT -> {}\n", "(".repeat(15_000));
        let err = parse_schema(&unclosed).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn stacked_repeats_count_toward_the_nesting_bound() {
        let stacked = format!("L -> EMPTY\nT -> p::L{}\n", "?".repeat(100_000));
        let err = parse_schema(&stacked).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("nested deeper than"), "{err}");
        // Parentheses and repeats add up along one path.
        let half = MAX_NESTING / 2;
        let mixed = |extra: usize| {
            format!(
                "T -> {}p::L{}{}\n",
                "(".repeat(half),
                ")*".repeat(half),
                "?".repeat(MAX_NESTING - 2 * half + extra)
            )
        };
        assert!(parse_schema(&mixed(0)).is_ok());
        assert!(parse_schema(&mixed(1)).is_err());
    }

    #[test]
    fn expressions_at_the_nesting_bound_round_trip() {
        let text = format!(
            "T -> {}p::L{}, q::L\nL -> EMPTY\n",
            "(".repeat(MAX_NESTING),
            ")".repeat(MAX_NESTING)
        );
        let schema = parse_schema(&text).unwrap();
        let stacked = format!("T -> p::L{}\nL -> EMPTY\n", "*".repeat(MAX_NESTING));
        let repeated = parse_schema(&stacked).unwrap();
        for s in [schema, repeated] {
            let written = write_schema(&s);
            assert_eq!(write_schema(&parse_schema(&written).unwrap()), written);
        }
    }

    #[test]
    fn exact_one_repeats_render_apart_from_the_type_name() {
        let s = parse_schema("T -> p::L[1;1]\nL -> EMPTY\n").unwrap();
        let written = write_schema(&s);
        assert_eq!(written, "T -> p::L[1;1]\nL -> EMPTY\n");
        assert_eq!(write_schema(&parse_schema(&written).unwrap()), written);
    }

    #[test]
    fn roundtrip_through_writer() {
        let s = parse_schema(FIG1).unwrap();
        let text = write_schema(&s);
        let reparsed = parse_schema(&text).unwrap();
        assert_eq!(reparsed.type_count(), s.type_count());
        assert_eq!(reparsed.classify(), s.classify());
        for t in s.types() {
            let name = s.type_name(t);
            let rt = reparsed.find_type(name).expect("type preserved");
            assert_eq!(
                s.def(t).to_rbe0().map(|r| r.atoms().len()),
                reparsed.def(rt).to_rbe0().map(|r| r.atoms().len()),
                "type {name}"
            );
        }
    }

    #[test]
    fn empty_alternatives() {
        // ε | b::t — the Figure 4 style expression.
        let s = parse_schema("T -> EMPTY | b::T | b::T+\n").unwrap();
        let t = s.find_type("T").unwrap();
        assert!(s.def(t).has_disjunction());
        assert_eq!(s.classify(), SchemaClass::ShEx);
    }
}
