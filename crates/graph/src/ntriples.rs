//! Push-based streaming parser for the N-Triples serialisation of RDF.
//!
//! [`NTriplesParser`] is a chunk-feed parser: callers push arbitrary byte
//! slices through [`NTriplesParser::feed`] and receive one callback per
//! complete triple, with the three terms borrowed either from the input chunk
//! (the zero-copy fast path for escape-free terms) or from a per-line decode
//! of the escape sequences. Only the current *incomplete* line is ever
//! buffered, and that buffer is bounded — streaming a multi-gigabyte dump
//! holds at most one line of it in parser memory, no matter how the dump is
//! chunked.
//!
//! The grammar is the W3C N-Triples core: one `subject predicate object .`
//! statement per line, `#` comments, blank lines, IRIs in angle brackets,
//! `_:` blank node labels, and literals with language tags or datatypes.
//! String escapes (`\t \b \n \r \f \" \' \\ \uXXXX \UXXXXXXXX`) are decoded
//! in literals; numeric escapes are also accepted inside IRIs.
//!
//! Terms are rendered to node-name strings the rest of the crate consumes:
//! IRIs lose their angle brackets, blank nodes keep their `_:` prefix, and
//! literals keep their full quoted form (plus any `@lang` / `^^<iri>`
//! suffix) so distinct literals stay distinct graph nodes.

use std::borrow::Cow;
use std::fmt;

/// One parsed statement, borrowed from the parser for the duration of the
/// callback. `subject`/`object` are node names, `predicate` is a label name
/// (see the [module docs](self) for the rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triple<'a> {
    /// The subject term, rendered as a node name.
    pub subject: &'a str,
    /// The predicate IRI text (without angle brackets).
    pub predicate: &'a str,
    /// The object term, rendered as a node name.
    pub object: &'a str,
}

/// A parse failure, located at the 1-based input line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NTriplesError {
    /// 1-based line number of the offending statement.
    pub line: u64,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for NTriplesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NTriplesError {}

/// Default bound on the internal line buffer (and on any single line).
pub const DEFAULT_MAX_LINE_BYTES: usize = 64 * 1024;

/// A push-based, bounded-memory N-Triples parser.
///
/// Feed input in arbitrary chunks with [`NTriplesParser::feed`]; call
/// [`NTriplesParser::finish`] once the input ends to flush a final line that
/// has no trailing newline. The parser retains only the current incomplete
/// line between feeds ([`NTriplesParser::buffered_bytes`]), capped at the
/// configured maximum — a line longer than the cap is an error, never an
/// unbounded allocation.
///
/// An error abandons the rest of the input it arrived with: the failed line
/// and every line after it in that call are dropped (none of their triples
/// count), and line numbering advances past all of them. If the abandoned
/// input ends inside a line, the next call first drops input up to that
/// line's newline. Feeding can therefore resume right after an error, with
/// line numbers that stay those of the whole stream.
#[derive(Debug)]
pub struct NTriplesParser {
    /// The current incomplete line (input since the last newline).
    buf: Vec<u8>,
    /// 1-based number of the line currently being assembled.
    line: u64,
    /// Whether input up to the next newline belongs to an abandoned line
    /// and is to be dropped.
    skipping: bool,
    /// Upper bound on `buf` and on any single line's byte length.
    max_line_bytes: usize,
    /// Total triples emitted so far.
    triples: u64,
}

impl Default for NTriplesParser {
    fn default() -> Self {
        NTriplesParser::new()
    }
}

impl NTriplesParser {
    /// A parser with the default line-buffer bound.
    pub fn new() -> NTriplesParser {
        NTriplesParser {
            buf: Vec::new(),
            line: 1,
            skipping: false,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            triples: 0,
        }
    }

    /// Override the line-buffer bound (minimum 64 bytes).
    pub fn with_max_line_bytes(mut self, max: usize) -> NTriplesParser {
        self.max_line_bytes = max.max(64);
        self
    }

    /// Bytes of input currently buffered (the incomplete trailing line).
    /// Never exceeds the configured line bound — this is the whole memory
    /// footprint the parser retains between feeds.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Total triples emitted across all feeds so far.
    pub fn triples(&self) -> u64 {
        self.triples
    }

    /// Push one chunk of input, invoking `sink` once per complete triple.
    /// Returns the number of triples emitted by this call. Comments and
    /// blank lines are skipped; a line split across chunks is assembled in
    /// the bounded internal buffer. On an error, the triples this call
    /// already emitted are void and the rest of the chunk is abandoned (see
    /// the [type docs](NTriplesParser)).
    pub fn feed(
        &mut self,
        mut chunk: &[u8],
        mut sink: impl FnMut(Triple<'_>),
    ) -> Result<u64, NTriplesError> {
        if self.skipping {
            // The tail of a line abandoned by an earlier error.
            let Some(nl) = chunk.iter().position(|&b| b == b'\n') else {
                return Ok(0);
            };
            self.skipping = false;
            self.line += 1;
            chunk = &chunk[nl + 1..];
        }
        let mut emitted = 0u64;
        while let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            let (head, rest) = chunk.split_at(nl);
            let rest = &rest[1..];
            let parsed = if self.buf.is_empty() {
                // Fast path: the whole line sits in the caller's chunk.
                self.parse_line(head, &mut sink)
            } else {
                self.parse_buffered(head, &mut sink)
            };
            match parsed {
                Ok(count) => emitted += count,
                Err(error) => {
                    self.abandon(rest);
                    return Err(error);
                }
            }
            self.line += 1;
            chunk = rest;
        }
        if !chunk.is_empty() {
            if let Err(error) = self.reserve(chunk.len()) {
                // The over-long line has not ended: drop it up to its
                // newline, wherever that arrives.
                self.buf.clear();
                self.skipping = true;
                return Err(error);
            }
            self.buf.extend_from_slice(chunk);
        }
        self.triples += emitted;
        Ok(emitted)
    }

    /// Flush a final line that arrived without a trailing newline. Returns
    /// the number of triples emitted (0 or 1). A failed final line is
    /// dropped, like any other failed line.
    pub fn finish(&mut self, mut sink: impl FnMut(Triple<'_>)) -> Result<u64, NTriplesError> {
        if self.skipping {
            // The end of input ends the abandoned line.
            self.skipping = false;
            self.line += 1;
            return Ok(0);
        }
        if self.buf.is_empty() {
            return Ok(0);
        }
        let result = self.parse_buffered(&[], &mut sink);
        self.line += 1;
        let emitted = result?;
        self.triples += emitted;
        Ok(emitted)
    }

    /// Complete the buffered line with `tail` and parse it, leaving the
    /// buffer empty once the line is parsed.
    fn parse_buffered(
        &mut self,
        tail: &[u8],
        sink: &mut impl FnMut(Triple<'_>),
    ) -> Result<u64, NTriplesError> {
        self.reserve(tail.len())?;
        self.buf.extend_from_slice(tail);
        let buf = std::mem::take(&mut self.buf);
        let result = self.parse_line(&buf, sink);
        self.buf = buf;
        self.buf.clear();
        result
    }

    /// The post-error state after a failed line that ended: count it and
    /// every newline of the abandoned `rest` of the chunk, and drop input up
    /// to the next newline if `rest` ends inside a line.
    fn abandon(&mut self, rest: &[u8]) {
        self.buf.clear();
        self.line += 1 + rest.iter().filter(|&&b| b == b'\n').count() as u64;
        self.skipping = rest.last().is_some_and(|&b| b != b'\n');
    }

    fn reserve(&mut self, incoming: usize) -> Result<(), NTriplesError> {
        if self.buf.len() + incoming > self.max_line_bytes {
            return Err(self.too_long());
        }
        Ok(())
    }

    fn too_long(&self) -> NTriplesError {
        NTriplesError {
            line: self.line,
            message: format!("line exceeds the {}-byte line buffer", self.max_line_bytes),
        }
    }

    /// Parse one complete line (no newline). Emits 0 or 1 triples.
    fn parse_line(
        &mut self,
        line: &[u8],
        sink: &mut impl FnMut(Triple<'_>),
    ) -> Result<u64, NTriplesError> {
        if line.len() > self.max_line_bytes {
            return Err(self.too_long());
        }
        let text = std::str::from_utf8(line).map_err(|_| NTriplesError {
            line: self.line,
            message: "invalid UTF-8".into(),
        })?;
        let mut cursor = Cursor {
            rest: text,
            line: self.line,
        };
        cursor.skip_ws();
        if cursor.rest.is_empty() || cursor.rest.starts_with('#') {
            return Ok(0);
        }
        let subject = cursor.subject()?;
        cursor.require_ws("after the subject")?;
        let predicate = cursor.iri("predicate")?;
        cursor.require_ws("after the predicate")?;
        let object = cursor.object()?;
        cursor.skip_ws();
        if !cursor.eat('.') {
            return Err(cursor.err("expected `.` after the object"));
        }
        cursor.skip_ws();
        if !cursor.rest.is_empty() && !cursor.rest.starts_with('#') {
            return Err(cursor.err("unexpected trailing content after `.`"));
        }
        sink(Triple {
            subject: &subject,
            predicate: &predicate,
            object: &object,
        });
        Ok(1)
    }
}

/// A cursor over one line of input.
struct Cursor<'a> {
    rest: &'a str,
    line: u64,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> NTriplesError {
        NTriplesError {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t', '\r']);
    }

    fn require_ws(&mut self, context: &str) -> Result<(), NTriplesError> {
        if !self.rest.starts_with([' ', '\t']) {
            return Err(self.err(format!("expected whitespace {context}")));
        }
        self.skip_ws();
        Ok(())
    }

    fn eat(&mut self, c: char) -> bool {
        match self.rest.strip_prefix(c) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    /// An IRI term `<...>`, rendered without the angle brackets. Numeric
    /// escapes (`\uXXXX`, `\UXXXXXXXX`) are decoded; anything else after a
    /// backslash is an error.
    fn iri(&mut self, what: &str) -> Result<Cow<'a, str>, NTriplesError> {
        if !self.eat('<') {
            return Err(self.err(format!("expected `<` to open the {what} IRI")));
        }
        let body = self.rest;
        let mut escaped = false;
        for (i, c) in body.char_indices() {
            match c {
                '>' => {
                    let raw = &body[..i];
                    self.rest = &body[i + 1..];
                    if raw.is_empty() {
                        return Err(self.err(format!("empty {what} IRI")));
                    }
                    return if escaped {
                        unescape(raw, true, self.line).map(Cow::Owned)
                    } else {
                        Ok(Cow::Borrowed(raw))
                    };
                }
                '\\' => escaped = true,
                ' ' | '\t' => return Err(self.err(format!("whitespace inside {what} IRI"))),
                _ => {}
            }
        }
        Err(self.err(format!("unterminated {what} IRI")))
    }

    /// A blank node label `_:name`, kept verbatim (prefix included) so blank
    /// nodes and IRIs can never collide as node names.
    fn bnode(&mut self) -> Result<Cow<'a, str>, NTriplesError> {
        let body = self.rest;
        debug_assert!(body.starts_with("_:"));
        let label = &body[2..];
        let end = label
            .char_indices()
            .find(|&(_, c)| !(c.is_alphanumeric() || c == '_' || c == '-' || c == '.'))
            .map(|(i, _)| i)
            .unwrap_or(label.len());
        if end == 0 {
            return Err(self.err("empty blank node label"));
        }
        let term = &body[..2 + end];
        // A trailing `.` belongs to the statement terminator, not the label.
        let term = term.strip_suffix('.').unwrap_or(term);
        self.rest = &body[term.len()..];
        Ok(Cow::Borrowed(term))
    }

    /// A literal term: `"value"` with optional `@lang` or `^^<iri>` suffix,
    /// rendered with its quotes (and suffix) kept so distinct literals map
    /// to distinct node names. Escapes in the value are decoded.
    fn literal(&mut self) -> Result<Cow<'a, str>, NTriplesError> {
        let body = self.rest;
        debug_assert!(body.starts_with('"'));
        let value = &body[1..];
        let mut escaped = false;
        let mut chars = value.char_indices();
        let close = loop {
            let Some((i, c)) = chars.next() else {
                return Err(self.err("unterminated string literal"));
            };
            match c {
                '"' => break i,
                '\\' => {
                    escaped = true;
                    // Skip the escaped character so `\"` does not close.
                    chars.next();
                }
                _ => {}
            }
        };
        let raw_value = &value[..close];
        let after = &value[close + 1..];
        // Optional suffix: @lang or ^^<iri>, copied through verbatim.
        let suffix_len = if after.starts_with('@') {
            after
                .char_indices()
                .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '-' || c == '@'))
                .map(|(i, _)| i)
                .unwrap_or(after.len())
        } else if let Some(datatype) = after.strip_prefix("^^") {
            match datatype.find('>') {
                Some(i) if datatype.starts_with('<') => 2 + i + 1,
                _ => return Err(self.err("malformed datatype suffix, expected `^^<iri>`")),
            }
        } else {
            0
        };
        let suffix = &after[..suffix_len];
        self.rest = &after[suffix_len..];
        let term_len = 1 + close + 1 + suffix_len;
        if !escaped {
            return Ok(Cow::Borrowed(&body[..term_len]));
        }
        let decoded = unescape(raw_value, false, self.line)?;
        let mut term = String::with_capacity(decoded.len() + suffix.len() + 2);
        term.push('"');
        term.push_str(&decoded);
        term.push('"');
        term.push_str(suffix);
        Ok(Cow::Owned(term))
    }

    fn subject(&mut self) -> Result<Cow<'a, str>, NTriplesError> {
        if self.rest.starts_with('<') {
            self.iri("subject")
        } else if self.rest.starts_with("_:") {
            self.bnode()
        } else {
            Err(self.err("expected an IRI or blank node subject"))
        }
    }

    fn object(&mut self) -> Result<Cow<'a, str>, NTriplesError> {
        if self.rest.starts_with('<') {
            self.iri("object")
        } else if self.rest.starts_with("_:") {
            self.bnode()
        } else if self.rest.starts_with('"') {
            self.literal()
        } else {
            Err(self.err("expected an IRI, blank node, or literal object"))
        }
    }
}

/// Decode N-Triples string escapes. `iri` restricts the set to the numeric
/// escapes, the only ones the grammar allows inside IRIs.
fn unescape(raw: &str, iri: bool, line: u64) -> Result<String, NTriplesError> {
    let fail = |message: String| NTriplesError { line, message };
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let esc = chars
            .next()
            .ok_or_else(|| fail("dangling `\\` escape".into()))?;
        let decoded = match esc {
            'u' | 'U' => {
                let want = if esc == 'u' { 4 } else { 8 };
                let mut code = 0u32;
                for _ in 0..want {
                    let d = chars
                        .next()
                        .and_then(|h| h.to_digit(16))
                        .ok_or_else(|| fail(format!("`\\{esc}` needs {want} hex digits")))?;
                    code = code * 16 + d;
                }
                char::from_u32(code)
                    .ok_or_else(|| fail(format!("`\\{esc}` encodes an invalid code point")))?
            }
            _ if iri => return Err(fail(format!("escape `\\{esc}` is not allowed in an IRI"))),
            't' => '\t',
            'b' => '\u{8}',
            'n' => '\n',
            'r' => '\r',
            'f' => '\u{c}',
            '"' => '"',
            '\'' => '\'',
            '\\' => '\\',
            _ => return Err(fail(format!("unknown escape `\\{esc}`"))),
        };
        out.push(decoded);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(input: &[u8]) -> Result<Vec<(String, String, String)>, NTriplesError> {
        let mut parser = NTriplesParser::new();
        let mut out = Vec::new();
        let mut sink = |t: Triple<'_>| {
            out.push((
                t.subject.to_string(),
                t.predicate.to_string(),
                t.object.to_string(),
            ))
        };
        parser.feed(input, &mut sink)?;
        parser.finish(&mut sink)?;
        Ok(out)
    }

    #[test]
    fn parses_the_three_term_kinds() {
        let doc = b"# a comment\n\
            <http://e.org/s> <http://e.org/p> <http://e.org/o> .\n\
            _:b0 <http://e.org/p> \"plain\" .\n\
            \n\
            <http://e.org/s> <http://e.org/p> \"fr\"@fr . # trailing comment\n\
            <http://e.org/s> <http://e.org/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> .";
        let triples = collect(doc).unwrap();
        assert_eq!(triples.len(), 4);
        assert_eq!(
            triples[0],
            (
                "http://e.org/s".to_string(),
                "http://e.org/p".to_string(),
                "http://e.org/o".to_string()
            )
        );
        assert_eq!(triples[1].0, "_:b0");
        assert_eq!(triples[1].2, "\"plain\"");
        assert_eq!(triples[2].2, "\"fr\"@fr");
        assert_eq!(
            triples[3].2,
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#int>"
        );
    }

    #[test]
    fn decodes_escapes() {
        let doc = br#"<http://e.org/s> <http://e.org/p> "a\tb\n\"q\" A\U00000042" ."#;
        let triples = collect(doc).unwrap();
        assert_eq!(triples[0].2, "\"a\tb\n\"q\" AB\"");
        // Numeric escapes in IRIs decode; others are rejected.
        let ok = collect(br#"<http://e.org/A> <http://e.org/p> _:b ."#).unwrap();
        assert_eq!(ok[0].0, "http://e.org/A");
        assert!(collect(br#"<http://e.org/\n> <http://e.org/p> _:b ."#).is_err());
    }

    #[test]
    fn chunked_feeding_matches_whole_buffer() {
        let doc: Vec<u8> = (0..50)
            .map(|i| format!("<http://e.org/n{i}> <http://e.org/p> \"v{i}\" .\n"))
            .collect::<String>()
            .into_bytes();
        let whole = collect(&doc).unwrap();
        for chunk_size in [1usize, 3, 7, 17, 1000] {
            let mut parser = NTriplesParser::new();
            let mut out = Vec::new();
            let mut sink = |t: Triple<'_>| {
                out.push((
                    t.subject.to_string(),
                    t.predicate.to_string(),
                    t.object.to_string(),
                ))
            };
            for chunk in doc.chunks(chunk_size) {
                parser.feed(chunk, &mut sink).unwrap();
                assert!(parser.buffered_bytes() <= DEFAULT_MAX_LINE_BYTES);
            }
            parser.finish(&mut sink).unwrap();
            assert_eq!(out, whole, "chunk size {chunk_size}");
            assert_eq!(parser.triples(), whole.len() as u64);
        }
    }

    #[test]
    fn oversized_lines_are_rejected_not_buffered() {
        let mut doc = b"<http://e.org/s> <http://e.org/p> \"".to_vec();
        doc.extend(std::iter::repeat(b'x').take(200));
        doc.extend_from_slice(b"\" .\n");
        let mut parser = NTriplesParser::new().with_max_line_bytes(64);
        let mut hits = 0usize;
        let mut failed = false;
        for chunk in doc.chunks(10) {
            match parser.feed(chunk, |_| hits += 1) {
                Ok(_) => assert!(parser.buffered_bytes() <= 64),
                Err(e) => {
                    assert!(e.message.contains("64-byte"), "{e}");
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "the oversized line must be rejected");
        assert_eq!(hits, 0);
    }

    #[test]
    fn feeding_resumes_after_an_error_with_stream_line_numbers() {
        let mut parser = NTriplesParser::new();
        let mut feed = |chunk: &[u8]| {
            let mut objects = Vec::new();
            parser
                .feed(chunk, |t| objects.push(t.object.to_string()))
                .map(|_| objects)
                .map_err(|e| e.line)
        };
        assert_eq!(
            feed(b"<a> <p> <b> .\n<a> <p> <c> .\n"),
            Ok(vec!["b".into(), "c".into()])
        );
        // The rest of a failed chunk is abandoned, its lines still counted.
        assert_eq!(feed(b"bad\n<a> <p> <d> .\n"), Err(3));
        assert_eq!(feed(b"<a> <p> <e> .\nbad again\n"), Err(6));
        // An over-long line fails before its newline arrives; its tail is
        // dropped when it does, and the statement after it parses.
        let mut long = b"<a> <p> <".to_vec();
        long.extend(std::iter::repeat(b'x').take(70_000));
        assert_eq!(feed(&long), Err(7));
        assert_eq!(feed(b"xxx"), Ok(vec![]), "still inside the failed line");
        assert_eq!(feed(b"> .\n<x> <p> <y> .\n"), Ok(vec!["y".into()]));
        // A chunk that fails mid-stream and ends inside a line drops that
        // line's tail from the next chunk.
        assert_eq!(feed(b"bad\n<a> <p> <f"), Err(9));
        assert_eq!(feed(b"> .\n<u> <p> <v> .\nbad"), Ok(vec!["v".into()]));
        assert_eq!(feed(b" tail\n<s> <p> <t> .\n"), Err(12));
        assert_eq!(feed(b"<s> <p> <t> .\n"), Ok(vec!["t".into()]));
        assert_eq!(parser.buffered_bytes(), 0);
        assert_eq!(parser.triples(), 5, "failed chunks count no triples");
        let mut parser = NTriplesParser::new();
        assert_eq!(parser.finish(|_| {}), Ok(0));
        parser.feed(b"<a> <p> <b> .\nbad", |_| {}).unwrap();
        assert_eq!(parser.finish(|_| {}).map_err(|e| e.line), Err(2));
        assert_eq!(
            parser.finish(|_| {}),
            Ok(0),
            "the failed final line is gone"
        );
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let doc = b"<http://e.org/s> <http://e.org/p> <http://e.org/o> .\nnot a triple\n";
        let err = collect(doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        for bad in [
            &b"<http://e.org/s> <http://e.org/p> <http://e.org/o>\n"[..],
            &b"<http://e.org/s> <http://e.org/p> .\n"[..],
            &b"<unterminated <http://e.org/p> _:b .\n"[..],
            &b"<http://e.org/s> <http://e.org/p> \"open .\n"[..],
            &b"<http://e.org/s> <http://e.org/p> _:b . junk\n"[..],
            &b"<http://e.org/s> _:pred _:b .\n"[..],
        ] {
            assert!(collect(bad).is_err(), "{:?}", std::str::from_utf8(bad));
        }
    }

    #[test]
    fn final_line_without_newline_needs_finish() {
        let mut parser = NTriplesParser::new();
        let mut count = 0usize;
        parser
            .feed(b"<http://e.org/s> <http://e.org/p> _:tail .", |_| {
                count += 1
            })
            .unwrap();
        assert_eq!(count, 0, "no newline yet: the line is buffered");
        assert!(parser.buffered_bytes() > 0);
        parser.finish(|_| count += 1).unwrap();
        assert_eq!(count, 1);
        assert_eq!(parser.buffered_bytes(), 0);
        // finish on an exhausted parser is a no-op.
        parser.finish(|_| count += 1).unwrap();
        assert_eq!(count, 1);
    }
}
