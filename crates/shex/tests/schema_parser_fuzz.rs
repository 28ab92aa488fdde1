//! Seeded mutation fuzzer for `parse_schema`: valid schemas are mutated at
//! the token and byte level — insertions, deletions and flips, inverted and
//! huge intervals, `{n,m}` braces, deep nesting, non-ASCII names — and
//! every input must yield a schema or an `Err`, never a panic. Every
//! accepted schema must re-parse from its `write_schema` rendering to the
//! same rendering.

use std::panic::{catch_unwind, AssertUnwindSafe};

use shapex_shex::parser::MAX_NESTING;
use shapex_shex::{parse_schema, write_schema};

/// SplitMix64: a seeded generator, so a failing case reproduces from the
/// case number it reports.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Valid schemas the fuzzer mutates: every operator, interval form and
/// comment style of the rule syntax.
const SEEDS: &[&str] = &[
    "# Figure 1 of the paper\n\
     Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
     User -> name::Literal, email::Literal?\n\
     Employee -> name::Literal, email::Literal\n",
    "t0 -> a::t1\nt1 -> b::t2 , c::t3\nt2 -> b::t2?, c::t3\nt3 -> EMPTY\n",
    "A -> (p::B | q::C), r::B[2;3]\nB -> p::B{2,5} || q::C+\nC -> ε\n",
    "Root -> (a1::L | b1::L)[1;2], (a2::L | b2::L)[1;2]\nL -> .\n",
    "Root -> (a::L, b::L)*\nT -> EMPTY | b::T | b::T+\nL -> EMPTY\n",
];

/// Fragments spliced in by the token mutations.
const TOKENS: &[&str] = &[
    "(",
    ")",
    "|",
    "||",
    ",",
    "::",
    ":",
    "?",
    "*",
    "+",
    "->",
    "\n",
    "# ",
    " ",
    "\r",
    "EMPTY",
    "ε",
    "epsilon",
    ".",
    "[2;3]",
    "[3;2]",
    "[0;*]",
    "[0;0]",
    "[1;1]",
    "[1;∞]",
    "[18446744073709551615;18446744073709551615]",
    "[99999999999999999999;*]",
    "[;]",
    "{2,5}",
    "{5,2}",
    "{1}",
    "{0,inf}",
    "[",
    "]",
    "{",
    "}",
    "p::T",
    "q::Ünïcødé",
    "名前::型",
    "x'::y'",
    "Ω -> p::Ω",
    "-",
    ">",
];

/// One mutation of `text`, at char boundaries except for the byte flip
/// (whose invalid UTF-8 is replaced, as a caller decoding bytes would).
fn mutate(rng: &mut Rng, text: &mut String) {
    let at = |rng: &mut Rng, text: &str| {
        let mut i = rng.below(text.len() + 1);
        while !text.is_char_boundary(i) {
            i -= 1;
        }
        i
    };
    match rng.below(7) {
        0 => {
            let i = at(rng, text);
            text.insert_str(i, TOKENS[rng.below(TOKENS.len())]);
        }
        1 => {
            let (a, b) = (at(rng, text), at(rng, text));
            text.replace_range(a.min(b)..a.max(b), "");
        }
        2 => {
            let mut bytes = std::mem::take(text).into_bytes();
            if !bytes.is_empty() {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
            *text = String::from_utf8_lossy(&bytes).into_owned();
        }
        3 => {
            let (a, b) = (at(rng, text), at(rng, text));
            let copy = text[a.min(b)..a.max(b)].to_owned();
            let i = at(rng, text);
            text.insert_str(i, &copy);
        }
        4 => {
            // Deep nesting around the bound: parentheses at one point,
            // closers at a later one.
            let n = rng.below(2 * MAX_NESTING + 2);
            let (a, b) = (at(rng, text), at(rng, text));
            let (a, b) = (a.min(b), a.max(b));
            text.insert_str(b, &")".repeat(n));
            text.insert_str(a, &"(".repeat(n));
        }
        5 => {
            // Stacked repeats.
            let n = rng.below(2 * MAX_NESTING + 2);
            let i = at(rng, text);
            let op = ["?", "*", "+", "[2;3]"][rng.below(4)];
            text.insert_str(i, &op.repeat(n));
        }
        _ => {
            let i = at(rng, text);
            let name = ["Ä", "ß", "名", "λ", "x\u{301}", "١٢"][rng.below(6)];
            text.insert_str(i, name);
        }
    }
}

#[test]
fn mutated_schemas_parse_or_fail_and_accepted_ones_round_trip() {
    const CASES: u64 = 4_000;
    for seed in SEEDS {
        let schema = parse_schema(seed).expect("every seed schema is valid");
        let written = write_schema(&schema);
        assert_eq!(write_schema(&parse_schema(&written).unwrap()), written);
    }
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..CASES {
        let mut rng = Rng(0x5C4E_0000 + case);
        let mut text = SEEDS[rng.below(SEEDS.len())].to_owned();
        for _ in 0..1 + rng.below(4) {
            mutate(&mut rng, &mut text);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| parse_schema(&text)));
        let parsed = match outcome {
            Ok(parsed) => parsed,
            Err(_) => panic!("case {case}: parse_schema panicked on {text:?}"),
        };
        match parsed {
            Ok(schema) => {
                accepted += 1;
                let written = write_schema(&schema);
                let reparsed = parse_schema(&written).unwrap_or_else(|e| {
                    panic!("case {case}: the rendering of {text:?} fails to parse: {e}\n{written}")
                });
                assert_eq!(
                    write_schema(&reparsed),
                    written,
                    "case {case}: {text:?} does not round-trip"
                );
            }
            Err(message) => {
                refused += 1;
                assert!(!message.is_empty(), "case {case}: empty error");
            }
        }
    }
    // The mutations must reach both outcomes, not just one.
    assert!(
        accepted > CASES / 20 && refused > CASES / 4,
        "{accepted} accepted, {refused} refused"
    );
}
