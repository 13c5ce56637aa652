//! Seeded fuzz suite of the GSRC reader (`tsc3d_netlist::gsrc::parse`).
//!
//! * Random `.blocks`, `.nets` and `.pl` texts built from the format's own tokens —
//!   keywords, block and terminal names, numbers from subnormal to overflowing, headers,
//!   comments and stray punctuation — parse to a design or a typed `ParseGsrcError`,
//!   never a panic.
//! * Mostly well-formed benchmarks (unique names, nets over them, terminal positions,
//!   extreme but valid numbers, an occasional random line) reach the net and design
//!   stages of the reader, and whatever parses survives `gsrc::write` → `parse`
//!   unchanged.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use tsc3d_geometry::Outline;
use tsc3d_netlist::gsrc::{self, ParseGsrcError};
use tsc3d_netlist::Design;

const NAMES: &[&str] = &["sb0", "sb1", "bk2", "p0", "p1", "ghost", "sb0#x"];

const NUMBERS: &[&str] = &[
    "1", "100.0", "0.333", "3", "3.0", "2e3", "1e-200", "1e-160", "1e154", "1e200", "1e308",
    "1e400", "4.9e-324", "0", "-0", "-1", "NaN", "inf", "-inf", "1.5.2", "", "x", "+7",
];

const WORDS: &[&str] = &[
    "softrectangular",
    "hardrectangular",
    "hardrectilinear",
    "terminal",
    "NetDegree",
    "NetDegree :",
    ":",
    "B",
    "#",
    "UCSC blocks 1.0",
    "NumNets : 2",
    "(0,0)",
    "\t",
    "é",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One line: mostly well-shaped for its section (0 blocks, 1 nets, 2 pl), sometimes
/// random tokens.
fn line(rng: &mut TestRng, section: usize) -> String {
    let name = pick(rng, NAMES);
    match (section, rng.below(5)) {
        (_, 0) => (0..rng.below(6))
            .map(|_| match rng.below(3) {
                0 => pick(rng, NAMES),
                1 => pick(rng, NUMBERS),
                _ => pick(rng, WORDS),
            })
            .collect::<Vec<_>>()
            .join(" "),
        (0, 1) => format!("{name} terminal"),
        (0, 2) => format!(
            "{name} hardrectangular {} {}",
            pick(rng, NUMBERS),
            pick(rng, NUMBERS)
        ),
        (0, _) => format!(
            "{name} softrectangular {} {} {}",
            pick(rng, NUMBERS),
            pick(rng, NUMBERS),
            pick(rng, NUMBERS)
        ),
        (1, 1 | 2) => format!("NetDegree : {}", rng.below(5)),
        (1, _) => format!("{name} B"),
        (_, _) => format!("{name} {} {}", pick(rng, NUMBERS), pick(rng, NUMBERS)),
    }
}

/// The three section texts of one random benchmark.
struct GsrcLike;

impl Strategy for GsrcLike {
    type Value = [String; 3];

    fn sample(&self, rng: &mut TestRng) -> [String; 3] {
        [0, 1, 2].map(|section| {
            (0..rng.below(9))
                .map(|_| line(rng, section) + "\n")
                .collect()
        })
    }
}

/// Mostly valid numbers, including ones whose products under- or overflow.
const VALID_NUMBERS: &[&str] = &["1", "100.0", "0.333", "3", "2e3", "7.25", "1e-160", "1e154"];

/// A mostly well-formed benchmark: blocks `b0..`, terminals `p0..`, nets over them and
/// terminal positions, with one line in eight replaced by a random one.
struct WellFormed;

impl Strategy for WellFormed {
    type Value = [String; 3];

    fn sample(&self, rng: &mut TestRng) -> [String; 3] {
        let number = |rng: &mut TestRng| {
            if rng.below(10) == 0 {
                pick(rng, NUMBERS)
            } else {
                pick(rng, VALID_NUMBERS)
            }
        };
        let blocks = 1 + rng.below(5);
        let terminals = rng.below(3);
        let mut names: Vec<String> = (0..blocks).map(|i| format!("b{i}")).collect();
        names.extend((0..terminals).map(|i| format!("p{i}")));
        let mut sections = [String::new(), String::new(), String::new()];
        let mut push = |rng: &mut TestRng, section: usize, text: String| {
            let text = if rng.below(8) == 0 {
                line(rng, section)
            } else {
                text
            };
            sections[section].push_str(&text);
            sections[section].push('\n');
        };
        for i in 0..blocks {
            let text = if rng.below(3) == 0 {
                format!("b{i} hardrectangular {} {}", number(rng), number(rng))
            } else {
                let (low, high) = (
                    pick(rng, &["0.333", "0.5", "1"]),
                    pick(rng, &["1", "2", "3"]),
                );
                format!("b{i} softrectangular {} {low} {high}", number(rng))
            };
            push(rng, 0, text);
        }
        for i in 0..terminals {
            push(rng, 0, format!("p{i} terminal"));
            let (x, y) = (number(rng), number(rng));
            push(rng, 2, format!("p{i} {x} {y}"));
        }
        for _ in 0..rng.below(4) {
            let degree = 2 + rng.below(3);
            let declared = if rng.below(10) == 0 {
                degree + 1
            } else {
                degree
            };
            push(rng, 1, format!("NetDegree : {declared}"));
            for _ in 0..degree {
                let pin = names[rng.below(names.len() as u64) as usize].clone();
                push(rng, 1, format!("{pin} B"));
            }
        }
        sections
    }
}

fn parse(sections: &[String; 3]) -> Result<Design, ParseGsrcError> {
    let [blocks, nets, pl] = sections;
    gsrc::parse("fuzz", blocks, nets, pl, Outline::new(100.0, 100.0), 1e-3)
}

/// Parses `sections`; a design must survive `write` → `parse`, an error must render.
fn check(sections: &[String; 3]) -> Result<(), String> {
    match parse(sections) {
        Ok(design) => {
            let (blocks, nets, pl) = gsrc::write(&design);
            let again = gsrc::parse("fuzz", &blocks, &nets, &pl, design.outline(), 1e-3);
            prop_assert_eq!(again.ok(), Some(design));
        }
        Err(e) => prop_assert!(!e.to_string().is_empty()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn gsrc_like_texts_parse_or_fail_typed(sections in GsrcLike) {
        check(&sections)?;
    }

    #[test]
    fn mostly_well_formed_benchmarks_parse_or_fail_typed_and_round_trip(sections in WellFormed) {
        check(&sections)?;
    }
}

/// Found by the suite above: a hard block whose width × height underflows to zero used
/// to reach `Block::new`'s positive-area assertion and panic.
#[test]
fn hard_block_area_underflow_is_malformed() {
    let sections = [
        "bk0 hardrectangular 1e-200 1e-200\n".to_string(),
        String::new(),
        String::new(),
    ];
    let err = parse(&sections).unwrap_err();
    assert!(
        matches!(
            err,
            ParseGsrcError::Malformed {
                section: "blocks",
                ..
            }
        ),
        "{err:?}"
    );
}
