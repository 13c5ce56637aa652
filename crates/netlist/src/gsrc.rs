//! Reader and writer for the GSRC-style block-level benchmark text format.
//!
//! The GSRC "hard/soft block" floorplanning benchmarks (and the IBM-HB+ derivatives) are
//! distributed as a bundle of plain-text files:
//!
//! * `<name>.blocks` — one line per block: `sbNN softrectangular <area> <minAR> <maxAR>` or
//!   `bkNN hardrectilinear 4 (x0,y0) ...` (we support the common rectangle case), plus
//!   `pNN terminal` lines,
//! * `<name>.nets`   — `NetDegree : k` headers followed by `k` pin lines,
//! * `<name>.pl`     — terminal placement: `pNN x y`.
//!
//! This module parses a simplified, self-contained dialect of that format from strings (no
//! file I/O here; callers read the files) and can serialize any [`Design`] back into it, so
//! synthetic suites can be dumped, inspected and re-read.

use crate::{Block, BlockId, BlockShape, Design, DesignError, Net, PinRef, Terminal, TerminalId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use tsc3d_geometry::{Outline, Point};

/// Errors raised while parsing GSRC-style benchmark text.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseGsrcError {
    /// A line could not be understood.
    Malformed {
        /// The file section being parsed (`blocks`, `nets` or `pl`).
        section: &'static str,
        /// The offending line (trimmed).
        line: String,
    },
    /// A numeric field could not be parsed.
    BadNumber {
        /// The file section being parsed.
        section: &'static str,
        /// The offending token.
        token: String,
    },
    /// A net references an unknown block or terminal name.
    UnknownPin(String),
    /// The assembled design failed validation.
    Design(DesignError),
}

impl fmt::Display for ParseGsrcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGsrcError::Malformed { section, line } => {
                write!(f, "malformed {section} line: `{line}`")
            }
            ParseGsrcError::BadNumber { section, token } => {
                write!(f, "invalid number `{token}` in {section} section")
            }
            ParseGsrcError::UnknownPin(name) => write!(f, "net references unknown pin `{name}`"),
            ParseGsrcError::Design(e) => write!(f, "invalid design: {e}"),
        }
    }
}

impl Error for ParseGsrcError {}

impl From<DesignError> for ParseGsrcError {
    fn from(e: DesignError) -> Self {
        ParseGsrcError::Design(e)
    }
}

/// A finite number (`.pl` coordinates).
fn parse_f64(section: &'static str, token: &str) -> Result<f64, ParseGsrcError> {
    match token.parse::<f64>() {
        Ok(value) if value.is_finite() => Ok(value),
        _ => Err(ParseGsrcError::BadNumber {
            section,
            token: token.to_string(),
        }),
    }
}

/// A finite, strictly positive number (areas, widths, heights, aspect bounds).
fn parse_positive(section: &'static str, token: &str) -> Result<f64, ParseGsrcError> {
    match parse_f64(section, token)? {
        value if value > 0.0 => Ok(value),
        _ => Err(ParseGsrcError::BadNumber {
            section,
            token: token.to_string(),
        }),
    }
}

/// Parses the three GSRC sections into a [`Design`].
///
/// `default_power_density` (W/µm²) assigns the nominal power of each block as
/// `area * density`, since the original GSRC files carry no power information.
///
/// # Errors
///
/// Returns [`ParseGsrcError`] on malformed input or dangling references:
/// [`ParseGsrcError::BadNumber`] for an area, width, height or aspect bound that is not a
/// finite positive number and for a non-finite `.pl` coordinate, and
/// [`ParseGsrcError::Malformed`] for inverted aspect bounds or a hard block whose area
/// overflows or underflows to zero.
///
/// ```
/// use tsc3d_netlist::gsrc;
/// use tsc3d_geometry::Outline;
///
/// # fn main() -> Result<(), gsrc::ParseGsrcError> {
/// let blocks = "sb0 softrectangular 100.0 0.333 3.0\nsb1 softrectangular 200.0 0.333 3.0\np0 terminal\n";
/// let nets = "NetDegree : 2\nsb0 B\nsb1 B\nNetDegree : 2\nsb1 B\np0 B\n";
/// let pl = "p0 0.0 50.0\n";
/// let design = gsrc::parse("toy", blocks, nets, pl, Outline::new(50.0, 50.0), 1e-3)?;
/// assert_eq!(design.blocks().len(), 2);
/// assert_eq!(design.nets().len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse(
    name: &str,
    blocks_text: &str,
    nets_text: &str,
    pl_text: &str,
    outline: Outline,
    default_power_density: f64,
) -> Result<Design, ParseGsrcError> {
    let mut blocks: Vec<Block> = Vec::new();
    let mut terminal_names: Vec<String> = Vec::new();

    for raw in blocks_text.lines() {
        let line = strip_comment(raw);
        if line.is_empty() || is_header(line) {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            [name_tok, "terminal"] => terminal_names.push((*name_tok).to_string()),
            [name_tok, "softrectangular", area, min_ar, max_ar] => {
                let area = parse_positive("blocks", area)?;
                let min_aspect = parse_positive("blocks", min_ar)?;
                let max_aspect = parse_positive("blocks", max_ar)?;
                if min_aspect > max_aspect {
                    return Err(ParseGsrcError::Malformed {
                        section: "blocks",
                        line: line.to_string(),
                    });
                }
                let shape = BlockShape::Soft {
                    area,
                    min_aspect,
                    max_aspect,
                };
                blocks.push(Block::new(*name_tok, shape, area * default_power_density));
            }
            [name_tok, "hardrectangular", w, h] => {
                let width = parse_positive("blocks", w)?;
                let height = parse_positive("blocks", h)?;
                // The area must stay a finite positive number: it can overflow (1e200²)
                // or underflow to zero (1e-200²) even when both sides are valid.
                let area = width * height;
                if !(area.is_finite() && area > 0.0) {
                    return Err(ParseGsrcError::Malformed {
                        section: "blocks",
                        line: line.to_string(),
                    });
                }
                let shape = BlockShape::hard(width, height);
                blocks.push(Block::new(*name_tok, shape, area * default_power_density));
            }
            _ => {
                return Err(ParseGsrcError::Malformed {
                    section: "blocks",
                    line: line.to_string(),
                })
            }
        }
    }

    // Terminal positions from the .pl section (terminals without a position default to the
    // outline origin).
    let mut positions: HashMap<String, Point> = HashMap::new();
    for raw in pl_text.lines() {
        let line = strip_comment(raw);
        if line.is_empty() || is_header(line) {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() < 3 {
            return Err(ParseGsrcError::Malformed {
                section: "pl",
                line: line.to_string(),
            });
        }
        let x = parse_f64("pl", tokens[1])?;
        let y = parse_f64("pl", tokens[2])?;
        positions.insert(tokens[0].to_string(), Point::new(x, y));
    }

    let terminals: Vec<Terminal> = terminal_names
        .iter()
        .map(|n| Terminal::new(n.clone(), positions.get(n).copied().unwrap_or_default()))
        .collect();

    // Name → pin lookup for nets.
    let block_index: HashMap<&str, BlockId> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.name(), BlockId(i)))
        .collect();
    let terminal_index: HashMap<&str, TerminalId> = terminals
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name(), TerminalId(i)))
        .collect();

    let mut nets: Vec<Net> = Vec::new();
    let mut pending: Option<(usize, Vec<PinRef>)> = None;
    for raw in nets_text.lines() {
        let line = strip_comment(raw);
        if line.is_empty() || is_header(line) {
            continue;
        }
        if let Some(rest) = line.strip_prefix("NetDegree") {
            if let Some((deg, pins)) = pending.take() {
                if pins.len() != deg || pins.len() < 2 {
                    return Err(ParseGsrcError::Malformed {
                        section: "nets",
                        line: format!("net with {} of {deg} pins", pins.len()),
                    });
                }
                nets.push(Net::new(format!("net{}", nets.len()), pins));
            }
            let deg_tok = rest.trim_start_matches([':', ' ']).trim();
            let deg =
                deg_tok
                    .split_whitespace()
                    .next()
                    .ok_or_else(|| ParseGsrcError::Malformed {
                        section: "nets",
                        line: line.to_string(),
                    })?;
            let deg = deg
                .parse::<usize>()
                .map_err(|_| ParseGsrcError::BadNumber {
                    section: "nets",
                    token: deg.to_string(),
                })?;
            pending = Some((deg, Vec::new()));
            continue;
        }
        let pin_name = line.split_whitespace().next().unwrap_or_default();
        let pin = if let Some(&b) = block_index.get(pin_name) {
            PinRef::Block(b)
        } else if let Some(&t) = terminal_index.get(pin_name) {
            PinRef::Terminal(t)
        } else {
            return Err(ParseGsrcError::UnknownPin(pin_name.to_string()));
        };
        match &mut pending {
            Some((_, pins)) => pins.push(pin),
            None => {
                return Err(ParseGsrcError::Malformed {
                    section: "nets",
                    line: line.to_string(),
                })
            }
        }
    }
    if let Some((deg, pins)) = pending.take() {
        if pins.len() != deg || pins.len() < 2 {
            return Err(ParseGsrcError::Malformed {
                section: "nets",
                line: format!("net with {} of {deg} pins", pins.len()),
            });
        }
        nets.push(Net::new(format!("net{}", nets.len()), pins));
    }

    Ok(Design::new(name, blocks, nets, terminals, outline)?)
}

fn strip_comment(line: &str) -> &str {
    let line = line.trim();
    match line.find('#') {
        Some(idx) => line[..idx].trim(),
        None => line,
    }
}

fn is_header(line: &str) -> bool {
    line.starts_with("UCSC")
        || line.starts_with("UCLA")
        || line.starts_with("NumSoftRectangularBlocks")
        || line.starts_with("NumHardRectilinearBlocks")
        || line.starts_with("NumTerminals")
        || line.starts_with("NumNets")
        || line.starts_with("NumPins")
}

/// Serializes a design into the three GSRC-style sections `(blocks, nets, pl)`.
///
/// The output round-trips through [`parse`] (power values are regenerated from the density
/// argument there, since the format carries no power).
pub fn write(design: &Design) -> (String, String, String) {
    let mut blocks_text = String::new();
    blocks_text.push_str(&format!(
        "NumSoftRectangularBlocks : {}\nNumTerminals : {}\n",
        design.blocks().len(),
        design.terminals().len()
    ));
    for b in design.blocks() {
        match *b.shape() {
            BlockShape::Soft {
                area,
                min_aspect,
                max_aspect,
            } => blocks_text.push_str(&format!(
                "{} softrectangular {} {} {}\n",
                b.name(),
                area,
                min_aspect,
                max_aspect
            )),
            BlockShape::Hard { width, height } => blocks_text.push_str(&format!(
                "{} hardrectangular {} {}\n",
                b.name(),
                width,
                height
            )),
        }
    }
    for t in design.terminals() {
        blocks_text.push_str(&format!("{} terminal\n", t.name()));
    }

    let mut nets_text = String::new();
    nets_text.push_str(&format!("NumNets : {}\n", design.nets().len()));
    for net in design.nets() {
        nets_text.push_str(&format!("NetDegree : {}\n", net.degree()));
        for pin in net.pins() {
            match *pin {
                PinRef::Block(b) => nets_text.push_str(&format!("{} B\n", design.block(b).name())),
                PinRef::Terminal(t) => {
                    nets_text.push_str(&format!("{} B\n", design.terminal(t).name()))
                }
            }
        }
    }

    let mut pl_text = String::new();
    for t in design.terminals() {
        pl_text.push_str(&format!(
            "{} {} {}\n",
            t.name(),
            t.position().x,
            t.position().y
        ));
    }

    (blocks_text, nets_text, pl_text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{generate, Benchmark};

    const BLOCKS: &str = "\
UCSC blocks 1.0
NumSoftRectangularBlocks : 2
NumTerminals : 1
sb0 softrectangular 100.0 0.333 3.0
sb1 softrectangular 200.0 0.333 3.0
# a comment
p0 terminal
";
    const NETS: &str = "\
NumNets : 2
NetDegree : 2
sb0 B
sb1 B
NetDegree : 3
sb0 B
sb1 B
p0 B
";
    const PL: &str = "p0 0.0 25.0\n";

    #[test]
    fn parse_small_example() {
        let d = parse("toy", BLOCKS, NETS, PL, Outline::new(50.0, 50.0), 1e-3).unwrap();
        assert_eq!(d.blocks().len(), 2);
        assert_eq!(d.terminals().len(), 1);
        assert_eq!(d.nets().len(), 2);
        assert_eq!(d.nets()[1].degree(), 3);
        assert!(d.nets()[1].has_terminal());
        assert_eq!(d.terminal(TerminalId(0)).position(), Point::new(0.0, 25.0));
        // Power assigned from density.
        assert!((d.total_power() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_unknown_pin() {
        let nets = "NetDegree : 2\nsb0 B\nghost B\n";
        let err = parse("t", BLOCKS, nets, PL, Outline::new(10.0, 10.0), 1e-3).unwrap_err();
        assert_eq!(err, ParseGsrcError::UnknownPin("ghost".into()));
    }

    #[test]
    fn parse_rejects_malformed_block() {
        let blocks = "sb0 banana 1 2 3\n";
        let err = parse("t", blocks, "", "", Outline::new(10.0, 10.0), 1e-3).unwrap_err();
        assert!(matches!(
            err,
            ParseGsrcError::Malformed {
                section: "blocks",
                ..
            }
        ));
    }

    #[test]
    fn parse_rejects_bad_number() {
        let blocks = "sb0 softrectangular xyz 0.3 3.0\n";
        let err = parse("t", blocks, "", "", Outline::new(10.0, 10.0), 1e-3).unwrap_err();
        assert!(matches!(err, ParseGsrcError::BadNumber { .. }));
    }

    #[test]
    fn parse_rejects_non_finite_and_non_positive_block_numbers() {
        let outline = Outline::new(10.0, 10.0);
        for bad in [
            "nan", "NaN", "inf", "-inf", "infinity", "-1", "0", "-0", "0.0", "1e-400",
        ] {
            let lines = [
                format!("sb0 softrectangular {bad} 0.3 3.0\n"),
                format!("sb0 softrectangular 10.0 {bad} 3.0\n"),
                format!("sb0 softrectangular 10.0 0.3 {bad}\n"),
                format!("bk0 hardrectangular {bad} 2.0\n"),
                format!("bk0 hardrectangular 2.0 {bad}\n"),
            ];
            for blocks in &lines {
                let err = parse("t", blocks, "", "", outline, 1e-3).unwrap_err();
                assert_eq!(
                    err,
                    ParseGsrcError::BadNumber {
                        section: "blocks",
                        token: bad.to_string(),
                    },
                    "{blocks}"
                );
            }
        }
    }

    #[test]
    fn parse_rejects_inverted_aspect_bounds_and_overflowing_areas() {
        let outline = Outline::new(10.0, 10.0);
        for blocks in [
            "sb0 softrectangular 10.0 3.0 0.3\n",
            "bk0 hardrectangular 1e200 1e200\n",
        ] {
            let err = parse("t", blocks, "", "", outline, 1e-3).unwrap_err();
            assert!(
                matches!(
                    err,
                    ParseGsrcError::Malformed {
                        section: "blocks",
                        ..
                    }
                ),
                "{blocks}: {err:?}"
            );
        }
        // Equal bounds (a fixed aspect ratio) stay legal.
        let d = parse(
            "t",
            "sb0 softrectangular 10.0 1.0 1.0\n",
            "",
            "",
            outline,
            1e-3,
        );
        assert!(d.is_ok(), "{d:?}");
    }

    #[test]
    fn parse_rejects_non_finite_terminal_positions() {
        for bad in ["nan", "inf", "-inf"] {
            for pl in [format!("p0 {bad} 1.0\n"), format!("p0 1.0 {bad}\n")] {
                let err = parse("t", BLOCKS, NETS, &pl, Outline::new(50.0, 50.0), 1e-3);
                assert_eq!(
                    err.unwrap_err(),
                    ParseGsrcError::BadNumber {
                        section: "pl",
                        token: bad.to_string(),
                    },
                    "{pl}"
                );
            }
        }
        // Negative and zero coordinates are legal positions.
        let d = parse(
            "t",
            BLOCKS,
            NETS,
            "p0 -5.0 0\n",
            Outline::new(50.0, 50.0),
            1e-3,
        );
        assert_eq!(
            d.unwrap().terminal(TerminalId(0)).position(),
            Point::new(-5.0, 0.0)
        );
    }

    #[test]
    fn parse_rejects_pin_count_mismatch() {
        let nets = "NetDegree : 3\nsb0 B\nsb1 B\n";
        let err = parse("t", BLOCKS, nets, PL, Outline::new(10.0, 10.0), 1e-3).unwrap_err();
        assert!(matches!(
            err,
            ParseGsrcError::Malformed {
                section: "nets",
                ..
            }
        ));
    }

    #[test]
    fn roundtrip_through_writer() {
        let original = generate(Benchmark::N100, 7);
        let (b, n, p) = write(&original);
        let reparsed = parse(original.name(), &b, &n, &p, original.outline(), 1e-6).unwrap();
        assert_eq!(reparsed.blocks().len(), original.blocks().len());
        assert_eq!(reparsed.nets().len(), original.nets().len());
        assert_eq!(reparsed.terminals().len(), original.terminals().len());
        for (a, b) in original.nets().iter().zip(reparsed.nets()) {
            assert_eq!(a.degree(), b.degree());
        }
    }

    #[test]
    fn error_display_messages() {
        let e = ParseGsrcError::UnknownPin("x".into());
        assert!(format!("{e}").contains("unknown pin"));
        let e = ParseGsrcError::Design(DesignError::Empty);
        assert!(format!("{e}").contains("no blocks"));
    }
}
