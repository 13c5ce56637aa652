//! Seeded fuzz suite of the fault-plan parser (`FaultPlan::parse`, the `--fault-plan`
//! syntax of the campaign and serve binaries).
//!
//! * Random text over the plan grammar's own tokens — site names, separators, numbers up
//!   to and past `u64::MAX`, actions, whitespace and multi-byte characters — parses to a
//!   plan or a typed message, never a panic; and whatever parses renders (`Display`) to
//!   text that parses back to the same plan.
//! * Random well-formed plans survive `Display` → `parse` unchanged.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use tsc3d_exec::{FaultAction, FaultPlan, FaultSpec};

const TOKENS: &[&str] = &[
    "flow-stage",
    "sa-epoch",
    "solver-sweep",
    "x",
    ":",
    "::",
    ",",
    " ",
    "\t",
    "\n",
    "0",
    "1",
    "3",
    "+2",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "panic",
    "error",
    "delay",
    "delay:",
    "delay:50",
    "delay:x",
    "oops",
    "é",
    "\u{a0}",
    "😀",
];

const SITES: &[&str] = &[
    "flow-stage",
    "sa-epoch",
    "solver-sweep",
    "sca-batch",
    "exec worker",
    "é",
];

const HITS: &[&str] = &["1", "3", "+2", "18446744073709551615"];

const ACTIONS: &[&str] = &["panic", "error", "delay:50", "delay:+7"];

const SEPARATORS: &[&str] = &[",", ", ", ",,", " , ", ",\n"];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One plan field: usually a valid value, sometimes up to three random tokens.
fn field(rng: &mut TestRng, valid: &[&str]) -> String {
    if rng.below(4) == 0 {
        (0..rng.below(4)).map(|_| pick(rng, TOKENS)).collect()
    } else {
        pick(rng, valid).to_string()
    }
}

/// Up to four `site:hit:action` entries with noisy fields and separators, or (one case
/// in four) up to 24 random tokens.
struct PlanLike;

impl Strategy for PlanLike {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        if rng.below(4) == 0 {
            return (0..rng.below(25)).map(|_| pick(rng, TOKENS)).collect();
        }
        let mut text = String::new();
        for i in 0..1 + rng.below(4) {
            if i > 0 {
                text.push_str(pick(rng, SEPARATORS));
            }
            let entry = [field(rng, SITES), field(rng, HITS), field(rng, ACTIONS)];
            text.push_str(&entry.join(":"));
        }
        text
    }
}

/// A random non-empty plan of valid specs.
struct Plan;

impl Strategy for Plan {
    type Value = FaultPlan;

    fn sample(&self, rng: &mut TestRng) -> FaultPlan {
        let specs = (0..1 + rng.below(5))
            .map(|_| FaultSpec {
                site: SITES[rng.below(SITES.len() as u64) as usize].to_string(),
                hit: 1 + (rng.next_u64() >> rng.below(64)).min(u64::MAX - 1),
                action: match rng.below(3) {
                    0 => FaultAction::Panic,
                    1 => FaultAction::Error,
                    _ => FaultAction::Delay(rng.next_u64() >> rng.below(64)),
                },
            })
            .collect();
        FaultPlan { specs }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn plan_like_text_parses_or_fails_typed(text in PlanLike) {
        match FaultPlan::parse(&text) {
            Ok(plan) => {
                prop_assert!(!plan.specs.is_empty());
                prop_assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
            }
            Err(message) => prop_assert!(!message.is_empty()),
        }
    }

    #[test]
    fn plans_round_trip_through_display_and_parse(plan in Plan) {
        prop_assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
    }
}
