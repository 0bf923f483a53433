//! The verdict rule of the `figures` binary. An entry regenerates one
//! figure or table, prints it, and returns its **claims**: directions of
//! effect taken from the paper's text (who wins, rough factor, where the
//! crossover falls), each evaluated on the numbers just printed. A claim
//! that is false today is **pinned** with its cause; the run fails when an
//! unpinned claim fails *or a pinned claim holds*, so the pin list is the
//! list of known deviations and can only shrink.

use tvm_json::escape;

/// One checked direction of effect. `id` is `<entry>.<what>`.
pub struct Claim {
    pub id: String,
    pub holds: bool,
    /// The numbers the verdict was read off, for the log.
    pub observed: String,
}

/// Shorthand constructor.
pub fn claim(id: &str, holds: bool, observed: impl Into<String>) -> Claim {
    Claim {
        id: id.to_string(),
        holds,
        observed: observed.into(),
    }
}

/// A known deviation: the claim `id` is false today, because of `cause`.
pub struct Pin {
    pub id: &'static str,
    pub cause: &'static str,
}

/// A figure, table or simulated-clock result that can be regenerated: its
/// name, and the function that prints the table and returns the claims
/// read off it.
pub type Entry = (&'static str, fn() -> Vec<Claim>);

/// Why a claim fails the run, if it does.
pub fn verdict(holds: bool, pinned: Option<&str>) -> Result<(), &'static str> {
    match (holds, pinned) {
        (true, None) | (false, Some(_)) => Ok(()),
        (false, None) => Err("claim fails and is not pinned"),
        (true, Some(_)) => Err("stale pin: the claim holds now, delete its pin"),
    }
}

/// The JSON line printed for a claim.
pub fn claim_json(c: &Claim, pinned: Option<&str>) -> String {
    let mut line = format!(
        "{{\"id\":{},\"holds\":{},\"observed\":{}",
        escape(&c.id),
        c.holds,
        escape(&c.observed)
    );
    if let Some(cause) = pinned {
        line += &format!(",\"pinned\":{}", escape(cause));
    }
    line + "}"
}

/// Runs the entries named by `args` (`all` = every entry) and returns the
/// process exit code: 0 when every verdict passes, 1 otherwise, 2 when
/// `args` names no entry or an unknown one.
pub fn run(args: &[String], entries: &[Entry], pins: &[Pin]) -> i32 {
    let usage = || {
        let names: Vec<&str> = entries.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "usage: figures <entry>... | all\nentries: {}",
            names.join(" ")
        );
        2
    };
    let mut selected: Vec<&Entry> = Vec::new();
    for a in args {
        match entries.iter().find(|(name, _)| name == a) {
            Some(e) => selected.push(e),
            None if a == "all" => selected.extend(entries),
            None => {
                eprintln!("unknown entry `{a}`");
                return usage();
            }
        }
    }
    if selected.is_empty() {
        return usage();
    }
    let mut failures: Vec<String> = Vec::new();
    for &(name, entry) in selected {
        let claims = entry();
        if claims.is_empty() {
            failures.push(format!("{name}: entry made no claim"));
        }
        for c in &claims {
            let pinned = pins.iter().find(|p| p.id == c.id).map(|p| p.cause);
            println!("{}", claim_json(c, pinned));
            if let Err(why) = verdict(c.holds, pinned) {
                failures.push(format!("{}: {why} (observed: {})", c.id, c.observed));
            }
        }
        // A pin whose claim no longer exists would never go stale.
        for p in pins {
            let owned = p.id.split('.').next() == Some(name);
            if owned && !claims.iter().any(|c| c.id == p.id) {
                failures.push(format!("{}: pin names no claim of `{name}`", p.id));
            }
        }
        println!();
    }
    for f in &failures {
        eprintln!("FAIL {f}");
    }
    i32::from(!failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entries::{ENTRIES, PINS};
    use tvm_json::Value;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    const FAKES: &[Entry] = &[
        ("good", || vec![claim("good.wins", true, "2.0x")]),
        ("bad", || vec![claim("bad.wins", false, "0.5x")]),
        ("silent", Vec::new),
    ];

    #[test]
    fn unpinned_failure_fails_the_run() {
        assert_eq!(run(&args(&["good"]), FAKES, &[]), 0);
        assert_eq!(run(&args(&["bad"]), FAKES, &[]), 1);
        assert_eq!(run(&args(&["all"]), FAKES, &[]), 1);
    }

    #[test]
    fn a_pin_excuses_a_failing_claim_and_goes_stale_when_it_holds() {
        let pin = |id| Pin { id, cause: "known" };
        assert_eq!(run(&args(&["bad"]), FAKES, &[pin("bad.wins")]), 0);
        assert_eq!(run(&args(&["good"]), FAKES, &[pin("good.wins")]), 1);
        assert!(verdict(true, Some("known"))
            .unwrap_err()
            .contains("stale pin"));
        // A pin that names no claim of the entry it belongs to can never
        // go stale, so it fails too.
        assert_eq!(run(&args(&["good"]), FAKES, &[pin("good.gone")]), 1);
    }

    #[test]
    fn an_entry_without_claims_fails_the_run() {
        assert_eq!(run(&args(&["silent"]), FAKES, &[]), 1);
    }

    #[test]
    fn unknown_or_missing_entry_is_a_usage_error() {
        assert_eq!(run(&args(&["fig99"]), ENTRIES, PINS), 2);
        assert_eq!(run(&args(&["--quick"]), ENTRIES, PINS), 2);
        assert_eq!(run(&[], ENTRIES, PINS), 2);
    }

    /// Two cheap real entries end to end: the registry, the per-entry
    /// thread and the verdict on claims the paper's text gives.
    #[test]
    fn real_entries_pass_under_the_real_pins() {
        assert_eq!(run(&args(&["fig04", "table02"]), ENTRIES, PINS), 0);
    }

    #[test]
    fn claim_lines_are_json_with_the_pin_cause() {
        let c = claim("fig00.wins", false, "a \"b\"");
        let v = tvm_json::from_str(&claim_json(&c, Some("because"))).expect("parses");
        assert_eq!(v.get("id"), Some(&Value::from("fig00.wins")));
        assert_eq!(v.get("holds"), Some(&Value::Bool(false)));
        assert_eq!(v.get("observed"), Some(&Value::from("a \"b\"")));
        assert_eq!(v.get("pinned"), Some(&Value::from("because")));
        let v = tvm_json::from_str(&claim_json(&c, None)).expect("parses");
        assert_eq!(v.get("pinned"), None);
    }

    /// The registry's static shape: unique entry names, and every pin
    /// carries a cause, belongs to a registered entry and is listed in
    /// EXPERIMENTS.md "Known deviations".
    #[test]
    fn every_pin_has_a_cause_an_entry_and_a_line_in_experiments() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let known = doc
            .split_once("## Known deviations")
            .expect("EXPERIMENTS.md has a Known deviations section")
            .1;
        for (i, (name, _)) in ENTRIES.iter().enumerate() {
            assert!(ENTRIES[..i].iter().all(|o| o.0 != *name), "{name} twice");
        }
        for (i, p) in PINS.iter().enumerate() {
            assert!(
                PINS[..i].iter().all(|o| o.id != p.id),
                "{} pinned twice",
                p.id
            );
            assert!(p.cause.len() > 20, "{}: a pin needs a cause", p.id);
            let owner = p.id.split('.').next().expect("non-empty id");
            assert!(
                ENTRIES.iter().any(|(name, _)| *name == owner),
                "{}: no entry `{owner}`",
                p.id
            );
            assert!(
                known.contains(&format!("`{}`", p.id)),
                "{} not in EXPERIMENTS.md",
                p.id
            );
        }
    }
}
