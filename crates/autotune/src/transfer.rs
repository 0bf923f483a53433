//! Journal-backed transfer learning across tuning tasks.
//!
//! A tuned task leaves two things in the journal: its trial records and
//! its invariant feature-space signature ([`crate::task_signature`]).
//! When a *new* task starts, [`warm_start_seeds`] finds the journaled
//! task nearest in signature space, takes its best configurations, and
//! maps them knob-by-knob onto the new task's space. Sketch spaces use
//! shared knob names across workloads (`sketch`, `t0`, `t1`, `r0`,
//! `vec`, ...) precisely so this mapping is meaningful: "tile the
//! innermost spatial axis by 8" transfers even when the extents differ.

use crate::config::ConfigSpace;
use crate::db::Journal;

/// Maps a knob-value summary (the `name=value,...` form written by
/// [`crate::ConfigEntity::summary`]) onto `space`, producing the flat
/// index of the nearest representable configuration. Knobs the summary
/// does not mention — and mentioned values no option matches exactly —
/// fall back to the nearest declared option (by absolute difference,
/// ties to the smaller option), so a config transfers across spaces
/// whose extents and divisor sets differ.
pub fn map_config(space: &ConfigSpace, summary: &str) -> u64 {
    let source: Vec<(&str, i64)> = summary
        .split(',')
        .filter_map(|kv| {
            let (name, val) = kv.split_once('=')?;
            Some((name.trim(), val.trim().parse::<i64>().ok()?))
        })
        .collect();
    let mut index = 0u64;
    for k in space.knobs.iter().rev() {
        let digit = match source.iter().find(|(n, _)| *n == k.name) {
            Some(&(_, want)) => k
                .options
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| (*a - want).abs().cmp(&(*b - want).abs()).then(a.cmp(b)))
                .map(|(i, _)| i as u64)
                .unwrap_or(0),
            // Unmentioned knob: keep the first (identity-leaning) option.
            None => 0,
        };
        index = index * k.options.len() as u64 + digit;
    }
    index
}

/// Configuration indices to seed a new task's search population with:
/// the `k` best journaled configs of the task nearest to `sig` in
/// invariant feature space, mapped onto `space` via [`map_config`].
/// Empty when the journal knows no other task with finite results —
/// cold start is always a valid fallback.
pub fn warm_start_seeds(
    journal: &Journal,
    task: &str,
    sig: &[f64],
    space: &ConfigSpace,
    k: usize,
) -> Vec<u64> {
    let Some(neighbor) = journal.nearest_task(sig, task) else {
        return Vec::new();
    };
    let mut trials: Vec<_> = journal
        .trials_for(neighbor)
        .into_iter()
        .filter(|r| r.cost_ms.is_finite())
        .collect();
    trials.sort_by(|a, b| a.cost_ms.total_cmp(&b.cost_ms));
    let mut seeds = Vec::new();
    for r in trials.into_iter().take(k.max(1) * 4) {
        let idx = map_config(space, &r.config);
        if !seeds.contains(&idx) {
            seeds.push(idx);
            if seeds.len() >= k {
                break;
            }
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigSpace;
    use crate::db::Database;

    fn space_64() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.define_split("t0", 64, 64); // divisors of 64
        s.define_knob("vec", &[0, 1]);
        s
    }

    #[test]
    fn map_config_snaps_to_nearest_option() {
        // Source space tiled 48 by 12; target extent 64 has no 12 — the
        // nearest divisor wins, the 8-vs-16 distance tie breaking low.
        let s = space_64();
        let cfg = s.get(map_config(&s, "t0=12,vec=1"));
        assert_eq!(cfg.get("t0"), 8);
        assert_eq!(cfg.get("vec"), 1);
        // Exact matches stay exact; unknown source knobs are ignored;
        // unmentioned target knobs default to their first option.
        let cfg = s.get(map_config(&s, "t0=8,weird=3"));
        assert_eq!(cfg.get("t0"), 8);
        assert_eq!(cfg.get("vec"), 0);
        // Garbage summaries degrade to the all-defaults config.
        assert_eq!(map_config(&s, "not a config at all"), 0);
    }

    #[test]
    fn warm_start_seeds_come_from_nearest_neighbor() {
        let path = std::env::temp_dir().join("tvm_rs_transfer_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).expect("create");
        j.append_sig("near", &[1.0, 1.0]).expect("sig");
        j.append_sig("far", &[50.0, 50.0]).expect("sig");
        let src = space_64();
        let mut db = Database::new();
        db.add("near", &src.get(map_config(&src, "t0=16,vec=1")), 1.0);
        db.add("near", &src.get(map_config(&src, "t0=8,vec=1")), 2.0);
        db.add("far", &src.get(map_config(&src, "t0=1,vec=0")), 0.5);
        for r in db.records {
            j.append(r).expect("append");
        }
        let target = space_64();
        let seeds = warm_start_seeds(&j, "new_task", &[1.2, 0.9], &target, 2);
        assert_eq!(seeds.len(), 2);
        // Best-first: the 1.0ms config (t0=16, vec=1) maps to the first seed.
        let best = target.get(seeds[0]);
        assert_eq!(best.get("t0"), 16);
        assert_eq!(best.get("vec"), 1);
        // Tuning `near` itself never transfers from `near`: the seeds
        // come from `far` (whose best used t0=1).
        let self_seeds = warm_start_seeds(&j, "near", &[1.0, 1.0], &target, 2);
        assert!(self_seeds.iter().all(|s| target.get(*s).get("t0") == 1));
        let _ = std::fs::remove_file(&path);
    }
}
