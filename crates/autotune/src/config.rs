//! Schedule-space specification (§5.1).
//!
//! A [`ConfigSpace`] declares the knobs of a schedule template — tile
//! factors, annotation choices, ordering switches. Each point of the
//! (mixed-radix) space is a [`ConfigEntity`] the template consumes to build
//! a concrete schedule. Real-world spaces here reach millions to billions
//! of configurations, matching the paper's scale claims.

use rand::{Rng, RngExt};

/// One knob: a named choice among integer options.
#[derive(Clone, Debug)]
pub struct Knob {
    /// Knob name, referenced by the template.
    pub name: String,
    /// Allowed values.
    pub options: Vec<i64>,
}

/// The declared space of schedule configurations.
#[derive(Clone, Debug, Default)]
pub struct ConfigSpace {
    /// Knobs in declaration order (the mixed-radix digit order).
    pub knobs: Vec<Knob>,
    /// Preferred starting points (flat indices) declared by the space
    /// author — population-based tuners measure these before random
    /// exploration, like TVM's fallback configurations. Purely
    /// advisory: an empty list means "start from uniform random".
    pub seeds: Vec<u64>,
}

impl ConfigSpace {
    /// Empty space.
    pub fn new() -> Self {
        ConfigSpace::default()
    }

    /// Declares a tiling knob whose options are the divisors of `extent`
    /// (optionally capped), the standard `define_split` pattern.
    pub fn define_split(&mut self, name: impl Into<String>, extent: i64, max_factor: i64) {
        let mut options: Vec<i64> = (1..=extent.min(max_factor))
            .filter(|f| extent % f == 0)
            .collect();
        if options.is_empty() {
            options.push(1);
        }
        self.knobs.push(Knob {
            name: name.into(),
            options,
        });
    }

    /// Declares an arbitrary-choice knob.
    pub fn define_knob(&mut self, name: impl Into<String>, options: &[i64]) {
        assert!(!options.is_empty(), "knob must have at least one option");
        self.knobs.push(Knob {
            name: name.into(),
            options: options.to_vec(),
        });
    }

    /// Total number of configurations.
    pub fn size(&self) -> u64 {
        self.knobs.iter().map(|k| k.options.len() as u64).product()
    }

    /// Decodes a flat index into a configuration.
    pub fn get(&self, index: u64) -> ConfigEntity {
        let mut rem = index % self.size().max(1);
        let mut values = Vec::with_capacity(self.knobs.len());
        for k in &self.knobs {
            let n = k.options.len() as u64;
            values.push((k.name.clone(), k.options[(rem % n) as usize]));
            rem /= n;
        }
        ConfigEntity { index, values }
    }

    /// Uniform random configuration index.
    pub fn random_index(&self, rng: &mut impl Rng) -> u64 {
        rng.random_range(0..self.size().max(1))
    }

    /// The flat index of the configuration nearest `values`: knobs not
    /// mentioned take their first option; a value with no exact option
    /// maps to the nearest one.
    pub fn index_near(&self, values: &[(&str, i64)]) -> u64 {
        let mut idx = 0u64;
        let mut mult = 1u64;
        for k in &self.knobs {
            let digit = match values.iter().find(|(n, _)| *n == k.name) {
                Some(&(_, v)) => k
                    .options
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &o)| (o - v).unsigned_abs())
                    .map(|(i, _)| i)
                    .unwrap_or(0),
                None => 0,
            };
            idx += digit as u64 * mult;
            mult *= k.options.len() as u64;
        }
        idx
    }

    /// Declares a preferred starting configuration by knob value
    /// ([`index_near`](ConfigSpace::index_near) it, so seeds stay valid as
    /// the space evolves).
    pub fn add_seed(&mut self, values: &[(&str, i64)]) {
        let idx = self.index_near(values);
        if !self.seeds.contains(&idx) {
            self.seeds.push(idx);
        }
    }

    /// A neighboring index: one knob mutated to a different option.
    pub fn neighbor(&self, index: u64, rng: &mut impl Rng) -> u64 {
        if self.knobs.is_empty() {
            return index;
        }
        let dim = rng.random_range(0..self.knobs.len());
        // Decode digits.
        let mut digits: Vec<u64> = Vec::with_capacity(self.knobs.len());
        let mut rem = index % self.size().max(1);
        for k in &self.knobs {
            let n = k.options.len() as u64;
            digits.push(rem % n);
            rem /= n;
        }
        let n = self.knobs[dim].options.len() as u64;
        if n > 1 {
            let mut nv = rng.random_range(0..n);
            if nv == digits[dim] {
                nv = (nv + 1) % n;
            }
            digits[dim] = nv;
        }
        // Re-encode.
        let mut out = 0u64;
        for (d, k) in digits.iter().zip(&self.knobs).rev() {
            out = out * k.options.len() as u64 + d;
        }
        out
    }
}

/// One point of a [`ConfigSpace`].
#[derive(Clone, Debug)]
pub struct ConfigEntity {
    /// Flat index in the space.
    pub index: u64,
    /// Knob values in declaration order.
    pub values: Vec<(String, i64)>,
}

impl ConfigEntity {
    /// Value of a knob by name.
    ///
    /// # Panics
    /// Panics when the knob does not exist (a template bug). Builders on
    /// the measurement path should prefer [`ConfigEntity::try_get`].
    pub fn get(&self, name: &str) -> i64 {
        self.try_get(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Value of a knob by name, or a typed error when the space never
    /// declared it — the non-panicking form for request/measure paths.
    pub fn try_get(&self, name: &str) -> Result<i64, crate::error::TuneError> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| crate::error::TuneError::UnknownKnob {
                name: name.to_string(),
            })
    }

    /// Short human-readable form for logs.
    pub fn summary(&self) -> String {
        self.values
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.define_split("tile_x", 64, 64);
        s.define_split("tile_y", 64, 64);
        s.define_knob("unroll", &[0, 1]);
        s
    }

    #[test]
    fn size_is_product() {
        let s = space();
        // divisors of 64: 1,2,4,8,16,32,64 -> 7 options.
        assert_eq!(s.size(), 7 * 7 * 2);
    }

    #[test]
    fn index_round_trips() {
        let s = space();
        for idx in [0u64, 1, 13, 97, 57] {
            let c = s.get(idx);
            assert_eq!(c.index, idx);
            // Rebuilding the index from the digit values matches.
            let mut out = 0u64;
            for (d, k) in c
                .values
                .iter()
                .map(|(n, v)| {
                    let k = s.knobs.iter().find(|k| &k.name == n).expect("knob");
                    (
                        k.options.iter().position(|o| o == v).expect("option") as u64,
                        k,
                    )
                })
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
            {
                out = out * k.options.len() as u64 + d;
            }
            assert_eq!(out, idx);
        }
    }

    #[test]
    fn neighbor_differs_in_exactly_one_knob() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let idx = s.random_index(&mut rng);
            let nb = s.neighbor(idx, &mut rng);
            let a = s.get(idx);
            let b = s.get(nb);
            let diffs = a
                .values
                .iter()
                .zip(&b.values)
                .filter(|((_, x), (_, y))| x != y)
                .count();
            assert!(diffs <= 1, "{} vs {}", a.summary(), b.summary());
        }
    }

    #[test]
    fn try_get_rejects_unknown_knob() {
        let s = space();
        let cfg = s.get(3);
        assert_eq!(cfg.try_get("tile_x").unwrap(), cfg.get("tile_x"));
        let err = cfg.try_get("no_such_knob").unwrap_err();
        assert_eq!(
            err,
            crate::error::TuneError::UnknownKnob {
                name: "no_such_knob".into()
            }
        );
        assert!(err.to_string().contains("no_such_knob"));
    }

    #[test]
    fn split_options_divide_extent() {
        let mut s = ConfigSpace::new();
        s.define_split("t", 56, 16);
        for k in &s.knobs {
            for o in &k.options {
                assert_eq!(56 % o, 0);
                assert!(*o <= 16);
            }
        }
    }
}
