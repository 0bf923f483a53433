//! Gradient-boosted regression trees — the paper's default ML cost model
//! (§5.2, "gradient tree boosting model (based on XGBoost)").
//!
//! Implemented from scratch: exact greedy CART regression trees fit to
//! negative gradients, with two objectives:
//!
//! * **Regression** — squared error on the (negated, log-scaled) cost.
//! * **Rank** — RankNet-style pairwise objective; the paper observes that
//!   only the *relative order* of candidates matters to the explorer, so
//!   the model is trained to order configurations rather than predict
//!   absolute times.
//!
//! Fitting runs on rayon workers — the exact-greedy split search scans
//! features in parallel, and the O(n²) pairwise rank gradient is computed
//! in fixed-size row chunks. All reductions use a fixed grouping that does
//! not depend on the worker count, so a fit is bit-for-bit identical at
//! any worker count.

use rayon::prelude::*;

/// Training objective.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Objective {
    /// Squared-error regression on the target score.
    Regression,
    /// Pairwise rank: maximize the probability that better configs score
    /// higher.
    Rank,
}

/// Boosting hyperparameters.
#[derive(Clone, Debug)]
pub struct GbtParams {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Training objective.
    pub objective: Objective,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_trees: 60,
            max_depth: 5,
            min_samples_split: 4,
            learning_rate: 0.25,
            objective: Objective::Rank,
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Clone, Debug)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// A fitted gradient-boosted tree ensemble.
#[derive(Clone, Debug, Default)]
pub struct Gbt {
    trees: Vec<(f64, Tree)>, // (weight, tree)
    base: f64,
}

impl Gbt {
    /// Predicted score for one feature vector (higher = faster config).
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base
            + self
                .trees
                .iter()
                .map(|(w, t)| w * t.predict(x))
                .sum::<f64>()
    }

    /// Number of boosting rounds fitted.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

fn fit_tree(
    xs: &[Vec<f64>],
    targets: &[f64],
    idx: &[usize],
    depth: usize,
    params: &GbtParams,
    nodes: &mut Vec<Node>,
) -> usize {
    let mean: f64 = idx.iter().map(|&i| targets[i]).sum::<f64>() / idx.len().max(1) as f64;
    if depth >= params.max_depth || idx.len() < params.min_samples_split {
        nodes.push(Node::Leaf(mean));
        return nodes.len() - 1;
    }
    // Exact greedy split: scan each feature's sorted values. Features are
    // independent, so they are searched on the rayon workers; the winner is
    // folded in feature order (first feature wins ties), which reproduces
    // the serial scan exactly at any worker count.
    let n_features = xs[0].len();
    let total_sum: f64 = idx.iter().map(|&i| targets[i]).sum();
    let total_cnt = idx.len() as f64;
    let base_score = total_sum * total_sum / total_cnt;
    let search = |f: usize| -> Option<(f64, usize, f64)> {
        let mut order: Vec<usize> = idx.to_vec();
        // Unstable sort is safe: elements tied on the feature value all land
        // on one side of every candidate threshold (the scan skips equal
        // neighbors), so their relative order cannot change any split.
        order.sort_unstable_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]));
        let mut best: Option<(f64, usize, f64)> = None;
        let mut left_sum = 0.0;
        let mut left_cnt = 0.0;
        for w in 0..order.len() - 1 {
            let i = order[w];
            left_sum += targets[i];
            left_cnt += 1.0;
            let (xa, xb) = (xs[order[w]][f], xs[order[w + 1]][f]);
            if xa == xb {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_cnt = total_cnt - left_cnt;
            let gain =
                left_sum * left_sum / left_cnt + right_sum * right_sum / right_cnt - base_score;
            if best.map(|(g, _, _)| gain > g).unwrap_or(gain > 1e-12) {
                best = Some((gain, f, (xa + xb) * 0.5));
            }
        }
        best
    };
    // Parallelism only pays once the per-feature sort+scan is non-trivial;
    // below the threshold the fork-join overhead exceeds the work, so the
    // serial scan is faster.
    let per_feature: Vec<Option<(f64, usize, f64)>> = if idx.len() >= 64 {
        (0..n_features).into_par_iter().map(search).collect()
    } else {
        (0..n_features).map(search).collect()
    };
    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
    for found in per_feature.into_iter().flatten() {
        if best.map(|(g, _, _)| found.0 > g).unwrap_or(true) {
            best = Some(found);
        }
    }
    match best {
        None => {
            nodes.push(Node::Leaf(mean));
            nodes.len() - 1
        }
        Some((_, feature, threshold)) => {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| xs[i][feature] <= threshold);
            if li.is_empty() || ri.is_empty() {
                nodes.push(Node::Leaf(mean));
                return nodes.len() - 1;
            }
            let slot = nodes.len();
            nodes.push(Node::Leaf(0.0)); // placeholder
            let left = fit_tree(xs, targets, &li, depth + 1, params, nodes);
            let right = fit_tree(xs, targets, &ri, depth + 1, params, nodes);
            nodes[slot] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
            slot
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Fits an ensemble on `(features, score)` pairs; higher scores are better
/// configurations (the tuner passes `-log(cost)`).
pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &GbtParams) -> Gbt {
    let mut model = Gbt::default();
    fit_more(&mut model, xs, ys, params, params.n_trees);
    model
}

/// Warm-start boosting: extends an already-fitted ensemble with
/// `add_trees` new rounds on (possibly grown) training data. Existing
/// trees are kept; the new trees fit the residuals of the whole ensemble
/// on the current data. An online tuner that grows its history a batch at
/// a time pays only the marginal rounds instead of refitting from scratch
/// — `fit(xs, ys, p)` is exactly `fit_more` on an empty model with
/// `p.n_trees` rounds. Deterministic at any worker count, like [`fit`].
pub fn fit_more(
    model: &mut Gbt,
    xs: &[Vec<f64>],
    ys: &[f64],
    params: &GbtParams,
    add_trees: usize,
) {
    assert_eq!(xs.len(), ys.len());
    if xs.is_empty() {
        return;
    }
    let n = xs.len();
    if model.trees.is_empty() {
        model.base = ys.iter().sum::<f64>() / n as f64;
    }
    // Current ensemble predictions over the (possibly grown) dataset.
    let mut preds: Vec<f64> = if n >= 64 {
        xs.par_iter().map(|x| model.predict(x)).collect()
    } else {
        xs.iter().map(|x| model.predict(x)).collect()
    };
    let all_idx: Vec<usize> = (0..n).collect();
    for _ in 0..add_trees {
        // Negative gradient of the objective at current predictions.
        let grad: Vec<f64> = match params.objective {
            Objective::Regression => (0..n).map(|i| ys[i] - preds[i]).collect(),
            Objective::Rank => {
                // Pairwise RankNet lambdas. The O(n²) pair scan is chunked
                // by row into fixed-size blocks computed on the rayon
                // workers; partials are folded in chunk order so the float
                // accumulation grouping — and hence the fit — is identical
                // at any worker count.
                const ROW_CHUNK: usize = 32;
                let starts: Vec<usize> = (0..n).step_by(ROW_CHUNK).collect();
                let preds_ref = &preds;
                let chunk = |start: usize| -> Vec<f64> {
                    let mut g = vec![0.0; n];
                    for i in start..(start + ROW_CHUNK).min(n) {
                        for j in (i + 1)..n {
                            if ys[i] == ys[j] {
                                continue;
                            }
                            let (hi, lo) = if ys[i] > ys[j] { (i, j) } else { (j, i) };
                            let lambda = sigmoid(-(preds_ref[hi] - preds_ref[lo]));
                            g[hi] += lambda;
                            g[lo] -= lambda;
                        }
                    }
                    g
                };
                let partials: Vec<Vec<f64>> = if starts.len() > 1 {
                    starts.clone().into_par_iter().map(chunk).collect()
                } else {
                    starts.iter().map(|&s| chunk(s)).collect()
                };
                let mut g = vec![0.0; n];
                for p in &partials {
                    for (acc, v) in g.iter_mut().zip(p) {
                        *acc += *v;
                    }
                }
                let scale = 1.0 / (n as f64).max(1.0);
                g.iter_mut().for_each(|v| *v *= scale * 4.0);
                g
            }
        };
        let mut nodes = Vec::new();
        {
            let _s = tvm_obs::span("fit_tree");
            fit_tree(xs, &grad, &all_idx, 0, params, &mut nodes);
        }
        let tree = Tree { nodes };
        // Per-sample prediction updates are independent: map on the workers,
        // apply in order.
        let deltas: Vec<f64> = if n >= 64 {
            xs.par_iter().map(|x| tree.predict(x)).collect()
        } else {
            xs.iter().map(|x| tree.predict(x)).collect()
        };
        for (p, d) in preds.iter_mut().zip(deltas) {
            *p += params.learning_rate * d;
        }
        model.trees.push((params.learning_rate, tree));
    }
}

/// Fraction of pairs ordered correctly by the model (rank quality metric).
pub fn pairwise_accuracy(model: &Gbt, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
    let preds: Vec<f64> = xs.iter().map(|x| model.predict(x)).collect();
    let mut correct = 0u64;
    let mut total = 0u64;
    for i in 0..xs.len() {
        for j in (i + 1)..xs.len() {
            if ys[i] == ys[j] {
                continue;
            }
            total += 1;
            if (ys[i] > ys[j]) == (preds[i] > preds[j]) {
                correct += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn synthetic(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random_range(0.0..4.0);
            let b: f64 = rng.random_range(0.0..4.0);
            let c: f64 = rng.random_range(0.0..1.0);
            // Nonlinear interaction, like tiling sweet spots.
            let y = -(a - 2.2).powi(2) - 0.5 * (b - 1.1).powi(2) + 0.3 * c;
            xs.push(vec![a, b, c]);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn regression_learns_nonlinear_surface() {
        let (xs, ys) = synthetic(300, 1);
        let model = fit(
            &xs,
            &ys,
            &GbtParams {
                objective: Objective::Regression,
                ..GbtParams::default()
            },
        );
        let (txs, tys) = synthetic(100, 2);
        let mse: f64 = txs
            .iter()
            .zip(&tys)
            .map(|(x, y)| (model.predict(x) - y).powi(2))
            .sum::<f64>()
            / 100.0;
        let var: f64 = {
            let m = tys.iter().sum::<f64>() / tys.len() as f64;
            tys.iter().map(|y| (y - m).powi(2)).sum::<f64>() / tys.len() as f64
        };
        assert!(mse < var * 0.3, "mse {mse} vs variance {var}");
    }

    #[test]
    fn rank_objective_orders_pairs() {
        let (xs, ys) = synthetic(200, 3);
        let model = fit(
            &xs,
            &ys,
            &GbtParams {
                objective: Objective::Rank,
                ..GbtParams::default()
            },
        );
        let (txs, tys) = synthetic(100, 4);
        let acc = pairwise_accuracy(&model, &txs, &tys);
        assert!(acc > 0.8, "pairwise accuracy {acc}");
    }

    #[test]
    fn empty_training_is_safe() {
        let model = fit(&[], &[], &GbtParams::default());
        assert_eq!(model.predict(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(model.n_trees(), 0);
    }

    #[test]
    fn single_sample_predicts_its_value() {
        let model = fit(
            &[vec![1.0]],
            &[5.0],
            &GbtParams {
                objective: Objective::Regression,
                ..GbtParams::default()
            },
        );
        assert!((model.predict(&[1.0]) - 5.0).abs() < 1e-6);
    }
}
