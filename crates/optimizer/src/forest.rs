//! Random-forest regression: the surrogate model of the active-learning
//! loop (§IV-C: "one can use randomized decision forests \[69\] as the
//! base predictors").

use pspp_common::SplitMix64;

/// A CART regression tree trained by recursive variance-minimizing
/// splits.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<TreeNode>,
}

#[derive(Debug, Clone, PartialEq)]
enum TreeNode {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Features considered per split (None = all).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 10,
            min_samples_split: 4,
            max_features: None,
        }
    }
}

impl RegressionTree {
    /// Fits a tree on `(xs, ys)`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` lengths differ or `xs` is empty.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: &TreeConfig, rng: &mut SplitMix64) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot fit on empty data");
        let mut tree = RegressionTree { nodes: Vec::new() };
        let indices: Vec<usize> = (0..xs.len()).collect();
        tree.grow(xs, ys, &indices, 0, config, rng);
        tree
    }

    fn grow(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        indices: &[usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut SplitMix64,
    ) -> usize {
        let mean = indices.iter().map(|&i| ys[i]).sum::<f64>() / indices.len() as f64;
        let node_id = self.nodes.len();
        if depth >= config.max_depth
            || indices.len() < config.min_samples_split
            || Self::variance(ys, indices) < 1e-12
        {
            self.nodes.push(TreeNode::Leaf { value: mean });
            return node_id;
        }
        let n_features = xs[0].len();
        let k = config.max_features.unwrap_or(n_features).min(n_features);
        let mut features: Vec<usize> = (0..n_features).collect();
        rng.shuffle(&mut features);
        features.truncate(k.max(1));

        let mut best: Option<(usize, f64, f64)> = None; // feature, threshold, score
        for &f in &features {
            let mut vals: Vec<f64> = indices.iter().map(|&i| xs[i][f]).collect();
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            for w in vals.windows(2) {
                let threshold = (w[0] + w[1]) / 2.0;
                let (l, r): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| xs[i][f] <= threshold);
                if l.is_empty() || r.is_empty() {
                    continue;
                }
                let score = Self::variance(ys, &l) * l.len() as f64
                    + Self::variance(ys, &r) * r.len() as f64;
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((f, threshold, score));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            self.nodes.push(TreeNode::Leaf { value: mean });
            return node_id;
        };
        let (l, r): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| xs[i][feature] <= threshold);
        // Reserve the split slot, grow children, then patch.
        self.nodes.push(TreeNode::Leaf { value: mean });
        let left = self.grow(xs, ys, &l, depth + 1, config, rng);
        let right = self.grow(xs, ys, &r, depth + 1, config, rng);
        self.nodes[node_id] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_id
    }

    fn variance(ys: &[f64], indices: &[usize]) -> f64 {
        let n = indices.len() as f64;
        let mean = indices.iter().map(|&i| ys[i]).sum::<f64>() / n;
        indices.iter().map(|&i| (ys[i] - mean).powi(2)).sum::<f64>() / n
    }

    /// Predicts one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the fitted feature count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is a single leaf.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }
}

/// A bagged ensemble of regression trees with feature subsampling.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fits `n_trees` trees on bootstrap resamples of `(xs, ys)`.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched training data.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], n_trees: usize, seed: u64) -> Self {
        assert!(!xs.is_empty(), "cannot fit on empty data");
        let mut rng = SplitMix64::new(seed);
        let n_features = xs[0].len();
        let config = TreeConfig {
            max_features: Some(((n_features as f64).sqrt().ceil() as usize).max(1)),
            ..TreeConfig::default()
        };
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            // Bootstrap sample.
            let (bx, by): (Vec<Vec<f64>>, Vec<f64>) = (0..xs.len())
                .map(|_| {
                    let i = rng.next_index(xs.len());
                    (xs[i].clone(), ys[i])
                })
                .unzip();
            trees.push(RegressionTree::fit(&bx, &by, &config, &mut rng));
        }
        RandomForest { trees }
    }

    /// Mean prediction across trees.
    ///
    /// # Panics
    ///
    /// Panics if the forest is empty.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "empty forest");
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Prediction standard deviation across trees — the uncertainty
    /// signal active learning exploits.
    pub fn predict_std(&self, x: &[f64]) -> f64 {
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict(x)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        (preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64).sqrt()
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize, f: impl Fn(f64, f64) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (i as f64 / n as f64, j as f64 / n as f64);
                xs.push(vec![a, b]);
                ys.push(f(a, b));
            }
        }
        (xs, ys)
    }

    #[test]
    fn tree_fits_step_function_exactly() {
        let (xs, ys) = grid(12, |a, _| if a > 0.5 { 10.0 } else { -10.0 });
        let mut rng = SplitMix64::new(1);
        let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default(), &mut rng);
        assert_eq!(tree.predict(&[0.9, 0.2]), 10.0);
        assert_eq!(tree.predict(&[0.1, 0.8]), -10.0);
    }

    #[test]
    fn tree_constant_target_is_single_leaf() {
        let (xs, ys) = grid(5, |_, _| 3.0);
        let mut rng = SplitMix64::new(1);
        let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default(), &mut rng);
        assert!(tree.is_empty());
        assert_eq!(tree.predict(&[0.5, 0.5]), 3.0);
    }

    #[test]
    fn forest_approximates_smooth_function() {
        let (xs, ys) = grid(15, |a, b| a * 2.0 + b);
        let forest = RandomForest::fit(&xs, &ys, 30, 7);
        let mut err = 0.0;
        let mut count = 0;
        for (x, y) in xs.iter().zip(&ys) {
            err += (forest.predict(x) - y).abs();
            count += 1;
        }
        let mae = err / count as f64;
        assert!(mae < 0.15, "mae {mae}");
    }

    #[test]
    fn forest_uncertainty_higher_off_training_manifold() {
        // Train only on the left half; uncertainty on the right should
        // not collapse to zero while a training point's should be small.
        let (xs, ys) = grid(10, |a, b| (a * 6.0).sin() + b);
        let left: Vec<(Vec<f64>, f64)> = xs
            .iter()
            .zip(&ys)
            .filter(|(x, _)| x[0] < 0.5)
            .map(|(x, y)| (x.clone(), *y))
            .collect();
        let (lx, ly): (Vec<_>, Vec<_>) = left.into_iter().unzip();
        let forest = RandomForest::fit(&lx, &ly, 40, 3);
        let on = forest.predict_std(&[0.2, 0.2]);
        let off = forest.predict_std(&[0.95, 0.95]);
        assert!(off >= on, "off-manifold std {off} vs on {on}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = grid(8, |a, b| a + b);
        let f1 = RandomForest::fit(&xs, &ys, 10, 42);
        let f2 = RandomForest::fit(&xs, &ys, 10, 42);
        assert_eq!(f1.predict(&[0.3, 0.7]), f2.predict(&[0.3, 0.7]));
        assert_eq!(f1.len(), 10);
    }
}
