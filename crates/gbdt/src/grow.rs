//! Leaf-wise (best-first) histogram tree growing.
//!
//! The learner LightGBM popularized and the paper trains with: at every
//! step, split the leaf with the largest gain anywhere in the tree, until
//! `max_leaves` is reached or no split clears the regularization
//! constraints. Gains and leaf values use the second-order (gradient +
//! hessian) formulation, so the same grower serves both MART (MSE) and
//! LambdaMART (λ-gradients).
//!
//! Histograms are accumulated once per leaf and children reuse the
//! classic subtraction trick — build the smaller child from its documents,
//! derive the sibling as `parent − child` — keeping growth near
//! `O(docs × features × log leaves)` per tree.
//!
//! **Layout.** A histogram is feature-major: feature `f` owns one
//! contiguous run of bins, each an interleaved `(grad, hess)` pair of
//! `f64` with a `u32` count beside it (20 bytes a bin). A leaf's histogram
//! is built one feature at a time from that feature's column of the
//! [`BinnedDataset`], so the ≤ 255 bins being filled stay in L1; the same
//! feature's bins are then subtracted from the parent's and both children
//! scanned for their best split before the next feature is touched.
//!
//! **In place.** The split leaf's histogram becomes its larger child's
//! through `parent −= small`; histograms no live leaf needs (the leaf was
//! split, cannot split, or the tree is full) go to a free list the grower
//! owns and are reused for the next leaf and the next tree, so a fit
//! allocates at most as many histograms as one tree holds live at once.
//!
//! **Exactness.** Every bin sums its leaf's documents in ascending
//! document id order (the root's ids ascend and partitioning keeps the
//! order), features are scanned in index order and a later candidate wins
//! only with a strictly larger gain. The layout therefore decides only
//! where a sum lives, never its value: the grower yields the same trees,
//! bit for bit, as the row-major one it replaced
//! (`crates/gbdt/tests/fingerprints.rs` pins them).

use crate::binning::{BinnedDataset, FeatureBinner};
use crate::tree::{leaf_ref, NodeRef, RegressionTree};
use std::ops::Range;

/// Regularization and size constraints for tree growth.
///
/// Field names follow LightGBM, which the paper tunes
/// (`min_sum_hessian_in_leaf`, `min_data_in_leaf`, `max_depth`, §6.1).
#[derive(Debug, Clone, Copy)]
pub struct GrowthParams {
    /// Maximum number of leaves (64 for competitor models, 256 for
    /// teachers in the paper).
    pub max_leaves: usize,
    /// Maximum depth; `0` means unlimited.
    pub max_depth: usize,
    /// Minimum documents per leaf.
    pub min_data_in_leaf: usize,
    /// Minimum summed hessian per leaf.
    pub min_sum_hessian_in_leaf: f64,
    /// L2 regularization added to the hessian in gains and leaf values.
    pub lambda_l2: f64,
}

impl Default for GrowthParams {
    fn default() -> Self {
        GrowthParams {
            max_leaves: 64,
            max_depth: 0,
            min_data_in_leaf: 20,
            min_sum_hessian_in_leaf: 1e-3,
            lambda_l2: 0.0,
        }
    }
}

/// Histogram over all features' bins for one leaf, feature-major.
#[derive(Debug)]
struct Histogram {
    /// Per bin: summed `(gradient, hessian)`.
    gh: Vec<[f64; 2]>,
    /// Per bin: document count.
    count: Vec<u32>,
}

impl Histogram {
    fn new(total_bins: usize) -> Histogram {
        Histogram {
            gh: vec![[0.0; 2]; total_bins],
            count: vec![0; total_bins],
        }
    }

    /// One feature's bins.
    fn feature_mut(&mut self, bins: Range<usize>) -> (&mut [[f64; 2]], &mut [u32]) {
        (&mut self.gh[bins.clone()], &mut self.count[bins])
    }
}

/// Candidate split of a leaf.
#[derive(Debug, Clone, Copy)]
struct SplitInfo {
    gain: f64,
    feature: usize,
    /// Last bin going left; the real-valued threshold is its upper bound.
    bin: usize,
}

/// A leaf under construction.
#[derive(Debug)]
struct Leaf {
    /// Ascending document ids.
    docs: Vec<u32>,
    /// Held only while the leaf has a split to take.
    hist: Option<Histogram>,
    sum_grad: f64,
    sum_hess: f64,
    depth: usize,
    best: Option<SplitInfo>,
}

impl Leaf {
    /// A leaf over `docs` with its gradient sums and no histogram yet.
    fn new(docs: Vec<u32>, grad: &[f64], hess: &[f64], depth: usize) -> Leaf {
        let mut sum_grad = 0.0;
        let mut sum_hess = 0.0;
        for &d in &docs {
            sum_grad += grad[d as usize];
            sum_hess += hess[d as usize];
        }
        Leaf {
            docs,
            hist: None,
            sum_grad,
            sum_hess,
            depth,
            best: None,
        }
    }
}

/// Node arena entry while the tree is being built.
enum BuildNode {
    Internal {
        feature: u32,
        threshold: f32,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f32,
    },
}

/// Grows one regression tree from per-document gradients and hessians.
///
/// One grower serves a whole fit: the histogram buffers it recycles live
/// as long as it does.
pub struct TreeGrower<'a> {
    binned: &'a BinnedDataset,
    binner: &'a FeatureBinner,
    params: GrowthParams,
    /// Feature `f`'s bins are `offsets[f]..offsets[f + 1]` of a histogram.
    offsets: Vec<usize>,
    /// Histograms no live leaf holds.
    free: Vec<Histogram>,
    /// `(grad, hess)` of the leaf being built, in its document order.
    leaf_gh: Vec<[f64; 2]>,
}

impl<'a> TreeGrower<'a> {
    /// Create a grower over a binned dataset.
    pub fn new(binned: &'a BinnedDataset, binner: &'a FeatureBinner, params: GrowthParams) -> Self {
        let mut offsets = vec![0usize];
        for f in 0..binner.num_features() {
            offsets.push(offsets[f] + binner.num_bins(f));
        }
        TreeGrower {
            binned,
            binner,
            params,
            offsets,
            free: Vec::new(),
            leaf_gh: Vec::new(),
        }
    }

    /// Grow a tree fitting `-grad/hess` on the documents in `doc_ids`
    /// (ascending).
    ///
    /// `grad`/`hess` are indexed by *global* document id. The returned
    /// tree's leaf values are the raw Newton steps `-G/(H+λ)`; the booster
    /// folds the learning rate in afterwards.
    ///
    /// # Panics
    /// Panics when `doc_ids` is empty or gradients are shorter than the
    /// largest document id.
    pub fn grow(&mut self, grad: &[f64], hess: &[f64], doc_ids: &[u32]) -> RegressionTree {
        assert!(!doc_ids.is_empty(), "cannot grow a tree on zero documents");
        debug_assert!(doc_ids.windows(2).all(|w| w[0] < w[1]), "ids ascend");
        let max_leaves = self.params.max_leaves;
        let mut root = Leaf::new(doc_ids.to_vec(), grad, hess, 0);
        if max_leaves > 1 && self.may_split(&root) {
            self.build(&mut root, None, grad, hess);
        }
        let mut leaves: Vec<Option<Leaf>> = vec![Some(root)];
        // Arena with a placeholder root; leaf slot i in `arena_of_leaf`
        // tracks where each live leaf will sit in the final tree.
        let mut arena: Vec<BuildNode> = vec![BuildNode::Leaf { value: 0.0 }];
        let mut arena_of_leaf: Vec<usize> = vec![0];
        let mut num_live = 1usize;

        while num_live < max_leaves {
            // Pick the splittable leaf with the best gain.
            let mut best_leaf = None;
            let mut best_gain = 0.0f64;
            for (li, leaf) in leaves.iter().enumerate() {
                if let Some(l) = leaf {
                    if let Some(s) = l.best {
                        if s.gain > best_gain {
                            best_gain = s.gain;
                            best_leaf = Some(li);
                        }
                    }
                }
            }
            let Some(li) = best_leaf else { break };
            let leaf = leaves[li].take().expect("selected leaf is live");
            let split = leaf.best.expect("selected leaf has a split");

            // Partition documents by the split; both sides keep id order.
            let column = self.binned.column(split.feature);
            let (left_docs, right_docs): (Vec<u32>, Vec<u32>) = leaf
                .docs
                .iter()
                .partition(|&&d| column[d as usize] as usize <= split.bin);
            debug_assert!(!left_docs.is_empty() && !right_docs.is_empty());

            // Histogram subtraction: build the smaller child from its
            // documents, derive the other from the parent in place.
            let depth = leaf.depth + 1;
            let small_is_left = left_docs.len() <= right_docs.len();
            let (small_docs, big_docs) = if small_is_left {
                (left_docs, right_docs)
            } else {
                (right_docs, left_docs)
            };
            let mut small = Leaf::new(small_docs, grad, hess, depth);
            let mut big = Leaf {
                docs: big_docs,
                hist: None,
                sum_grad: leaf.sum_grad - small.sum_grad,
                sum_hess: leaf.sum_hess - small.sum_hess,
                depth,
                best: None,
            };
            let parent = leaf.hist.expect("a leaf with a split holds its histogram");
            // The smaller child can split only if the larger can; once this
            // split fills the tree, neither is split again.
            if num_live + 1 < max_leaves && self.may_split(&big) {
                self.build(&mut small, Some((&mut big, parent)), grad, hess);
            } else {
                self.free.push(parent);
            }

            let (left, right) = if small_is_left {
                (small, big)
            } else {
                (big, small)
            };

            // Wire the arena: replace the leaf's slot with an internal node.
            let slot = arena_of_leaf[li];
            let left_slot = arena.len();
            arena.push(BuildNode::Leaf { value: 0.0 });
            let right_slot = arena.len();
            arena.push(BuildNode::Leaf { value: 0.0 });
            arena[slot] = BuildNode::Internal {
                feature: split.feature as u32,
                threshold: self.binner.bin_upper(split.feature, split.bin),
                left: left_slot,
                right: right_slot,
            };
            leaves[li] = Some(left);
            arena_of_leaf[li] = left_slot;
            leaves.push(Some(right));
            arena_of_leaf.push(right_slot);
            num_live += 1;
        }

        // Write final leaf values into the arena; every histogram still
        // held goes back to the free list for the next tree.
        for (li, leaf) in leaves.into_iter().enumerate() {
            if let Some(l) = leaf {
                let v = self.leaf_value(l.sum_grad, l.sum_hess);
                arena[arena_of_leaf[li]] = BuildNode::Leaf { value: v };
                self.free.extend(l.hist);
            }
        }
        flatten(&arena)
    }

    /// Build `small`'s histogram from its documents and find its best
    /// split. With `big` = (sibling, parent's histogram), the parent's
    /// histogram becomes the sibling's in place (`parent −= small`) and is
    /// scanned too. All of it runs one feature at a time, so each
    /// feature's bins are filled, subtracted and scanned while in L1.
    /// A leaf left without a split returns its histogram to the free list.
    fn build(
        &mut self,
        small: &mut Leaf,
        mut big: Option<(&mut Leaf, Histogram)>,
        grad: &[f64],
        hess: &[f64],
    ) {
        let total_bins = self.offsets[self.offsets.len() - 1];
        let mut hist = self
            .free
            .pop()
            .unwrap_or_else(|| Histogram::new(total_bins));
        self.leaf_gh.clear();
        self.leaf_gh.extend(
            small
                .docs
                .iter()
                .map(|&d| [grad[d as usize], hess[d as usize]]),
        );
        let scan_small = self.may_split(small);
        let mut small_best = None;
        let mut big_best = None;
        for f in 0..self.binner.num_features() {
            let bins = self.offsets[f]..self.offsets[f + 1];
            let column = self.binned.column(f);
            let (gh, count) = hist.feature_mut(bins.clone());
            gh.fill([0.0; 2]);
            count.fill(0);
            for (&d, &[g, h]) in small.docs.iter().zip(&self.leaf_gh) {
                let b = column[d as usize] as usize;
                gh[b][0] += g;
                gh[b][1] += h;
                count[b] += 1;
            }
            if scan_small {
                self.scan(f, gh, count, small, &mut small_best);
            }
            if let Some((leaf, parent)) = &mut big {
                let (pgh, pcount) = parent.feature_mut(bins);
                for (p, s) in pgh.iter_mut().zip(gh.iter()) {
                    p[0] -= s[0];
                    p[1] -= s[1];
                }
                for (p, s) in pcount.iter_mut().zip(count.iter()) {
                    *p -= s;
                }
                self.scan(f, pgh, pcount, leaf, &mut big_best);
            }
        }
        self.settle(small, small_best, hist);
        if let Some((leaf, parent)) = big {
            self.settle(leaf, big_best, parent);
        }
    }

    /// Give `leaf` its best split; it keeps `hist` only if it has one.
    fn settle(&mut self, leaf: &mut Leaf, best: Option<SplitInfo>, hist: Histogram) {
        leaf.best = best;
        if best.is_some() {
            leaf.hist = Some(hist);
        } else {
            self.free.push(hist);
        }
    }

    /// Whether depth and document count allow `leaf` any split at all.
    fn may_split(&self, leaf: &Leaf) -> bool {
        let p = &self.params;
        !(p.max_depth > 0 && leaf.depth >= p.max_depth)
            && leaf.docs.len() >= 2 * p.min_data_in_leaf.max(1)
    }

    #[inline]
    fn score(&self, g: f64, h: f64) -> f64 {
        g * g / (h + self.params.lambda_l2)
    }

    fn leaf_value(&self, g: f64, h: f64) -> f32 {
        let denom = h + self.params.lambda_l2;
        if denom <= 0.0 {
            0.0
        } else {
            (-g / denom) as f32
        }
    }

    /// Scan feature `f`'s bins of `leaf`'s histogram, replacing `best`
    /// with any split of strictly larger gain. Called for features in
    /// index order.
    fn scan(
        &self,
        f: usize,
        gh: &[[f64; 2]],
        count: &[u32],
        leaf: &Leaf,
        best: &mut Option<SplitInfo>,
    ) {
        let nb = gh.len();
        if nb < 2 {
            return;
        }
        let parent_score = self.score(leaf.sum_grad, leaf.sum_hess);
        let total_count = leaf.docs.len() as u32;
        let mut gl = 0.0f64;
        let mut hl = 0.0f64;
        let mut cl = 0u32;
        // Split after bin b: bins <= b go left.
        for b in 0..nb - 1 {
            gl += gh[b][0];
            hl += gh[b][1];
            cl += count[b];
            let cr = total_count - cl;
            if (cl as usize) < self.params.min_data_in_leaf {
                continue;
            }
            if (cr as usize) < self.params.min_data_in_leaf {
                break;
            }
            let gr = leaf.sum_grad - gl;
            let hr = leaf.sum_hess - hl;
            if hl < self.params.min_sum_hessian_in_leaf || hr < self.params.min_sum_hessian_in_leaf
            {
                continue;
            }
            let gain = self.score(gl, hl) + self.score(gr, hr) - parent_score;
            if gain > best.map_or(1e-10, |s| s.gain) {
                *best = Some(SplitInfo {
                    gain,
                    feature: f,
                    bin: b,
                });
            }
        }
    }
}

/// Flatten the build arena into a [`RegressionTree`], assigning leaf
/// positions in left-to-right (in-order) order.
fn flatten(arena: &[BuildNode]) -> RegressionTree {
    let mut feature = Vec::new();
    let mut threshold = Vec::new();
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut leaf_values = Vec::new();

    fn go(
        arena: &[BuildNode],
        slot: usize,
        feature: &mut Vec<u32>,
        threshold: &mut Vec<f32>,
        left: &mut Vec<NodeRef>,
        right: &mut Vec<NodeRef>,
        leaf_values: &mut Vec<f32>,
    ) -> NodeRef {
        match &arena[slot] {
            BuildNode::Leaf { value } => {
                leaf_values.push(*value);
                leaf_ref(leaf_values.len() - 1)
            }
            BuildNode::Internal {
                feature: f,
                threshold: t,
                left: l,
                right: r,
            } => {
                let me = feature.len();
                feature.push(*f);
                threshold.push(*t);
                left.push(0);
                right.push(0);
                let lref = go(arena, *l, feature, threshold, left, right, leaf_values);
                left[me] = lref;
                let rref = go(arena, *r, feature, threshold, left, right, leaf_values);
                right[me] = rref;
                me as NodeRef
            }
        }
    }
    let root_is_leaf = matches!(arena[0], BuildNode::Leaf { .. });
    if root_is_leaf {
        if let BuildNode::Leaf { value } = arena[0] {
            return RegressionTree::constant(value);
        }
    }
    go(
        arena,
        0,
        &mut feature,
        &mut threshold,
        &mut left,
        &mut right,
        &mut leaf_values,
    );
    RegressionTree::from_raw(feature, threshold, left, right, leaf_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_data::DatasetBuilder;

    /// One feature, labels form a step function at x = 5.
    fn step_dataset() -> dlr_data::Dataset {
        let mut b = DatasetBuilder::new(1);
        let xs: Vec<f32> = (0..100).map(|i| i as f32 / 10.0).collect();
        let ys: Vec<f32> = xs
            .iter()
            .map(|&x| if x <= 5.0 { 0.0 } else { 1.0 })
            .collect();
        b.push_query(1, &xs, &ys).unwrap();
        b.finish()
    }

    fn mse_grad_hess(d: &dlr_data::Dataset, preds: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let grad: Vec<f64> = d
            .labels()
            .iter()
            .zip(preds)
            .map(|(&y, &p)| p - y as f64)
            .collect();
        let hess = vec![1.0f64; d.num_docs()];
        (grad, hess)
    }

    #[test]
    fn learns_a_step_function() {
        let d = step_dataset();
        let binner = FeatureBinner::fit(&d, 64);
        let binned = binner.bin_dataset(&d);
        let (grad, hess) = mse_grad_hess(&d, &vec![0.0; d.num_docs()]);
        let params = GrowthParams {
            max_leaves: 2,
            min_data_in_leaf: 1,
            ..Default::default()
        };
        let mut grower = TreeGrower::new(&binned, &binner, params);
        let docs: Vec<u32> = (0..d.num_docs() as u32).collect();
        let tree = grower.grow(&grad, &hess, &docs);
        assert_eq!(tree.num_leaves(), 2);
        // The single split should separate the step.
        assert!(
            tree.predict(&[1.0]) < 0.2,
            "left leaf ~0, got {}",
            tree.predict(&[1.0])
        );
        assert!(
            tree.predict(&[9.0]) > 0.8,
            "right leaf ~1, got {}",
            tree.predict(&[9.0])
        );
        let (f, t) = tree.splits().next().unwrap();
        assert_eq!(f, 0);
        assert!((4.0..6.5).contains(&t), "threshold near the step, got {t}");
    }

    #[test]
    fn respects_max_leaves() {
        let d = step_dataset();
        let binner = FeatureBinner::fit(&d, 64);
        let binned = binner.bin_dataset(&d);
        let (grad, hess) = mse_grad_hess(&d, &vec![0.0; d.num_docs()]);
        let docs: Vec<u32> = (0..d.num_docs() as u32).collect();
        for max_leaves in [2usize, 4, 8, 16] {
            let params = GrowthParams {
                max_leaves,
                min_data_in_leaf: 1,
                ..Default::default()
            };
            let tree = TreeGrower::new(&binned, &binner, params).grow(&grad, &hess, &docs);
            assert!(tree.num_leaves() <= max_leaves);
        }
    }

    #[test]
    fn respects_max_depth() {
        let d = step_dataset();
        let binner = FeatureBinner::fit(&d, 64);
        let binned = binner.bin_dataset(&d);
        let (grad, hess) = mse_grad_hess(&d, &vec![0.0; d.num_docs()]);
        let docs: Vec<u32> = (0..d.num_docs() as u32).collect();
        let params = GrowthParams {
            max_leaves: 64,
            max_depth: 2,
            min_data_in_leaf: 1,
            ..Default::default()
        };
        let tree = TreeGrower::new(&binned, &binner, params).grow(&grad, &hess, &docs);
        assert!(tree.depth() <= 2, "depth {} > 2", tree.depth());
    }

    #[test]
    fn min_data_blocks_tiny_splits() {
        let d = step_dataset();
        let binner = FeatureBinner::fit(&d, 64);
        let binned = binner.bin_dataset(&d);
        let (grad, hess) = mse_grad_hess(&d, &vec![0.0; d.num_docs()]);
        let docs: Vec<u32> = (0..d.num_docs() as u32).collect();
        let params = GrowthParams {
            max_leaves: 64,
            min_data_in_leaf: 60, // each side would need 60 of 100 docs
            ..Default::default()
        };
        let tree = TreeGrower::new(&binned, &binner, params).grow(&grad, &hess, &docs);
        assert_eq!(tree.num_leaves(), 1, "no split should satisfy min_data");
    }

    #[test]
    fn pure_leaf_values_are_newton_steps() {
        // With MSE gradients from zero predictions, the Newton step equals
        // the mean label within the leaf.
        let d = step_dataset();
        let binner = FeatureBinner::fit(&d, 64);
        let binned = binner.bin_dataset(&d);
        let (grad, hess) = mse_grad_hess(&d, &vec![0.0; d.num_docs()]);
        let docs: Vec<u32> = (0..d.num_docs() as u32).collect();
        let params = GrowthParams {
            max_leaves: 2,
            min_data_in_leaf: 1,
            ..Default::default()
        };
        let tree = TreeGrower::new(&binned, &binner, params).grow(&grad, &hess, &docs);
        let left = tree.predict(&[0.0]);
        let right = tree.predict(&[10.0]);
        assert!((left - 0.0).abs() < 0.15);
        assert!((right - 1.0).abs() < 0.15);
    }

    #[test]
    fn two_feature_interaction_gets_two_levels() {
        // Label = XOR-ish: y = 1 iff (x0 > 0.5) != (x1 > 0.5).
        let mut b = DatasetBuilder::new(2);
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let x0 = i as f32 / 20.0;
                let x1 = j as f32 / 20.0;
                feats.extend_from_slice(&[x0, x1]);
                labels.push(f32::from((x0 > 0.5) != (x1 > 0.5)));
            }
        }
        b.push_query(1, &feats, &labels).unwrap();
        let d = b.finish();
        let binner = FeatureBinner::fit(&d, 32);
        let binned = binner.bin_dataset(&d);
        let grad: Vec<f64> = d.labels().iter().map(|&y| -(y as f64)).collect();
        let hess = vec![1.0f64; d.num_docs()];
        let docs: Vec<u32> = (0..d.num_docs() as u32).collect();
        let params = GrowthParams {
            max_leaves: 4,
            min_data_in_leaf: 5,
            ..Default::default()
        };
        let tree = TreeGrower::new(&binned, &binner, params).grow(&grad, &hess, &docs);
        assert_eq!(tree.num_leaves(), 4);
        // All four quadrants predicted correctly (leaf value = mean label).
        assert!(tree.predict(&[0.2, 0.2]) < 0.3);
        assert!(tree.predict(&[0.8, 0.8]) < 0.3);
        assert!(tree.predict(&[0.2, 0.8]) > 0.7);
        assert!(tree.predict(&[0.8, 0.2]) > 0.7);
    }

    #[test]
    fn recycled_histograms_grow_the_trees_fresh_ones_do() {
        // One grower reused across trees (its free list refilled) against
        // a fresh grower per tree: recycled buffers carry nothing over.
        let d = step_dataset();
        let binner = FeatureBinner::fit(&d, 16);
        let binned = binner.bin_dataset(&d);
        let docs: Vec<u32> = (0..d.num_docs() as u32).collect();
        let params = GrowthParams {
            max_leaves: 8,
            min_data_in_leaf: 3,
            ..Default::default()
        };
        let hess = vec![1.0f64; d.num_docs()];
        let grads: Vec<Vec<f64>> = (0..3)
            .map(|k| {
                (0..d.num_docs())
                    .map(|i| ((i * (k + 3)) % 7) as f64 - 3.0)
                    .collect()
            })
            .collect();
        let mut reused = TreeGrower::new(&binned, &binner, params);
        for grad in grads.iter().chain(&grads) {
            let fresh = TreeGrower::new(&binned, &binner, params).grow(grad, &hess, &docs);
            assert_eq!(reused.grow(grad, &hess, &docs), fresh);
            assert!(fresh.num_leaves() > 2);
        }
        // A tree holds at most `max_leaves − 1` histograms at once.
        assert!(reused.free.len() < params.max_leaves);
    }

    #[test]
    #[should_panic(expected = "zero documents")]
    fn empty_docs_panics() {
        let d = step_dataset();
        let binner = FeatureBinner::fit(&d, 8);
        let binned = binner.bin_dataset(&d);
        TreeGrower::new(&binned, &binner, GrowthParams::default()).grow(&[], &[], &[]);
    }
}
