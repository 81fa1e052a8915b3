//! Histogram binning of features.
//!
//! LightGBM's efficiency comes from replacing raw feature values with
//! small integer bin indices: split search then scans at most `max_bins`
//! histogram buckets per feature instead of sorting documents. We bin by
//! (approximate) quantiles over the training set, with each bin's *upper
//! bound* stored so bin boundaries translate back into real-valued split
//! thresholds for the final trees.
//!
//! The binned dataset is stored feature-major: one `u16` column per
//! feature, documents in id order. The grower reads it one column at a
//! time — to fill one feature's histogram bins for a leaf, and to
//! partition a leaf's documents on the split feature.

use dlr_data::Dataset;

/// Per-feature quantile binner.
#[derive(Debug, Clone)]
pub struct FeatureBinner {
    /// `upper[f][b]` = inclusive upper bound of bin `b` for feature `f`.
    /// The last bin of each feature is unbounded (stored as `f32::MAX`).
    upper: Vec<Vec<f32>>,
}

impl FeatureBinner {
    /// Learn bin boundaries from `dataset`, with at most `max_bins` bins
    /// per feature (LightGBM default 255).
    ///
    /// # Panics
    /// Panics when `max_bins < 2` or the dataset is empty — harness misuse.
    pub fn fit(dataset: &Dataset, max_bins: usize) -> FeatureBinner {
        assert!(max_bins >= 2, "need at least 2 bins");
        assert!(dataset.num_docs() > 0, "cannot bin an empty dataset");
        let nf = dataset.num_features();
        let nd = dataset.num_docs();
        let mut upper = Vec::with_capacity(nf);
        let mut column = vec![0.0f32; nd];
        for f in 0..nf {
            for (d, slot) in column.iter_mut().enumerate() {
                *slot = dataset.doc(d)[f];
            }
            column.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            upper.push(Self::boundaries(&column, max_bins));
        }
        FeatureBinner { upper }
    }

    /// Quantile boundaries over one sorted column. Duplicate boundaries
    /// (from heavy ties, e.g. zero-inflated features) are merged, so a
    /// feature may end up with fewer bins than `max_bins`.
    fn boundaries(sorted: &[f32], max_bins: usize) -> Vec<f32> {
        let n = sorted.len();
        let mut bounds: Vec<f32> = Vec::with_capacity(max_bins);
        for b in 1..max_bins {
            let idx = (n * b) / max_bins;
            let v = sorted[idx.min(n - 1)];
            if bounds.last().is_none_or(|&last| v > last) {
                bounds.push(v);
            }
        }
        // Final catch-all bin; if the last quantile bound already covers
        // the column maximum (e.g. a constant feature), widen it instead
        // of creating an empty top bin.
        let max_value = sorted[n - 1];
        match bounds.last_mut() {
            Some(last) if *last >= max_value => *last = f32::MAX,
            _ => bounds.push(f32::MAX),
        }
        bounds
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.upper.len()
    }

    /// Number of bins for feature `f`.
    pub fn num_bins(&self, f: usize) -> usize {
        self.upper[f].len()
    }

    /// Inclusive upper bound of bin `b` of feature `f` — the split
    /// threshold a tree stores when splitting after this bin.
    pub fn bin_upper(&self, f: usize, b: usize) -> f32 {
        self.upper[f][b]
    }

    /// Bin index of a raw value (binary search over upper bounds).
    #[inline]
    pub fn bin_of(&self, f: usize, v: f32) -> u16 {
        let ub = &self.upper[f];
        // First bin whose upper bound is >= v.
        let mut lo = 0usize;
        let mut hi = ub.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if v <= ub[mid] {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo as u16
    }

    /// Bin an entire dataset into one `u16` column per feature.
    pub fn bin_dataset(&self, dataset: &Dataset) -> BinnedDataset {
        let nf = self.num_features();
        let nd = dataset.num_docs();
        // Rows are read in order; each row writes one bin into each of the
        // `nf` columns, whose current cache lines stay resident.
        let mut bins = vec![0u16; nd * nf];
        for d in 0..nd {
            for (f, &v) in dataset.doc(d).iter().enumerate() {
                bins[f * nd + d] = self.bin_of(f, v);
            }
        }
        BinnedDataset {
            num_docs: nd,
            num_features: nf,
            bins,
        }
    }
}

/// A dataset's features replaced by bin indices, stored feature-major.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    num_docs: usize,
    num_features: usize,
    /// Column `f` is `bins[f * num_docs..(f + 1) * num_docs]`.
    bins: Vec<u16>,
}

impl BinnedDataset {
    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Bins of feature `f` for every document, indexed by document id.
    #[inline]
    pub fn column(&self, f: usize) -> &[u16] {
        &self.bins[f * self.num_docs..(f + 1) * self.num_docs]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_data::DatasetBuilder;

    fn dataset(values: &[f32]) -> Dataset {
        let mut b = DatasetBuilder::new(1);
        let labels = vec![0.0; values.len()];
        b.push_query(1, values, &labels).unwrap();
        b.finish()
    }

    #[test]
    fn bins_are_monotone_in_value() {
        let d = dataset(&[1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0, 7.0, 6.0, 0.0]);
        let binner = FeatureBinner::fit(&d, 4);
        let mut last = 0u16;
        for v in [0.0, 1.5, 3.3, 6.6, 9.5] {
            let b = binner.bin_of(0, v);
            assert!(b >= last, "bin({v}) = {b} < {last}");
            last = b;
        }
    }

    #[test]
    fn bin_upper_is_a_valid_threshold() {
        let d = dataset(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let binner = FeatureBinner::fit(&d, 4);
        // Every value <= bin_upper(its bin).
        for v in [1.0f32, 2.5, 5.0, 8.0] {
            let b = binner.bin_of(0, v) as usize;
            assert!(v <= binner.bin_upper(0, b));
            if b > 0 {
                assert!(v > binner.bin_upper(0, b - 1));
            }
        }
    }

    #[test]
    fn constant_feature_collapses_to_one_bin() {
        let d = dataset(&[3.0; 20]);
        let binner = FeatureBinner::fit(&d, 8);
        assert_eq!(binner.num_bins(0), 1);
        assert_eq!(binner.bin_of(0, 3.0), 0);
        assert_eq!(binner.bin_of(0, -100.0), 0);
    }

    #[test]
    fn extreme_values_land_in_edge_bins() {
        let d = dataset(&[1.0, 2.0, 3.0, 4.0]);
        let binner = FeatureBinner::fit(&d, 4);
        assert_eq!(binner.bin_of(0, f32::MIN), 0);
        let top = binner.bin_of(0, 1e30) as usize;
        assert_eq!(top, binner.num_bins(0) - 1);
    }

    #[test]
    fn binned_dataset_shape_and_content() {
        let mut b = DatasetBuilder::new(2);
        b.push_query(1, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0], &[0.0, 1.0, 2.0])
            .unwrap();
        let d = b.finish();
        let binner = FeatureBinner::fit(&d, 3);
        let binned = binner.bin_dataset(&d);
        assert_eq!(binned.num_docs(), 3);
        assert_eq!(binned.num_features(), 2);
        // Larger raw values never get smaller bins.
        assert!(binned.column(0)[0] <= binned.column(0)[1]);
        assert!(binned.column(1)[1] <= binned.column(1)[2]);
    }

    #[test]
    fn columns_hold_each_documents_bin_in_id_order() {
        let mut b = DatasetBuilder::new(3);
        let rows = [5.0, -1.0, 0.5, 1.0, 2.0, 0.5, 3.0, 0.0, 7.0, 2.0, 9.0, 0.5];
        b.push_query(1, &rows, &[0.0; 4]).unwrap();
        let d = b.finish();
        let binner = FeatureBinner::fit(&d, 3);
        let binned = binner.bin_dataset(&d);
        for f in 0..3 {
            let column = binned.column(f);
            assert_eq!(column.len(), 4);
            for (doc, &bin) in column.iter().enumerate() {
                assert_eq!(bin, binner.bin_of(f, d.doc(doc)[f]), "f {f} doc {doc}");
            }
        }
    }

    #[test]
    fn empty_dataset_bins_to_empty_columns() {
        let binner = FeatureBinner::fit(&dataset(&[1.0, 2.0]), 4);
        let empty = DatasetBuilder::new(1).finish();
        let binned = binner.bin_dataset(&empty);
        assert_eq!((binned.num_docs(), binned.num_features()), (0, 1));
        assert!(binned.column(0).is_empty());
    }

    #[test]
    fn max_bins_respected() {
        let vals: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let d = dataset(&vals);
        let binner = FeatureBinner::fit(&d, 16);
        assert!(binner.num_bins(0) <= 16);
        assert!(
            binner.num_bins(0) >= 8,
            "distinct values should yield many bins"
        );
    }
}
