//! Architecture design under a latency budget (§5.2, §6.1).
//!
//! The paper's design loop: given the scoring time of the tree-based
//! competitor (or an SLA), enumerate candidate architectures, predict
//! their dense and pruned-first-layer scoring times with the analytic
//! predictors, and train *only* the candidates that fit — "tearing down
//! the costs, in terms of time and energy consumption, of the
//! experimental phase".

use crate::dense_pred::DensePredictor;

/// The enumeration space for candidate architectures.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Allowed hidden-layer widths, e.g. the paper's menu of
    /// 25/50/…/1000.
    pub widths: Vec<usize>,
    /// Allowed hidden-layer counts (the paper proposes 2, 3 and 4).
    pub depths: Vec<usize>,
    /// Batch size the latency is evaluated at.
    pub batch: usize,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            widths: vec![
                10, 25, 30, 50, 75, 100, 150, 200, 250, 300, 400, 500, 600, 800, 1000,
            ],
            depths: vec![2, 3, 4],
            batch: 1000,
        }
    }
}

/// One candidate architecture with its predicted costs.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchCandidate {
    /// Hidden sizes, e.g. `[400, 200, 200, 100]`.
    pub hidden: Vec<usize>,
    /// Predicted dense scoring time (µs/doc).
    pub dense_us: f64,
    /// Predicted first-layer share of the dense time (Tables 10–11).
    pub first_layer_impact: f64,
    /// Predicted scoring time after pruning the first layer (µs/doc).
    pub pruned_us: f64,
}

/// Enumerate all monotone (non-increasing) hidden-size sequences from the
/// space and keep those whose *pruned* predicted time fits
/// `budget_us_per_doc`. Results are sorted by predicted dense time,
/// largest (most expressive) first, so callers can train the top few.
pub fn design_architectures(
    predictor: &DensePredictor,
    input_dim: usize,
    budget_us_per_doc: f64,
    space: &SearchSpace,
) -> Vec<ArchCandidate> {
    let mut out = Vec::new();
    for &depth in &space.depths {
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(partial) = stack.pop() {
            if partial.len() == depth {
                let dense_us =
                    predictor.predict_forward_us_per_doc(input_dim, &partial, space.batch);
                let pruned_us =
                    predictor.predict_pruned_us_per_doc(input_dim, &partial, space.batch);
                if pruned_us <= budget_us_per_doc {
                    let impact = if dense_us > 0.0 {
                        1.0 - pruned_us / dense_us
                    } else {
                        0.0
                    };
                    out.push(ArchCandidate {
                        hidden: partial,
                        dense_us,
                        first_layer_impact: impact,
                        pruned_us,
                    });
                }
                continue;
            }
            let cap = partial.last().copied().unwrap_or(usize::MAX);
            for &w in space.widths.iter().filter(|&&w| w <= cap) {
                // Cheap lower bound: a partial architecture's pruned time
                // only grows as layers are appended; prune the branch when
                // it already exceeds the budget.
                let mut probe = partial.clone();
                probe.push(w);
                let lower = predictor.predict_pruned_us_per_doc(input_dim, &probe, space.batch);
                if lower <= budget_us_per_doc {
                    stack.push(probe);
                }
            }
        }
    }
    out.sort_by(|a, b| {
        b.dense_us
            .partial_cmp(&a.dense_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.hidden.cmp(&a.hidden))
    });
    out.dedup_by(|a, b| a.hidden == b.hidden);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> DensePredictor {
        DensePredictor::paper_i9_9900k()
    }

    fn small_space() -> SearchSpace {
        SearchSpace {
            widths: vec![25, 50, 100, 200, 400],
            depths: vec![2, 3, 4],
            batch: 1000,
        }
    }

    #[test]
    fn all_candidates_fit_the_budget() {
        let c = design_architectures(&predictor(), 136, 1.0, &small_space());
        assert!(!c.is_empty());
        for cand in &c {
            assert!(
                cand.pruned_us <= 1.0,
                "{:?} pruned {}",
                cand.hidden,
                cand.pruned_us
            );
            assert_eq!(cand.hidden.len(), cand.hidden.len(),);
            // Monotone non-increasing widths.
            assert!(
                cand.hidden.windows(2).all(|w| w[0] >= w[1]),
                "{:?}",
                cand.hidden
            );
        }
    }

    #[test]
    fn sorted_most_expressive_first() {
        let c = design_architectures(&predictor(), 136, 2.0, &small_space());
        for w in c.windows(2) {
            assert!(w[0].dense_us >= w[1].dense_us - 1e-12);
        }
    }

    #[test]
    fn tighter_budget_fewer_candidates() {
        let loose = design_architectures(&predictor(), 136, 5.0, &small_space());
        let tight = design_architectures(&predictor(), 136, 0.2, &small_space());
        assert!(tight.len() < loose.len());
        // Every tight candidate also appears under the loose budget.
        for t in &tight {
            assert!(loose.iter().any(|l| l.hidden == t.hidden));
        }
    }

    #[test]
    fn impact_matches_predictor_breakdown() {
        let c = design_architectures(&predictor(), 136, 3.0, &small_space());
        let cand = c.first().expect("non-empty");
        let impacts = predictor().layer_impacts(136, &cand.hidden, 1000);
        assert!((cand.first_layer_impact - impacts[0]).abs() < 1e-9);
    }

    #[test]
    fn paper_high_quality_candidates_appear() {
        // Table 10: 200×100×100×50 predicts 0.8 µs pruned; under a 1 µs
        // budget it must be discovered.
        let space = SearchSpace {
            widths: vec![25, 50, 100, 200, 300],
            depths: vec![3, 4],
            batch: 1000,
        };
        let c = design_architectures(&predictor(), 136, 1.0, &space);
        assert!(
            c.iter().any(|cand| cand.hidden == vec![200, 100, 100, 50]),
            "expected 200×100×100×50 in {:?}",
            c.iter().map(|x| x.hidden.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn no_duplicates() {
        let c = design_architectures(&predictor(), 136, 2.0, &small_space());
        let mut seen = std::collections::BTreeSet::new();
        for cand in &c {
            assert!(
                seen.insert(cand.hidden.clone()),
                "duplicate {:?}",
                cand.hidden
            );
        }
    }
}
