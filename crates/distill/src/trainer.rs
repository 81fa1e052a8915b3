//! The distillation training driver.
//!
//! Orchestrates §3's recipe: Z-normalize with training statistics, score
//! the real training documents with the teacher once, and at every
//! minibatch mix ~half real documents with ~half synthetic midpoint
//! samples (scored by the teacher on the fly), minimizing MSE between
//! student and teacher scores with Adam under a step-LR schedule.
//! The teacher scores through the vectorized QuickScorer compiled once
//! per session, which gives traversal's scores bit for bit at any leaf
//! count.
//!
//! [`DistillSession`] holds everything reusable across students (teacher
//! scores, normalizer, sampler), so designing many candidate architectures
//! (§5.2) pays the preprocessing once. It is a batch source
//! ([`DistillSession::batches`]) for the one epoch loop, [`run_epochs`],
//! which is also how `dlr-prune` runs Table 9's prune/fine-tune phases.

use crate::augment::MidpointSampler;
use crate::hyper::DistillHyper;
use dlr_data::{Dataset, FeatureStats, Normalizer};
use dlr_gbdt::Ensemble;
use dlr_nn::train::SgdTrainer;
use dlr_nn::{
    run_epochs, BatchSource, LayerMasks, LoopState, Mlp, ResilienceConfig, ResilientReport, StepLr,
    TrainError,
};
use dlr_quickscorer::VectorizedQuickScorer;
use std::path::Path;

/// Distillation configuration (see [`DistillHyper`] for the Table 9
/// schedules; this adds the knobs the paper leaves implicit).
#[derive(Debug, Clone)]
pub struct DistillConfig {
    /// Epoch/LR schedule from Table 9.
    pub hyper: DistillHyper,
    /// Minibatch size (real + synthetic combined).
    pub batch_size: usize,
    /// Fraction of each batch drawn from the midpoint sampler
    /// ("half of the training data", §3 → 0.5).
    pub synthetic_fraction: f32,
    /// Master seed for shuffling, sampling and initialization.
    pub seed: u64,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            hyper: DistillHyper::msn30k(),
            batch_size: 256,
            synthetic_fraction: 0.5,
            seed: 17,
        }
    }
}

/// A trained student plus the normalizer it expects at inference time.
#[derive(Debug, Clone)]
pub struct DistilledModel {
    /// The student network (operates on normalized features).
    pub mlp: Mlp,
    /// Z-normalizer fitted on the training split.
    pub normalizer: Normalizer,
    /// Mean minibatch MSE per epoch.
    pub epoch_loss: Vec<f64>,
}

impl DistilledModel {
    /// Score a row-major `n × f` block of RAW features into `out`.
    pub fn score_batch(&self, rows: &[f32], out: &mut [f32]) {
        let mut norm = rows.to_vec();
        self.normalizer.apply_matrix(&mut norm);
        self.mlp.score_batch(&norm, out);
    }
}

/// Reusable distillation state for one (teacher, training set) pair.
pub struct DistillSession {
    /// The forest the session distils, compiled for vQS.
    teacher: VectorizedQuickScorer,
    cfg: DistillConfig,
    normalizer: Normalizer,
    sampler: MidpointSampler,
    /// Normalized real training rows, row-major.
    real_rows: Vec<f32>,
    /// Teacher scores of the real rows.
    real_targets: Vec<f32>,
    num_features: usize,
}

impl DistillSession {
    /// Prepare a session: fit the normalizer, score the training set with
    /// the teacher, and build the midpoint sampler from the teacher's
    /// split points.
    ///
    /// The forest is compiled once for the vectorized QuickScorer, which
    /// labels the real rows here and every batch's midpoint rows — the
    /// same scores as traversal, bit for bit, several times faster, at
    /// any leaf count.
    ///
    /// `train` carries RAW (unnormalized) features, as the teacher was
    /// trained on them.
    ///
    /// # Panics
    /// Panics when the teacher's feature count differs from the dataset's,
    /// the teacher has no trees or the dataset is empty.
    pub fn new(teacher: &Ensemble, train: &Dataset, cfg: DistillConfig) -> DistillSession {
        assert_eq!(
            teacher.num_features(),
            train.num_features(),
            "teacher and dataset feature counts differ"
        );
        let compiled = VectorizedQuickScorer::compile(teacher).expect("non-empty teacher");
        let stats = FeatureStats::compute(train).expect("non-empty training set");
        let normalizer = Normalizer::from_stats(&stats);
        let sampler = MidpointSampler::build(teacher, &stats);
        let mut real_rows = train.features().to_vec();
        normalizer.apply_matrix(&mut real_rows);
        let mut real_targets = vec![0.0f32; train.num_docs()];
        compiled.score_batch(train.features(), &mut real_targets);
        DistillSession {
            teacher: compiled,
            cfg,
            normalizer,
            sampler,
            real_rows,
            real_targets,
            num_features: train.num_features(),
        }
    }

    /// The fitted normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// The midpoint sampler.
    pub fn sampler(&self) -> &MidpointSampler {
        &self.sampler
    }

    /// The session configuration.
    pub fn config(&self) -> &DistillConfig {
        &self.cfg
    }

    /// Train a fresh student of the given hidden sizes for the full
    /// `E_t` epochs of the schedule.
    ///
    /// # Panics
    /// As [`Self::run_epochs`].
    pub fn train_student(&self, hidden: &[usize]) -> DistilledModel {
        let mut mlp = Mlp::from_hidden(self.num_features, hidden, self.cfg.seed ^ 0xabcd);
        let h = &self.cfg.hyper;
        let schedule = StepLr::new(h.learning_rate, h.gamma, &h.gamma_steps);
        let losses = self.run_epochs(&mut mlp, &schedule, 0..h.train_epochs, None);
        DistilledModel {
            mlp,
            normalizer: self.normalizer.clone(),
            epoch_loss: losses,
        }
    }

    /// Run epochs `range` of the distillation loop on an existing student,
    /// optionally under sparsity masks. Returns the mean minibatch loss per
    /// epoch. Each call starts a fresh optimizer and freshly seeded data
    /// streams; `range` only positions the learning-rate schedule.
    ///
    /// # Panics
    /// Panics with the [`TrainError::Diverged`] text when an epoch keeps
    /// producing non-finite losses or gradients through the whole rollback
    /// budget of the default [`ResilienceConfig`].
    pub fn run_epochs(
        &self,
        mlp: &mut Mlp,
        schedule: &StepLr,
        range: std::ops::Range<usize>,
        masks: Option<&LayerMasks>,
    ) -> Vec<f64> {
        let mut st = self.loop_state(mlp, masks, range.start);
        run_epochs(
            mlp,
            &mut st,
            &mut self.batches(),
            schedule,
            range.end,
            &ResilienceConfig::default(),
            None,
            &mut |_, _| {},
        )
        .map(|report| report.epoch_loss)
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::run_epochs`] from epoch 0 to `total_epochs` with
    /// checkpoints in `ckpt_dir` (see [`dlr_nn::run_epochs`]): invoked
    /// again after an interruption it finishes on the bits of an
    /// uninterrupted run, which are the bits [`Self::run_epochs`] produces.
    ///
    /// # Errors
    /// See [`dlr_nn::run_epochs`].
    pub fn run_epochs_resilient(
        &self,
        mlp: &mut Mlp,
        schedule: &StepLr,
        total_epochs: usize,
        res: &ResilienceConfig,
        ckpt_dir: &Path,
    ) -> Result<ResilientReport, TrainError> {
        let mut st = self.loop_state(mlp, None, 0);
        run_epochs(
            mlp,
            &mut st,
            &mut self.batches(),
            schedule,
            total_epochs,
            res,
            Some(ckpt_dir),
            &mut |_, _| {},
        )
    }

    /// State of a `distill` run opening at `epoch`: fresh optimizer under
    /// the session's trainer seed, streams seeded from the session seed.
    fn loop_state(&self, mlp: &Mlp, masks: Option<&LayerMasks>, epoch: usize) -> LoopState {
        let trainer = SgdTrainer::new(mlp, self.cfg.hyper.dropout, self.cfg.seed ^ 0x7e57);
        let masks = masks.map_or_else(|| LayerMasks::none(mlp.layers().len()), Clone::clone);
        let n = self.real_targets.len();
        let mut st = LoopState::new("distill", trainer, masks, n, self.cfg.seed);
        st.epoch = epoch;
        st
    }

    /// This session's batches as a source for [`dlr_nn::run_epochs`]:
    /// each a chunk of real documents plus freshly sampled, teacher-scored
    /// midpoint points (§3).
    pub fn batches(&self) -> SessionBatches<'_> {
        let bs = self.cfg.batch_size.max(2);
        SessionBatches {
            session: self,
            synth_per_batch: ((bs as f32 * self.cfg.synthetic_fraction) as usize).min(bs - 1),
            synth_raw: Vec::new(),
            synth_scores: Vec::new(),
        }
    }
}

/// [`DistillSession::batches`]: the real-plus-synthetic batch assembly.
pub struct SessionBatches<'s> {
    session: &'s DistillSession,
    synth_per_batch: usize,
    synth_raw: Vec<f32>,
    synth_scores: Vec<f32>,
}

impl BatchSource for SessionBatches<'_> {
    fn num_docs(&self) -> usize {
        self.session.real_targets.len()
    }

    fn docs_per_batch(&self) -> usize {
        self.session.cfg.batch_size.max(2) - self.synth_per_batch
    }

    fn gather(
        &mut self,
        docs: &[usize],
        seed: &mut u64,
        rows: &mut Vec<f32>,
        targets: &mut Vec<f32>,
    ) {
        let s = self.session;
        let f = s.num_features;
        for &d in docs {
            rows.extend_from_slice(&s.real_rows[d * f..(d + 1) * f]);
            targets.push(s.real_targets[d]);
        }
        // Synthetic half: sample raw, teacher-score raw, normalize.
        if self.synth_per_batch > 0 {
            self.synth_raw.clear();
            *seed = seed.wrapping_add(0x9e3779b97f4a7c15);
            s.sampler
                .sample_batch(self.synth_per_batch, *seed, &mut self.synth_raw);
            self.synth_scores.resize(self.synth_per_batch, 0.0);
            s.teacher
                .score_batch(&self.synth_raw, &mut self.synth_scores);
            s.normalizer.apply_matrix(&mut self.synth_raw);
            rows.extend_from_slice(&self.synth_raw);
            targets.extend_from_slice(&self.synth_scores);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_data::SyntheticConfig;
    use dlr_gbdt::{GrowthParams, LambdaMartParams, LambdaMartTrainer, MartParams, MartTrainer};
    use dlr_metrics::evaluate_scores;

    fn small_setup() -> (Ensemble, Dataset) {
        let mut cfg = SyntheticConfig::msn30k_like(40);
        cfg.docs_per_query = 25;
        cfg.num_features = 16;
        cfg.num_informative = 6;
        let data = cfg.generate();
        let params = LambdaMartParams {
            num_trees: 20,
            growth: GrowthParams {
                max_leaves: 16,
                min_data_in_leaf: 5,
                ..Default::default()
            },
            early_stopping_rounds: 0,
            ..Default::default()
        };
        let (teacher, _) = LambdaMartTrainer::new(params).fit(&data, None);
        (teacher, data)
    }

    fn distill_cfg(epochs: usize) -> DistillConfig {
        let mut hyper = DistillHyper::msn30k();
        hyper.train_epochs = epochs;
        hyper.gamma_steps = vec![epochs * 6 / 10, epochs * 9 / 10];
        DistillConfig {
            hyper,
            batch_size: 64,
            ..Default::default()
        }
    }

    #[test]
    fn student_approximates_teacher_scores() {
        let (teacher, data) = small_setup();
        let session = DistillSession::new(&teacher, &data, distill_cfg(120));
        let model = session.train_student(&[32, 16]);
        // Training loss decreases substantially.
        let first = model.epoch_loss[0];
        let last = *model.epoch_loss.last().unwrap();
        assert!(last < first * 0.5, "loss {first} -> {last}");
        // Student scores correlate with teacher scores on training data.
        let mut student = vec![0.0f32; data.num_docs()];
        model.score_batch(data.features(), &mut student);
        let mut teacher_scores = vec![0.0f32; data.num_docs()];
        teacher.predict_batch(data.features(), &mut teacher_scores);
        let corr = pearson(&student, &teacher_scores);
        assert!(corr > 0.9, "student/teacher correlation {corr}");
    }

    #[test]
    fn student_ranking_tracks_teacher_ranking() {
        let (teacher, data) = small_setup();
        let session = DistillSession::new(&teacher, &data, distill_cfg(120));
        let model = session.train_student(&[32, 16]);
        let mut student = vec![0.0f32; data.num_docs()];
        model.score_batch(data.features(), &mut student);
        let mut teacher_scores = vec![0.0f32; data.num_docs()];
        teacher.predict_batch(data.features(), &mut teacher_scores);
        let s_ndcg = evaluate_scores(&student, &data).mean_ndcg10();
        let t_ndcg = evaluate_scores(&teacher_scores, &data).mean_ndcg10();
        // §3: the student is bounded by the teacher; it should land close.
        assert!(
            s_ndcg > t_ndcg - 0.08,
            "student NDCG@10 {s_ndcg:.4} too far below teacher {t_ndcg:.4}"
        );
    }

    #[test]
    fn session_is_deterministic() {
        let (teacher, data) = small_setup();
        let s1 = DistillSession::new(&teacher, &data, distill_cfg(3));
        let s2 = DistillSession::new(&teacher, &data, distill_cfg(3));
        let m1 = s1.train_student(&[8]);
        let m2 = s2.train_student(&[8]);
        assert_eq!(m1.mlp, m2.mlp);
        assert_eq!(m1.epoch_loss, m2.epoch_loss);
    }

    #[test]
    fn masked_run_keeps_zeros() {
        let (teacher, data) = small_setup();
        let session = DistillSession::new(&teacher, &data, distill_cfg(2));
        let mut mlp = Mlp::from_hidden(16, &[8, 4], 3);
        let nw = mlp.layers()[0].num_weights();
        let mask: Vec<f32> = (0..nw).map(|i| f32::from(i % 3 == 0)).collect();
        let mut masks = LayerMasks::none(3);
        masks.set(0, mask.clone());
        masks.apply(&mut mlp);
        let schedule = StepLr::constant(1e-3);
        session.run_epochs(&mut mlp, &schedule, 0..2, Some(&masks));
        for (i, &w) in mlp.layers()[0].weights.as_slice().iter().enumerate() {
            if mask[i] == 0.0 {
                assert_eq!(w, 0.0);
            }
        }
    }

    /// The session's labels — the real rows at construction, the midpoint
    /// rows of every batch — are traversal's scores bit for bit, through
    /// vQS: for a LambdaMART forest (base 0), a MART one (base = target
    /// mean) and one of more than 64 leaves a tree, which vQS cuts into
    /// three 32-leaf slices.
    #[test]
    fn labels_are_traversal_scores_bit_for_bit() {
        let (lambdamart, data) = small_setup();
        let targets: Vec<f32> = data.labels().iter().map(|&l| 0.5 * l + 0.25).collect();
        let mart = MartTrainer::new(MartParams {
            num_trees: 20,
            growth: GrowthParams {
                max_leaves: 16,
                min_data_in_leaf: 5,
                ..Default::default()
            },
            ..Default::default()
        })
        .fit(&data, &targets);
        let wide = LambdaMartTrainer::new(LambdaMartParams {
            num_trees: 2,
            growth: GrowthParams {
                max_leaves: 80,
                min_data_in_leaf: 1,
                ..Default::default()
            },
            early_stopping_rounds: 0,
            ..Default::default()
        })
        .fit(&data, None)
        .0;
        assert!(wide.max_leaves() > 64, "{} leaves", wide.max_leaves());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for forest in [&lambdamart, &mart, &wide] {
            // `teacher` is the compiled forest: every forest labels through
            // vQS, the 80-leaf one included.
            let session = DistillSession::new(forest, &data, distill_cfg(1));
            let mut want = vec![0.0f32; data.num_docs()];
            forest.predict_batch(data.features(), &mut want);
            assert_eq!(bits(&session.real_targets), bits(&want));

            let mut batches = session.batches();
            let docs: Vec<usize> = (0..batches.docs_per_batch()).collect();
            let (mut seed, mut rows, mut labels) = (5u64, Vec::new(), Vec::new());
            batches.gather(&docs, &mut seed, &mut rows, &mut labels);
            let synth = labels.len() - docs.len();
            assert!(synth > 0);
            let mut midpoints = Vec::new();
            session.sampler().sample_batch(synth, seed, &mut midpoints);
            let mut want = vec![0.0f32; synth];
            forest.predict_batch(&midpoints, &mut want);
            assert_eq!(bits(&labels[docs.len()..]), bits(&want));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty teacher")]
    fn an_empty_teacher_is_refused() {
        let (_, data) = small_setup();
        DistillSession::new(&Ensemble::new(16, 0.0), &data, distill_cfg(1));
    }

    #[test]
    fn synthetic_fraction_zero_still_trains() {
        let (teacher, data) = small_setup();
        let mut cfg = distill_cfg(3);
        cfg.synthetic_fraction = 0.0;
        let session = DistillSession::new(&teacher, &data, cfg);
        let model = session.train_student(&[8]);
        assert_eq!(model.epoch_loss.len(), 3);
        assert!(model.epoch_loss.iter().all(|l| l.is_finite()));
    }

    fn pearson(a: &[f32], b: &[f32]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().map(|&x| x as f64).sum::<f64>() / n;
        let mb = b.iter().map(|&x| x as f64).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            let (dx, dy) = (x as f64 - ma, y as f64 - mb);
            cov += dx * dy;
            va += dx * dx;
            vb += dy * dy;
        }
        cov / (va.sqrt() * vb.sqrt()).max(1e-12)
    }
}
