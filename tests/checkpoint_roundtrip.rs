//! Property tests for the checkpoint format: serialize → parse is the
//! identity over the whole state space the training loops can produce —
//! arbitrary architectures, run tags, RNG states (any `[u64; 4]`),
//! document orders (any permutation), Adam moments mid-trajectory, partial
//! masks, and the optional frozen threshold.

use distilled_ltr::nn::train::{LayerMasks, SgdTrainer};
use distilled_ltr::nn::{crc32, Checkpoint, CheckpointError, Mlp};
use proptest::prelude::*;

/// Architecture + trajectory parameters that generate a realistic
/// checkpoint: the trainer actually runs `steps` batches so the Adam
/// moments and dropout RNG are mid-stream, not pristine.
#[derive(Debug, Clone)]
struct CheckpointCase {
    features: usize,
    hidden: Vec<usize>,
    seed: u64,
    steps: usize,
    dropout: f32,
    tag: &'static str,
    epoch: usize,
    lr_scale: f32,
    synth_seed: u64,
    shuffle_rng: [u64; 4],
    /// Sort keys; their argsort is the document order.
    order_keys: Vec<u64>,
    threshold: Option<f32>,
    mask_layer: Option<usize>,
}

fn arb_u64() -> std::ops::RangeInclusive<u64> {
    0..=u64::MAX
}

fn rng_state() -> impl Strategy<Value = [u64; 4]> {
    (arb_u64(), arb_u64(), arb_u64(), arb_u64()).prop_map(|(a, b, c, d)| [a, b, c, d])
}

fn case_strategy() -> impl Strategy<Value = CheckpointCase> {
    let arch = (
        1usize..6,
        collection::vec(1usize..7, 0..3),
        arb_u64(),
        0usize..4,
        0usize..3,
    );
    let state = (0usize..1000, 0usize..4, arb_u64(), rng_state());
    let extras = (0u8..2, 0.0f32..2.0, 0u8..2, 0usize..3);
    let run = (0usize..3, collection::vec(arb_u64(), 0..40));
    (arch, state, extras, run).prop_map(
        |(
            (features, hidden, seed, steps, drop_i),
            (epoch, scale_i, synth_seed, shuffle_rng),
            (has_thr, thr, has_mask, mask_layer),
            (tag_i, order_keys),
        )| CheckpointCase {
            features,
            hidden,
            seed,
            steps,
            dropout: [0.0f32, 0.25, 0.5][drop_i],
            tag: ["distill", "prune", "x-1"][tag_i],
            epoch,
            lr_scale: [1.0f32, 0.5, 0.125, 0.0625][scale_i],
            synth_seed,
            shuffle_rng,
            order_keys,
            threshold: (has_thr == 1).then_some(thr),
            mask_layer: (has_mask == 1).then_some(mask_layer),
        },
    )
}

fn build_checkpoint(case: &CheckpointCase) -> Checkpoint {
    let mut mlp = Mlp::from_hidden(case.features, &case.hidden, case.seed);
    let mut trainer = SgdTrainer::new(&mlp, case.dropout, case.seed ^ 0xFA57);
    // March the optimizer so moments/timestep/dropout-RNG are non-trivial.
    let n = 8;
    let rows: Vec<f32> = (0..n * case.features)
        .map(|i| ((i as f32) * 0.61).sin())
        .collect();
    let targets: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.23).cos()).collect();
    for _ in 0..case.steps {
        trainer.train_batch(&mut mlp, &rows, &targets, 1e-3, None);
    }
    let num_layers = mlp.layers().len();
    let mut masks = LayerMasks::none(num_layers);
    if let Some(li) = case.mask_layer {
        let li = li % num_layers;
        let nw = mlp.layers()[li].num_weights();
        masks.set(li, (0..nw).map(|i| f32::from(i % 2 == 0)).collect());
    }
    let mut order: Vec<usize> = (0..case.order_keys.len()).collect();
    order.sort_by_key(|&d| case.order_keys[d]);
    Checkpoint {
        tag: case.tag.into(),
        epoch: case.epoch,
        lr_scale: case.lr_scale,
        synth_seed: case.synth_seed,
        shuffle_rng: case.shuffle_rng,
        order,
        threshold: case.threshold,
        masks,
        trainer: trainer.export_state(),
        mlp,
    }
}

#[test]
fn bad_tag_or_order_is_a_typed_error() {
    let ck = build_checkpoint(&CheckpointCase {
        features: 3,
        hidden: vec![4],
        seed: 5,
        steps: 2,
        dropout: 0.25,
        tag: "prune",
        epoch: 5,
        lr_scale: 0.5,
        synth_seed: 9,
        shuffle_rng: [1, 2, 3, 4],
        order_keys: vec![30, 10, 40, 20],
        threshold: Some(0.037),
        mask_layer: Some(0),
    });
    let mut bytes = Vec::new();
    ck.write_to(&mut bytes).unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let payload = text.split_once('\n').unwrap().1;
    // Re-sealed under a valid header, so the structural checks are what
    // rejects each edit: a repeated, an out-of-range and a missing
    // document; a tag of two words and of none.
    for (from, to) in [
        ("order 4 1 3 0 2", "order 4 1 3 0 0"),
        ("order 4 1 3 0 2", "order 4 1 3 0 7"),
        ("order 4 1 3 0 2", "order 5 1 3 0 2"),
        ("tag prune", "tag prune fine"),
        ("tag prune", "tag "),
    ] {
        assert!(payload.contains(from), "{from}");
        let edited = payload.replacen(from, to, 1);
        let sealed = format!(
            "dlr-ckpt v2 crc32 {:08x} len {}\n{edited}",
            crc32(edited.as_bytes()),
            edited.len()
        );
        let err = Checkpoint::read_from_bytes(sealed.as_bytes()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Malformed { .. }),
            "{to}: {err:?}"
        );
    }
    // The writer refuses what the reader would reject.
    let spaced = Checkpoint {
        tag: "two words".into(),
        ..ck
    };
    assert!(spaced.write_to(Vec::new()).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_checkpoint_roundtrip_is_identity(case in case_strategy()) {
        let ck = build_checkpoint(&case);
        let mut bytes = Vec::new();
        ck.write_to(&mut bytes).unwrap();
        let back = Checkpoint::read_from_bytes(&bytes).unwrap();
        prop_assert_eq!(ck, back);
    }

    #[test]
    fn restored_trainer_resumes_the_exact_optimizer_state(case in case_strategy()) {
        let ck = build_checkpoint(&case);
        let mut bytes = Vec::new();
        ck.write_to(&mut bytes).unwrap();
        let back = Checkpoint::read_from_bytes(&bytes).unwrap();
        let mut trainer = SgdTrainer::new(&back.mlp, 0.0, 0);
        trainer.import_state(&back.trainer).unwrap();
        prop_assert_eq!(trainer.export_state(), ck.trainer);
    }

    #[test]
    fn double_roundtrip_is_stable(case in case_strategy()) {
        // parse(write(parse(write(ck)))) — the format must be a fixpoint,
        // not merely value-preserving on the first pass.
        let ck = build_checkpoint(&case);
        let mut b1 = Vec::new();
        ck.write_to(&mut b1).unwrap();
        let once = Checkpoint::read_from_bytes(&b1).unwrap();
        let mut b2 = Vec::new();
        once.write_to(&mut b2).unwrap();
        prop_assert_eq!(b1, b2);
    }

    #[test]
    fn truncation_never_parses(case in case_strategy(), cut_frac in 0.0f64..1.0) {
        let ck = build_checkpoint(&case);
        let mut bytes = Vec::new();
        ck.write_to(&mut bytes).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize; // strictly short
        let err = Checkpoint::read_from_bytes(&bytes[..cut.min(bytes.len() - 1)]).unwrap_err();
        prop_assert!(matches!(
            err,
            CheckpointError::Truncated { .. } | CheckpointError::BadHeader
        ));
    }
}
