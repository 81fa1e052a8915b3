//! Fuzz the model deserializers: whatever bytes arrive, `read_ensemble`
//! and `read_mlp` must return a typed error, never panic.
//!
//! Corruptions are built from valid serialized models — truncation at any
//! byte, arbitrary byte flips (including ones that break UTF-8), garbage
//! line insertion — plus entirely random byte soup. A serving process
//! reloads models from disk; a half-written or bit-rotted file must not
//! take it down.

use distilled_ltr::gbdt::tree::leaf_ref;
use distilled_ltr::gbdt::{read_ensemble, write_ensemble, Ensemble, RegressionTree};
use distilled_ltr::nn::train::{LayerMasks, SgdTrainer};
use distilled_ltr::nn::{crc32, read_mlp, write_mlp, Checkpoint, Mlp};
use proptest::prelude::*;
use std::io::Cursor;

/// Valid serialized ensemble to corrupt.
fn ensemble_bytes() -> Vec<u8> {
    let mut e = Ensemble::new(3, 0.125);
    e.push(RegressionTree::from_raw(
        vec![0, 2],
        vec![0.5, -1.25],
        vec![1, leaf_ref(0)],
        vec![leaf_ref(2), leaf_ref(1)],
        vec![0.1, -0.2, 0.3],
    ));
    e.push(RegressionTree::constant(7.5));
    let mut buf = Vec::new();
    write_ensemble(&e, &mut buf).unwrap();
    buf
}

/// Valid serialized MLP to corrupt.
fn mlp_bytes() -> Vec<u8> {
    let mlp = Mlp::from_hidden(5, &[4, 3], 42);
    let mut buf = Vec::new();
    write_mlp(&mlp, &mut buf).unwrap();
    buf
}

/// Valid serialized checkpoint to corrupt.
fn checkpoint_bytes() -> Vec<u8> {
    let mlp = Mlp::from_hidden(4, &[3], 17);
    let trainer = SgdTrainer::new(&mlp, 0.1, 3);
    let ck = Checkpoint {
        tag: "distill".into(),
        epoch: 2,
        lr_scale: 1.0,
        synth_seed: 99,
        shuffle_rng: [5, 6, 7, 8],
        order: vec![3, 0, 4, 1, 2],
        threshold: None,
        masks: LayerMasks::none(2),
        trainer: trainer.export_state(),
        mlp,
    };
    let mut buf = Vec::new();
    ck.write_to(&mut buf).unwrap();
    buf
}

/// `body` under a valid `<magic> crc32 … len …` header: arbitrary bytes
/// that pass the length and checksum gate and reach the structural parser.
fn sealed(magic: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!("{magic} crc32 {:08x} len {}\n", crc32(body), body.len()).into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Both parsers must complete (Ok or Err) on these bytes. Reaching the
/// end of this function IS the property: a panic fails the test.
fn parsers_must_not_panic(bytes: &[u8]) {
    let _ = read_ensemble(Cursor::new(bytes));
    let _ = read_mlp(Cursor::new(bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncated_models_do_not_panic(cut in 0usize..10_000) {
        for base in [ensemble_bytes(), mlp_bytes()] {
            let cut = cut % (base.len() + 1);
            parsers_must_not_panic(&base[..cut]);
        }
    }

    #[test]
    fn byte_flips_do_not_panic(
        positions in collection::vec(0usize..10_000, 1..8),
        values in collection::vec(0u8..=255, 8usize),
    ) {
        for base in [ensemble_bytes(), mlp_bytes()] {
            let mut bytes = base;
            for (&pos, &val) in positions.iter().zip(&values) {
                let at = pos % bytes.len();
                bytes[at] = val; // may break UTF-8 — that must surface as Err, not a panic
            }
            parsers_must_not_panic(&bytes);
        }
    }

    #[test]
    fn garbage_line_insertion_does_not_panic(
        line in collection::vec(32u8..127, 0..40),
        at in 0usize..10_000,
    ) {
        for base in [ensemble_bytes(), mlp_bytes()] {
            let mut bytes = base;
            // Insert on a line boundary so the garbage becomes its own line.
            let newlines: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1)
                .collect();
            let split = newlines[at % newlines.len()];
            let mut inserted = line.clone();
            inserted.push(b'\n');
            bytes.splice(split..split, inserted);
            parsers_must_not_panic(&bytes);
        }
    }

    #[test]
    fn random_byte_soup_does_not_panic(bytes in collection::vec(0u8..=255, 0..512)) {
        parsers_must_not_panic(&bytes);
    }

    #[test]
    fn random_ascii_lines_do_not_panic(soup in collection::vec(9u8..127, 0..512)) {
        // All-ASCII soup reaches deeper into the line-oriented parsers
        // than raw bytes, which usually fail at UTF-8 validation.
        parsers_must_not_panic(&soup);
    }

    #[test]
    fn header_survives_any_tail(tail in collection::vec(0u8..=255, 0..256)) {
        // A valid header followed by arbitrary bytes exercises the
        // structural checks past the header fast-path — for the
        // checksummed formats, once with a header that does not vouch for
        // the tail and once with one that does.
        let mut cases: Vec<Vec<u8>> = [
            "dlr-ensemble v1\n",
            "dlr-mlp v2 crc32 deadbeef len 8\n",
            "dlr-ckpt v2 crc32 deadbeef len 8\n",
        ]
        .iter()
        .map(|header| [header.as_bytes(), &tail[..]].concat())
        .collect();
        cases.push(sealed("dlr-mlp v2", &tail));
        cases.push(sealed("dlr-ckpt v2", &tail));
        for bytes in cases {
            parsers_must_not_panic(&bytes);
            let _ = Checkpoint::read_from_bytes(&bytes);
        }
    }

    #[test]
    fn v2_payload_flip_is_always_a_typed_error(pos in 0usize..10_000, xor in 1u8..=255) {
        // The checksummed v2 format upgrades the guarantee from "no
        // panic" to "any payload corruption is rejected": CRC-32 catches
        // every single-byte error.
        let base = mlp_bytes();
        let payload_start = base.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut bytes = base.clone();
        let at = payload_start + pos % (bytes.len() - payload_start);
        bytes[at] ^= xor;
        prop_assert!(read_mlp(Cursor::new(&bytes[..])).is_err());
    }

    #[test]
    fn v2_truncation_is_always_a_typed_error(cut in 0usize..10_000) {
        // Any strictly-shorter prefix of a v2 file must be rejected (the
        // header records the exact payload length).
        let base = mlp_bytes();
        let cut = cut % base.len();
        prop_assert!(read_mlp(Cursor::new(&base[..cut])).is_err());
    }

    #[test]
    fn checkpoint_corruption_is_always_a_typed_error(
        pos in 0usize..100_000,
        xor in 1u8..=255,
        cut in 0usize..100_000,
    ) {
        let base = checkpoint_bytes();
        let payload_start = base.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut flipped = base.clone();
        let at = payload_start + pos % (flipped.len() - payload_start);
        flipped[at] ^= xor;
        prop_assert!(Checkpoint::read_from_bytes(&flipped).is_err());
        let cut = cut % base.len();
        prop_assert!(Checkpoint::read_from_bytes(&base[..cut]).is_err());
    }
}
