//! Crash-safe training checkpoints.
//!
//! A [`Checkpoint`] captures *everything* the epoch loop mutates, so a
//! run resumed from one is bit-identical to a run that was never
//! interrupted: the student weights, per-tensor Adam moments with their
//! step counters, the scheduler position (next epoch), the document order
//! with the shuffle RNG that permutes it further, the dropout RNG stream,
//! the pruning masks, the divergence-guard LR scale, and the frozen
//! Distiller threshold of an in-flight prune schedule — under the tag of
//! the schedule that wrote it, so another schedule cannot adopt it.
//!
//! Format (text, versioned, checksummed; checkpoints are scratch of one
//! run, so older versions are not read):
//!
//! ```text
//! dlr-ckpt v2 crc32 <8-hex> len <payload bytes>
//! tag <run tag>
//! epoch <next epoch>
//! lr-scale <f32>
//! synth-seed <u64>
//! shuffle-rng <u64> <u64> <u64> <u64>
//! order <n> <a permutation of 0..n>
//! threshold <f32|none>
//! masks <num layers>
//! mask <i> none              (or: mask <i> <len> <0/1 string>)
//! trainer dropout <f32> rng <u64> <u64> <u64> <u64>
//! adam-w <i> <t>   |  m <floats>  |  v <floats>     (× layers)
//! adam-b <i> <t>   |  m <floats>  |  v <floats>     (× layers)
//! mlp
//! <embedded dlr-mlp v2 file>
//! ```
//!
//! Durability: [`Checkpoint::save`] writes to a temporary sibling, fsyncs,
//! then renames over the target — a crash mid-write leaves either the old
//! checkpoint or a stray `.tmp`, never a half-written file under the real
//! name. A torn write that somehow survives (e.g. the tmp file itself
//! after a crash, or bit rot) is caught at load time by the payload
//! length and CRC-32 checks and surfaces as a typed error, which lets
//! [`CheckpointManager::load_latest_valid`] fall back to the previous
//! intact checkpoint.

use crate::checksum::crc32;
use crate::mlp::Mlp;
use crate::serialize::{read_mlp_bytes, write_mlp, MlpParseError};
use crate::train::{LayerMasks, LoopState, TrainerState};
use rand::rngs::StdRng;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Errors loading or storing a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Missing or unknown header.
    BadHeader,
    /// Payload byte count did not match the header's (torn write).
    Truncated {
        /// Payload length recorded in the header.
        expected_bytes: usize,
        /// Bytes actually present.
        actual_bytes: usize,
    },
    /// Payload checksum did not match the header's.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the payload actually read.
        found: u32,
    },
    /// A structural payload line was malformed or inconsistent.
    Malformed {
        /// 1-based line number within the checkpoint file.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The embedded model failed to parse or validate.
    Mlp(MlpParseError),
    /// Underlying I/O failure.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "not a dlr-ckpt file"),
            CheckpointError::Truncated {
                expected_bytes,
                actual_bytes,
            } => write!(
                f,
                "payload is {actual_bytes} bytes, header promised {expected_bytes} (torn write?)"
            ),
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum {found:08x} does not match header {expected:08x}"
            ),
            CheckpointError::Malformed { line, message } => write!(f, "line {line}: {message}"),
            CheckpointError::Mlp(e) => write!(f, "embedded model: {e}"),
            CheckpointError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

impl From<MlpParseError> for CheckpointError {
    fn from(e: MlpParseError) -> Self {
        CheckpointError::Mlp(e)
    }
}

/// A complete, resumable snapshot of a training run at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The schedule that wrote it (`distill`, `prune`, …): one token, no
    /// whitespace.
    pub tag: String,
    /// Next epoch to execute (epochs `0..epoch` are already applied).
    pub epoch: usize,
    /// Divergence-guard learning-rate scale carried across epochs.
    pub lr_scale: f32,
    /// Synthetic-batch sampling seed at the boundary.
    pub synth_seed: u64,
    /// Data-order (shuffle) RNG state at the boundary.
    pub shuffle_rng: [u64; 4],
    /// The document order at the boundary — the shuffle is cumulative, so
    /// the RNG state alone does not give the next epoch's order.
    pub order: Vec<usize>,
    /// Frozen Distiller prune threshold, when a prune schedule is live.
    pub threshold: Option<f32>,
    /// Pruning masks in force (all-`none` outside a prune schedule).
    pub masks: LayerMasks,
    /// Optimizer + dropout-RNG state.
    pub trainer: TrainerState,
    /// The student network.
    pub mlp: Mlp,
}

impl Checkpoint {
    /// A checkpoint of the epoch loop's `st` and `mlp`.
    pub(crate) fn of(st: &LoopState, mlp: &Mlp) -> Checkpoint {
        Checkpoint {
            tag: st.tag.to_string(),
            epoch: st.epoch,
            lr_scale: st.lr_scale,
            synth_seed: st.synth_seed,
            shuffle_rng: st.shuffle_rng.state(),
            order: st.order.clone(),
            threshold: st.threshold,
            masks: st.masks.clone(),
            trainer: st.trainer.export_state(),
            mlp: mlp.clone(),
        }
    }

    /// [`Self::of`] over a checkpoint taken earlier in the same run,
    /// reusing its buffers.
    pub(crate) fn capture(&mut self, st: &LoopState, mlp: &Mlp) {
        self.epoch = st.epoch;
        self.lr_scale = st.lr_scale;
        self.synth_seed = st.synth_seed;
        self.shuffle_rng = st.shuffle_rng.state();
        self.order.clone_from(&st.order);
        self.threshold = st.threshold;
        self.masks.masks.clone_from(&st.masks.masks);
        st.trainer.export_state_into(&mut self.trainer);
        copy_params(&mut self.mlp, mlp);
    }

    /// Put this checkpoint back into `st` and `mlp` — how a rollback
    /// returns to the last good epoch boundary and how a resumed run picks
    /// up a stored one. The Adam state of a checkpoint fits its own model
    /// (checked when it is parsed), so one that fits `st.trainer` holds
    /// the architecture that trainer was built for.
    ///
    /// # Errors
    /// Names the mismatch when the checkpoint does not fit the trainer or
    /// orders another number of documents; `mlp` is not touched then.
    pub(crate) fn restore(&self, st: &mut LoopState, mlp: &mut Mlp) -> Result<(), String> {
        if self.order.len() != st.order.len() {
            return Err(format!(
                "checkpoint orders {} documents, the run has {}",
                self.order.len(),
                st.order.len()
            ));
        }
        st.trainer.import_state(&self.trainer)?;
        copy_params(mlp, &self.mlp);
        st.epoch = self.epoch;
        st.lr_scale = self.lr_scale;
        st.synth_seed = self.synth_seed;
        st.shuffle_rng = StdRng::from_state(self.shuffle_rng);
        st.order.clone_from(&self.order);
        st.threshold = self.threshold;
        st.masks.masks.clone_from(&self.masks.masks);
        Ok(())
    }

    /// Serialize into `w` (header + checksummed payload).
    ///
    /// # Errors
    /// Propagates I/O failures; rejects a tag that is not one token.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), CheckpointError> {
        if !is_token(&self.tag) {
            return Err(bad(2, "tag must be one non-empty token".into()));
        }
        let mut p = Vec::new();
        writeln!(p, "tag {}", self.tag)?;
        writeln!(p, "epoch {}", self.epoch)?;
        writeln!(p, "lr-scale {}", self.lr_scale)?;
        writeln!(p, "synth-seed {}", self.synth_seed)?;
        let s = self.shuffle_rng;
        writeln!(p, "shuffle-rng {} {} {} {}", s[0], s[1], s[2], s[3])?;
        write!(p, "order {}", self.order.len())?;
        for d in &self.order {
            write!(p, " {d}")?;
        }
        writeln!(p)?;
        match self.threshold {
            Some(t) => writeln!(p, "threshold {t}")?,
            None => writeln!(p, "threshold none")?,
        }
        writeln!(p, "masks {}", self.masks.len())?;
        for i in 0..self.masks.len() {
            match self.masks.get(i) {
                None => writeln!(p, "mask {i} none")?,
                Some(m) => {
                    let bits: String = m
                        .iter()
                        .map(|&v| if v == 0.0 { '0' } else { '1' })
                        .collect();
                    writeln!(p, "mask {i} {} {bits}", m.len())?;
                }
            }
        }
        let t = &self.trainer;
        let r = t.rng;
        writeln!(
            p,
            "trainer dropout {} rng {} {} {} {}",
            t.dropout, r[0], r[1], r[2], r[3]
        )?;
        for (tag, states) in [("adam-w", &t.adam_w), ("adam-b", &t.adam_b)] {
            for (i, st) in states.iter().enumerate() {
                writeln!(p, "{tag} {i} {}", st.t)?;
                write!(p, "m")?;
                for &v in &st.m {
                    write!(p, " {v}")?;
                }
                writeln!(p)?;
                write!(p, "v")?;
                for &v in &st.v {
                    write!(p, " {v}")?;
                }
                writeln!(p)?;
            }
        }
        writeln!(p, "mlp")?;
        write_mlp(&self.mlp, &mut p)?;
        writeln!(w, "dlr-ckpt v2 crc32 {:08x} len {}", crc32(&p), p.len())?;
        w.write_all(&p)?;
        Ok(())
    }

    /// Parse a checkpoint from raw bytes, verifying length, checksum and
    /// internal consistency (tensor shapes vs. the embedded model, finite
    /// values everywhere).
    ///
    /// # Errors
    /// A typed [`CheckpointError`] on any corruption or inconsistency.
    pub fn read_from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(CheckpointError::BadHeader)?;
        let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| CheckpointError::BadHeader)?;
        let rest = header
            .strip_prefix("dlr-ckpt v2 crc32 ")
            .ok_or(CheckpointError::BadHeader)?;
        let (crc_hex, len_part) = rest.split_once(" len ").ok_or(CheckpointError::BadHeader)?;
        let expected = u32::from_str_radix(crc_hex, 16).map_err(|_| CheckpointError::BadHeader)?;
        let expected_bytes: usize = len_part.parse().map_err(|_| CheckpointError::BadHeader)?;
        let payload = &bytes[nl + 1..];
        if payload.len() != expected_bytes {
            return Err(CheckpointError::Truncated {
                expected_bytes,
                actual_bytes: payload.len(),
            });
        }
        let found = crc32(payload);
        if found != expected {
            return Err(CheckpointError::ChecksumMismatch { expected, found });
        }
        parse_payload(payload)
    }

    /// Load and validate the checkpoint at `path`.
    ///
    /// # Errors
    /// A typed [`CheckpointError`] on I/O failure or any corruption.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Checkpoint::read_from_bytes(&bytes)
    }

    /// Atomically persist to `path`: write a `.tmp` sibling, fsync it,
    /// then rename over the target. A crash at any point leaves either
    /// the previous file or a stray `.tmp` — never a torn file under
    /// `path`.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = std::fs::File::create(&tmp)?;
            self.write_to(&mut file)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// Copy weights and biases between two models of one architecture.
fn copy_params(dst: &mut Mlp, src: &Mlp) {
    for (d, s) in dst.layers_mut().iter_mut().zip(src.layers()) {
        d.weights
            .as_mut_slice()
            .copy_from_slice(s.weights.as_slice());
        d.bias.copy_from_slice(&s.bias);
    }
}

/// Line cursor over the structural head of the payload; tracks 1-based
/// file line numbers (the checkpoint header is line 1) for error context.
struct Cursor<'a> {
    lines: Vec<&'a str>,
    idx: usize,
}

impl<'a> Cursor<'a> {
    /// Next line plus its 1-based file line number.
    fn next(&mut self) -> Result<(&'a str, usize), CheckpointError> {
        let at = self.idx + 2; // +1 for the header line, +1 for 1-basing
        let line = self
            .lines
            .get(self.idx)
            .copied()
            .ok_or_else(|| bad(at, "unexpected end of checkpoint".into()))?;
        self.idx += 1;
        Ok((line, at))
    }
}

fn bad(line: usize, message: String) -> CheckpointError {
    CheckpointError::Malformed { line, message }
}

/// Whether `tag` fits on the `tag` line: non-empty, no whitespace.
fn is_token(tag: &str) -> bool {
    !tag.is_empty() && !tag.contains(char::is_whitespace)
}

/// Parse exactly `n` u64 values after `prefix`.
fn parse_u64s(line: &str, prefix: &str, n: usize, at: usize) -> Result<Vec<u64>, CheckpointError> {
    let rest = line
        .strip_prefix(prefix)
        .ok_or_else(|| bad(at, format!("expected `{prefix}...`")))?;
    let vals: Result<Vec<u64>, _> = rest.split_whitespace().map(str::parse::<u64>).collect();
    let vals = vals.map_err(|_| bad(at, "bad integer".into()))?;
    if vals.len() != n {
        return Err(bad(at, format!("expected {n} values, got {}", vals.len())));
    }
    Ok(vals)
}

/// Parse exactly `n` finite f32 values after `prefix`.
fn parse_floats(
    line: &str,
    prefix: &str,
    n: usize,
    at: usize,
) -> Result<Vec<f32>, CheckpointError> {
    let rest = line
        .strip_prefix(prefix)
        .ok_or_else(|| bad(at, format!("expected `{prefix}...`")))?;
    let vals: Result<Vec<f32>, _> = rest.split_whitespace().map(str::parse::<f32>).collect();
    let vals = vals.map_err(|_| bad(at, "bad float".into()))?;
    if vals.len() != n {
        return Err(bad(at, format!("expected {n} values, got {}", vals.len())));
    }
    if let Some(i) = vals.iter().position(|v| !v.is_finite()) {
        return Err(bad(at, format!("value {} is not finite", i + 1)));
    }
    Ok(vals)
}

/// Parse `order <n> <n indices>`; the indices must be a permutation of
/// `0..n`, or a resumed run would skip some documents and repeat others.
fn parse_order(line: &str, at: usize) -> Result<Vec<usize>, CheckpointError> {
    let mut fields = line
        .strip_prefix("order ")
        .ok_or_else(|| bad(at, "expected `order <n> ...`".into()))?
        .split_whitespace();
    let n: usize = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad(at, "bad order length".into()))?;
    let order: Vec<usize> = fields
        .map(|v| v.parse().ok().filter(|&d| d < n))
        .collect::<Option<_>>()
        .ok_or_else(|| bad(at, "order entries must be integers below its length".into()))?;
    let mut seen = vec![false; order.len()];
    if order.len() != n || order.iter().any(|&d| std::mem::replace(&mut seen[d], true)) {
        return Err(bad(at, format!("order is not a permutation of 0..{n}")));
    }
    Ok(order)
}

/// Parse one per-layer Adam block (`adam-w` or `adam-b`), shape-checked
/// against the embedded model.
fn read_adam(
    cur: &mut Cursor<'_>,
    tag: &str,
    mlp: &Mlp,
    bias: bool,
) -> Result<Vec<crate::adam::AdamState>, CheckpointError> {
    let num_layers = mlp.layers().len();
    let mut out = Vec::with_capacity(num_layers);
    for i in 0..num_layers {
        let (line, at) = cur.next()?;
        let p: Vec<&str> = line.split_whitespace().collect();
        if p.len() != 3 || p[0] != tag || p[1] != i.to_string() {
            return Err(bad(at, format!("expected `{tag} {i} <t>`")));
        }
        let t: u64 = p[2].parse().map_err(|_| bad(at, "bad step count".into()))?;
        let n = if bias {
            mlp.layers()[i].bias.len()
        } else {
            mlp.layers()[i].num_weights()
        };
        let (line, at) = cur.next()?;
        let m = parse_floats(line, "m", n, at)?;
        let (line, at) = cur.next()?;
        let v = parse_floats(line, "v", n, at)?;
        out.push(crate::adam::AdamState { m, v, t });
    }
    Ok(out)
}

/// Parse the post-header payload (already length- and checksum-verified).
fn parse_payload(payload: &[u8]) -> Result<Checkpoint, CheckpointError> {
    // Split off the embedded model first: everything after the `mlp`
    // marker line is a self-contained dlr-mlp file.
    let marker = b"\nmlp\n";
    let pos = payload
        .windows(marker.len())
        .position(|w| w == marker)
        .ok_or(CheckpointError::Malformed {
            line: 0,
            message: "missing `mlp` section".into(),
        })?;
    let head = std::str::from_utf8(&payload[..pos])
        .map_err(|e| CheckpointError::Io(format!("payload is not valid UTF-8: {e}")))?;
    let mlp_bytes = &payload[pos + marker.len()..];
    let mlp = read_mlp_bytes(mlp_bytes)?;

    let mut cur = Cursor {
        lines: head.lines().collect(),
        idx: 0,
    };

    let (line, at) = cur.next()?;
    let tag = line
        .strip_prefix("tag ")
        .filter(|t| is_token(t))
        .ok_or_else(|| bad(at, "expected `tag <token>`".into()))?
        .to_string();
    let (line, at) = cur.next()?;
    let epoch: usize = line
        .strip_prefix("epoch ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad(at, "expected `epoch <n>`".into()))?;
    let (line, at) = cur.next()?;
    let lr_scale = parse_floats(line, "lr-scale", 1, at)?[0];
    let (line, at) = cur.next()?;
    let synth_seed = parse_u64s(line, "synth-seed", 1, at)?[0];
    let (line, at) = cur.next()?;
    let sr = parse_u64s(line, "shuffle-rng", 4, at)?;
    let shuffle_rng = [sr[0], sr[1], sr[2], sr[3]];
    let (line, at) = cur.next()?;
    let order = parse_order(line, at)?;
    let (line, at) = cur.next()?;
    let threshold = match line
        .strip_prefix("threshold ")
        .ok_or_else(|| bad(at, "expected `threshold ...`".into()))?
    {
        "none" => None,
        v => Some(
            v.parse::<f32>()
                .ok()
                .filter(|t| t.is_finite())
                .ok_or_else(|| bad(at, "bad threshold".into()))?,
        ),
    };

    let (line, at) = cur.next()?;
    let num_layers: usize = line
        .strip_prefix("masks ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad(at, "expected `masks <n>`".into()))?;
    if num_layers != mlp.layers().len() {
        return Err(bad(
            at,
            format!(
                "checkpoint covers {num_layers} layers, embedded model has {}",
                mlp.layers().len()
            ),
        ));
    }
    let mut masks = LayerMasks::none(num_layers);
    for i in 0..num_layers {
        let (line, at) = cur.next()?;
        let p: Vec<&str> = line.split_whitespace().collect();
        if p.len() < 3 || p[0] != "mask" || p[1] != i.to_string() {
            return Err(bad(at, format!("expected `mask {i} ...`")));
        }
        if p[2] == "none" {
            continue;
        }
        if p.len() != 4 {
            return Err(bad(at, "expected `mask <i> <len> <bits>`".into()));
        }
        let len: usize = p[2]
            .parse()
            .map_err(|_| bad(at, "bad mask length".into()))?;
        let expected = mlp.layers()[i].num_weights();
        if len != expected || p[3].len() != len {
            return Err(bad(
                at,
                format!("mask {i} has {len} bits, layer has {expected} weights"),
            ));
        }
        let mut mask = Vec::with_capacity(len);
        for c in p[3].chars() {
            match c {
                '0' => mask.push(0.0),
                '1' => mask.push(1.0),
                _ => return Err(bad(at, "mask bits must be 0 or 1".into())),
            }
        }
        masks.set(i, mask);
    }

    let (line, at) = cur.next()?;
    let rest = line
        .strip_prefix("trainer dropout ")
        .ok_or_else(|| bad(at, "expected `trainer dropout ...`".into()))?;
    let (drop_part, rng_part) = rest
        .split_once(" rng ")
        .ok_or_else(|| bad(at, "expected `... rng <4 u64>`".into()))?;
    let dropout: f32 = drop_part
        .parse::<f32>()
        .ok()
        .filter(|d| d.is_finite())
        .ok_or_else(|| bad(at, "bad dropout".into()))?;
    let tr = parse_u64s(rng_part, "", 4, at)?;
    let trainer_rng = [tr[0], tr[1], tr[2], tr[3]];

    let adam_w = read_adam(&mut cur, "adam-w", &mlp, false)?;
    let adam_b = read_adam(&mut cur, "adam-b", &mlp, true)?;

    Ok(Checkpoint {
        tag,
        epoch,
        lr_scale,
        synth_seed,
        shuffle_rng,
        order,
        threshold,
        masks,
        trainer: TrainerState {
            adam_w,
            adam_b,
            dropout,
            rng: trainer_rng,
        },
        mlp,
    })
}

/// A record of one unreadable checkpoint skipped during recovery.
#[derive(Debug, Clone)]
pub struct SkippedCheckpoint {
    /// The file that failed to load.
    pub path: PathBuf,
    /// Why it was rejected.
    pub error: CheckpointError,
}

/// Owns a checkpoint directory: epoch-tagged file names, retention of the
/// newest `keep_last` files, and corrupt-tolerant recovery that walks
/// newest → oldest until an intact checkpoint verifies.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    dir: PathBuf,
    keep_last: usize,
}

impl CheckpointManager {
    /// Open (creating if needed) the checkpoint directory. `keep_last` is
    /// the number of most-recent checkpoints retained after each save
    /// (`0` keeps everything). Keep at least 2 so a corrupted newest file
    /// still leaves a fallback.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn new(
        dir: impl Into<PathBuf>,
        keep_last: usize,
    ) -> Result<CheckpointManager, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointManager { dir, keep_last })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path for the checkpoint taken at the boundary before `epoch`.
    pub fn path_for(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{epoch:08}.dlrck"))
    }

    /// Epoch-sorted (ascending) list of checkpoint files present.
    ///
    /// # Errors
    /// Propagates directory-listing failures.
    pub fn list(&self) -> Result<Vec<(usize, PathBuf)>, CheckpointError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(epoch) = name
                .strip_prefix("ckpt-")
                .and_then(|r| r.strip_suffix(".dlrck"))
                .and_then(|e| e.parse::<usize>().ok())
            {
                out.push((epoch, path));
            }
        }
        out.sort_unstable_by_key(|(e, _)| *e);
        Ok(out)
    }

    /// Atomically save `ck` under its epoch-tagged name, then prune old
    /// checkpoints beyond the retention window. Returns the path written.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save(&self, ck: &Checkpoint) -> Result<PathBuf, CheckpointError> {
        let path = self.path_for(ck.epoch);
        ck.save(&path)?;
        if self.keep_last > 0 {
            let files = self.list()?;
            if files.len() > self.keep_last {
                for (_, old) in &files[..files.len() - self.keep_last] {
                    // Best-effort: a vanished file is not a failure.
                    let _ = std::fs::remove_file(old);
                }
            }
        }
        Ok(path)
    }

    /// Recover the newest checkpoint that verifies, walking newest →
    /// oldest and recording every corrupt/unreadable file skipped on the
    /// way. Returns `None` when no intact checkpoint exists.
    ///
    /// # Errors
    /// Propagates directory-listing failures (individual bad files are
    /// skipped, not fatal).
    pub fn load_latest_valid(
        &self,
    ) -> Result<(Option<Checkpoint>, Vec<SkippedCheckpoint>), CheckpointError> {
        let mut skipped = Vec::new();
        for (_, path) in self.list()?.into_iter().rev() {
            match Checkpoint::load(&path) {
                Ok(ck) => return Ok((Some(ck), skipped)),
                Err(error) => skipped.push(SkippedCheckpoint { path, error }),
            }
        }
        Ok((None, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::SgdTrainer;

    fn sample_checkpoint() -> Checkpoint {
        let mlp = Mlp::from_hidden(4, &[5, 3], 11);
        let mut trainer = SgdTrainer::new(&mlp, 0.1, 7);
        // Give the Adam moments real values.
        let mut m = mlp.clone();
        let rows: Vec<f32> = (0..4 * 8).map(|i| (i as f32 * 0.3).sin()).collect();
        let targets: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).cos()).collect();
        for _ in 0..3 {
            trainer.train_batch(&mut m, &rows, &targets, 1e-3, None);
        }
        let mut masks = LayerMasks::none(3);
        masks.set(
            0,
            (0..m.layers()[0].num_weights())
                .map(|i| f32::from(i % 3 != 0))
                .collect(),
        );
        Checkpoint {
            tag: "prune".into(),
            epoch: 5,
            lr_scale: 0.25,
            synth_seed: 0xDEAD_BEEF,
            shuffle_rng: [1, 2, 3, u64::MAX],
            order: vec![2, 0, 3, 1],
            threshold: Some(0.037),
            masks,
            trainer: trainer.export_state(),
            mlp: m,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let ck = sample_checkpoint();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from_bytes(&buf).unwrap();
        assert_eq!(ck, back);
    }

    #[test]
    fn truncation_and_flips_are_detected() {
        let ck = sample_checkpoint();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        // Torn write: every truncation point fails with a typed error.
        for cut in [buf.len() - 1, buf.len() / 2, 20] {
            let err = Checkpoint::read_from_bytes(&buf[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::BadHeader
                ),
                "cut {cut}: {err:?}"
            );
        }
        // Single byte flip in the payload: checksum catches it.
        let header_end = buf.iter().position(|&b| b == b'\n').unwrap();
        let mut bad = buf.clone();
        bad[header_end + 1 + (buf.len() - header_end) / 2] ^= 0x20;
        assert!(matches!(
            Checkpoint::read_from_bytes(&bad).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn atomic_save_and_manager_recovery() {
        let dir = std::env::temp_dir().join(format!("dlr-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = CheckpointManager::new(&dir, 3).unwrap();
        let mut ck = sample_checkpoint();
        for e in 0..5 {
            ck.epoch = e;
            mgr.save(&ck).unwrap();
        }
        // Retention: only the newest 3 remain.
        let files = mgr.list().unwrap();
        assert_eq!(
            files.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        // Corrupt the newest; recovery falls back to epoch 3.
        let newest = mgr.path_for(4);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let (found, skipped) = mgr.load_latest_valid().unwrap();
        assert_eq!(found.unwrap().epoch, 3);
        assert_eq!(skipped.len(), 1);
        assert!(matches!(
            skipped[0].error,
            CheckpointError::ChecksumMismatch { .. } | CheckpointError::Malformed { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stray_tmp_from_a_torn_save_is_neither_adopted_nor_skipped() {
        let dir = std::env::temp_dir().join(format!("dlr-ckpt-tmp-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = CheckpointManager::new(&dir, 3).unwrap();
        let mut ck = sample_checkpoint();
        ck.epoch = 1;
        mgr.save(&ck).unwrap();
        // A crash while saving epoch 2 leaves a torn temporary sibling.
        ck.epoch = 2;
        let mut bytes = Vec::new();
        ck.write_to(&mut bytes).unwrap();
        let tmp = dir.join("ckpt-00000002.dlrck.tmp");
        std::fs::write(&tmp, &bytes[..bytes.len() / 2]).unwrap();

        let (found, skipped) = mgr.load_latest_valid().unwrap();
        assert_eq!(found.unwrap().epoch, 1, "the stray is not a checkpoint");
        assert!(skipped.is_empty(), "nor a corrupt one");
        // The retried save of epoch 2 writes through the stray.
        assert_eq!(mgr.save(&ck).unwrap(), mgr.path_for(2));
        assert!(!tmp.exists());
        assert_eq!(mgr.load_latest_valid().unwrap().0, Some(ck));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trainer_state_restores_into_a_fresh_trainer() {
        let ck = sample_checkpoint();
        let mut restored = SgdTrainer::new(&ck.mlp, 0.0, 0);
        restored.import_state(&ck.trainer).unwrap();
        assert_eq!(restored.export_state(), ck.trainer);
        // Shape mismatch is a typed failure, not a panic.
        let other = Mlp::from_hidden(4, &[6, 3], 1);
        assert!(SgdTrainer::new(&other, 0.0, 0)
            .import_state(&ck.trainer)
            .is_err());
    }
}
