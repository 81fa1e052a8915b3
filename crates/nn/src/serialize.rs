//! Plain-text (de)serialization of MLPs.
//!
//! Line-oriented, dependency-free, exact `f32` round-trips (shortest-exact
//! formatting). Current format (v2) adds a payload checksum so torn writes
//! and bit rot are rejected at load time with a typed error:
//!
//! ```text
//! dlr-mlp v2 crc32 <8-hex> len <payload bytes>
//! layers <n>
//! layer <in> <out> <relu|relu6|identity>
//! w <in floats>        (× out rows)
//! b <out floats>
//! ```
//!
//! The checksum covers every byte after the header line; a file without
//! one (the retired v1 header) is rejected as [`MlpParseError::BadHeader`].
//!
//! Loading also *validates* the model: non-finite weights or biases and
//! layer shapes that do not chain are rejected with line/field context —
//! the same policy as the LETOR parser's non-finite rejection, so a
//! corrupted model cannot quietly poison every score it produces.

use crate::activation::Activation;
use crate::checksum::crc32;
use crate::layer::Linear;
use crate::mlp::Mlp;
use dlr_dense::Matrix;
use std::io::{BufRead, Write};

/// Errors loading a serialized MLP.
#[derive(Debug, Clone, PartialEq)]
pub enum MlpParseError {
    /// Missing or unknown header.
    BadHeader,
    /// The payload checksum did not match the header's.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the payload actually read.
        found: u32,
    },
    /// The payload byte count did not match the header's (torn write).
    Truncated {
        /// Payload length recorded in the header.
        expected_bytes: usize,
        /// Bytes actually present after the header.
        actual_bytes: usize,
    },
    /// A weight or bias value was NaN or infinite.
    NonFinite {
        /// 1-based line number.
        line: usize,
        /// 1-based value index within the line.
        index: usize,
    },
    /// A structural line was malformed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Underlying I/O failure.
    Io(String),
}

impl std::fmt::Display for MlpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlpParseError::BadHeader => write!(f, "not a dlr-mlp file"),
            MlpParseError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum {found:08x} does not match header {expected:08x}"
            ),
            MlpParseError::Truncated {
                expected_bytes,
                actual_bytes,
            } => write!(
                f,
                "payload is {actual_bytes} bytes, header promised {expected_bytes} (torn write?)"
            ),
            MlpParseError::NonFinite { line, index } => {
                write!(f, "line {line}: value {index} is not finite")
            }
            MlpParseError::Malformed { line, message } => write!(f, "line {line}: {message}"),
            MlpParseError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for MlpParseError {}

impl From<std::io::Error> for MlpParseError {
    fn from(e: std::io::Error) -> Self {
        MlpParseError::Io(e.to_string())
    }
}

/// A load failure annotated with the artifact's source path and the
/// format/version string its header claimed, so a registry's
/// load-rejection log says *which file* in *which format* failed — a
/// bare [`MlpParseError`] only says what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpLoadError {
    /// Where the artifact was read from.
    pub path: String,
    /// Format/version string from the header line (e.g. `dlr-mlp v2`),
    /// or `unknown` when no recognisable header was present.
    pub version: String,
    /// The underlying parse failure.
    pub error: MlpParseError,
}

impl std::fmt::Display for MlpLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model artifact {} (format {}): {}",
            self.path, self.version, self.error
        )
    }
}

impl std::error::Error for MlpLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The format/version string an artifact's header line claims
/// (`dlr-mlp v2`), or `None` when the first line is not a readable
/// dlr-mlp header.
pub fn mlp_format_version(bytes: &[u8]) -> Option<&'static str> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(bytes.len());
    let header = std::str::from_utf8(bytes.get(..nl)?).ok()?;
    header.starts_with("dlr-mlp v2 ").then_some("dlr-mlp v2")
}

/// [`read_mlp`] from a filesystem path, with failures annotated with the
/// path and claimed format version (see [`MlpLoadError`]).
///
/// # Errors
/// [`MlpLoadError`] wrapping the underlying [`MlpParseError`] (including
/// I/O failures reading the file).
pub fn read_mlp_from_path(path: impl AsRef<std::path::Path>) -> Result<Mlp, MlpLoadError> {
    let shown = path.as_ref().display().to_string();
    let bytes = std::fs::read(path.as_ref()).map_err(|e| MlpLoadError {
        path: shown.clone(),
        version: "unknown".into(),
        error: MlpParseError::Io(e.to_string()),
    })?;
    read_mlp_bytes(&bytes).map_err(|error| MlpLoadError {
        path: shown,
        version: mlp_format_version(&bytes).unwrap_or("unknown").into(),
        error,
    })
}

fn act_name(a: Activation) -> &'static str {
    match a {
        Activation::Relu => "relu",
        Activation::Relu6 => "relu6",
        Activation::Identity => "identity",
    }
}

fn act_parse(s: &str) -> Option<Activation> {
    match s {
        "relu" => Some(Activation::Relu),
        "relu6" => Some(Activation::Relu6),
        "identity" => Some(Activation::Identity),
        _ => None,
    }
}

/// Write `mlp` in the v2 text format (checksummed payload).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_mlp<W: Write>(mlp: &Mlp, mut w: W) -> Result<(), MlpParseError> {
    let mut payload = Vec::new();
    writeln!(payload, "layers {}", mlp.layers().len())?;
    for (layer, act) in mlp.layers().iter().zip(mlp.activations()) {
        writeln!(
            payload,
            "layer {} {} {}",
            layer.in_features(),
            layer.out_features(),
            act_name(*act)
        )?;
        for r in 0..layer.out_features() {
            write!(payload, "w")?;
            for &v in layer.weights.row(r) {
                write!(payload, " {v}")?;
            }
            writeln!(payload)?;
        }
        write!(payload, "b")?;
        for &v in &layer.bias {
            write!(payload, " {v}")?;
        }
        writeln!(payload)?;
    }
    writeln!(
        w,
        "dlr-mlp v2 crc32 {:08x} len {}",
        crc32(&payload),
        payload.len()
    )?;
    w.write_all(&payload)?;
    Ok(())
}

/// Read an MLP written by [`write_mlp`].
///
/// # Errors
/// [`MlpParseError`] on any structural problem, checksum or length
/// mismatch, non-finite value, or unchained layer shapes.
pub fn read_mlp<R: BufRead>(mut r: R) -> Result<Mlp, MlpParseError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    read_mlp_bytes(&bytes)
}

/// [`read_mlp`] over an in-memory byte slice.
///
/// # Errors
/// Same as [`read_mlp`].
pub fn read_mlp_bytes(bytes: &[u8]) -> Result<Mlp, MlpParseError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(MlpParseError::BadHeader)?;
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| MlpParseError::BadHeader)?;
    let payload = &bytes[nl + 1..];
    let rest = header
        .strip_prefix("dlr-mlp v2 crc32 ")
        .ok_or(MlpParseError::BadHeader)?;
    let (crc_hex, len_part) = rest.split_once(" len ").ok_or(MlpParseError::BadHeader)?;
    let expected = u32::from_str_radix(crc_hex, 16).map_err(|_| MlpParseError::BadHeader)?;
    let expected_bytes: usize = len_part.parse().map_err(|_| MlpParseError::BadHeader)?;
    if payload.len() != expected_bytes {
        return Err(MlpParseError::Truncated {
            expected_bytes,
            actual_bytes: payload.len(),
        });
    }
    let found = crc32(payload);
    if found != expected {
        return Err(MlpParseError::ChecksumMismatch { expected, found });
    }
    let text = std::str::from_utf8(payload)
        .map_err(|e| MlpParseError::Io(format!("payload is not valid UTF-8: {e}")))?;
    parse_mlp_body(text)
}

/// Parse the line-oriented body (everything after the header line). Line
/// numbers in errors count from the start of the file, i.e. the first
/// body line is line 2.
fn parse_mlp_body(text: &str) -> Result<Mlp, MlpParseError> {
    let mut lines = text.lines();
    let mut lineno = 1usize; // the header was line 1
    let mut next = |lineno: &mut usize| -> Result<&str, MlpParseError> {
        *lineno += 1;
        lines.next().ok_or(MlpParseError::Malformed {
            line: *lineno,
            message: "unexpected end of file".into(),
        })
    };
    let bad = |line: usize, message: &str| MlpParseError::Malformed {
        line,
        message: message.to_string(),
    };

    let count_line = next(&mut lineno)?;
    let num_layers: usize = count_line
        .strip_prefix("layers ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad(lineno, "expected `layers <n>`"))?;
    if num_layers == 0 {
        return Err(bad(lineno, "network needs at least one layer"));
    }

    let parse_floats = |line: &str, prefix: &str, expected: usize, lineno: usize| {
        let rest = line
            .strip_prefix(prefix)
            .ok_or_else(|| bad(lineno, &format!("expected `{prefix}...`")))?;
        let vals: Result<Vec<f32>, _> = rest.split_whitespace().map(str::parse::<f32>).collect();
        let vals = vals.map_err(|_| bad(lineno, "bad float"))?;
        if vals.len() != expected {
            return Err(bad(
                lineno,
                &format!("expected {expected} values, got {}", vals.len()),
            ));
        }
        if let Some(i) = vals.iter().position(|v| !v.is_finite()) {
            return Err(MlpParseError::NonFinite {
                line: lineno,
                index: i + 1,
            });
        }
        Ok(vals)
    };

    let mut layers: Vec<Linear> = Vec::with_capacity(num_layers);
    let mut activations = Vec::with_capacity(num_layers);
    for _ in 0..num_layers {
        let header = next(&mut lineno)?;
        let p: Vec<&str> = header.split_whitespace().collect();
        if p.len() != 4 || p[0] != "layer" {
            return Err(bad(lineno, "expected `layer <in> <out> <activation>`"));
        }
        let in_f: usize = p[1].parse().map_err(|_| bad(lineno, "bad in_features"))?;
        let out_f: usize = p[2].parse().map_err(|_| bad(lineno, "bad out_features"))?;
        if in_f == 0 || out_f == 0 {
            return Err(bad(lineno, "layer dimensions must be positive"));
        }
        if let Some(prev) = layers.last() {
            if prev.out_features() != in_f {
                return Err(bad(
                    lineno,
                    &format!(
                        "layer input width {in_f} does not chain with previous output width {}",
                        prev.out_features()
                    ),
                ));
            }
        }
        let act = act_parse(p[3]).ok_or_else(|| bad(lineno, "unknown activation"))?;
        let mut weights = Vec::with_capacity(in_f * out_f);
        for _ in 0..out_f {
            let l = next(&mut lineno)?;
            weights.extend(parse_floats(l, "w", in_f, lineno)?);
        }
        let l = next(&mut lineno)?;
        let bias = parse_floats(l, "b", out_f, lineno)?;
        layers.push(Linear {
            weights: Matrix::from_vec(out_f, in_f, weights),
            bias,
        });
        activations.push(act);
    }
    Ok(Mlp::from_parts(layers, activations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// `body` under a valid v2 header: how the tests below hand the
    /// parser a malformed body that passes the length and checksum gate.
    fn sealed(body: &str) -> String {
        let (crc, len) = (crc32(body.as_bytes()), body.len());
        format!("dlr-mlp v2 crc32 {crc:08x} len {len}\n{body}")
    }

    #[test]
    fn roundtrip_is_exact() {
        let mlp = Mlp::from_hidden(7, &[5, 3], 42);
        let mut buf = Vec::new();
        write_mlp(&mlp, &mut buf).unwrap();
        let back = read_mlp(Cursor::new(&buf)).unwrap();
        assert_eq!(mlp, back);
        // Same predictions, bit for bit.
        let row = [0.3f32, -0.7, 1.5, 0.0, -2.0, 0.25, 4.0];
        assert_eq!(mlp.score(&row), back.score(&row));
    }

    #[test]
    fn roundtrip_preserves_pruned_zeros_and_activations() {
        let mut mlp = Mlp::from_hidden(4, &[6], 3);
        // Prune some weights to exact zeros.
        for (i, w) in mlp.layers_mut()[0]
            .weights
            .as_mut_slice()
            .iter_mut()
            .enumerate()
        {
            if i % 3 == 0 {
                *w = 0.0;
            }
        }
        let mut buf = Vec::new();
        write_mlp(&mlp, &mut buf).unwrap();
        let back = read_mlp(Cursor::new(&buf)).unwrap();
        assert_eq!(mlp, back);
        assert_eq!(back.layers()[0].sparsity(), mlp.layers()[0].sparsity());
        assert_eq!(back.activations(), mlp.activations());
    }

    #[test]
    fn v1_is_rejected() {
        let mlp = Mlp::from_hidden(3, &[4], 9);
        let mut buf = Vec::new();
        write_mlp(&mlp, &mut buf).unwrap();
        // The file as the retired v1 writer left it: plain header, no
        // length or checksum, identical body. Nothing vouches for the
        // body, so it does not load.
        let text = String::from_utf8(buf).unwrap();
        let body = text.split_once('\n').unwrap().1;
        let v1 = format!("dlr-mlp v1\n{body}");
        assert_eq!(
            read_mlp(Cursor::new(v1.as_bytes())).unwrap_err(),
            MlpParseError::BadHeader
        );
        assert_eq!(mlp_format_version(v1.as_bytes()), None);
        assert_eq!(read_mlp(Cursor::new(sealed(body))).unwrap(), mlp);
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(
            read_mlp(Cursor::new("pytorch\n")).unwrap_err(),
            MlpParseError::BadHeader
        );
    }

    #[test]
    fn payload_byte_flip_rejected_by_checksum() {
        let mlp = Mlp::from_hidden(4, &[3], 7);
        let mut buf = Vec::new();
        write_mlp(&mlp, &mut buf).unwrap();
        let header_end = buf.iter().position(|&b| b == b'\n').unwrap();
        let mid = header_end + 1 + (buf.len() - header_end - 1) / 2;
        buf[mid] ^= 0x01;
        let err = read_mlp(Cursor::new(&buf)).unwrap_err();
        assert!(
            matches!(err, MlpParseError::ChecksumMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn torn_write_rejected_by_length() {
        let mlp = Mlp::from_hidden(4, &[3], 7);
        let mut buf = Vec::new();
        write_mlp(&mlp, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_mlp(Cursor::new(&buf)).unwrap_err();
        assert!(
            matches!(err, MlpParseError::Truncated { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn non_finite_weights_rejected_with_context() {
        let mlp = Mlp::from_hidden(2, &[2], 1);
        let mut buf = Vec::new();
        write_mlp(&mlp, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let body = text.split_once('\n').unwrap().1;
        // Poison the second value of the first weight row, re-sealed so
        // the checksum does not trip first.
        let poisoned: Vec<String> = body
            .lines()
            .map(|l| {
                if l.starts_with("w ") {
                    let mut parts: Vec<&str> = l.split_whitespace().collect();
                    parts[2] = "NaN";
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect();
        let file = sealed(&format!("{}\n", poisoned.join("\n")));
        let err = read_mlp(Cursor::new(file)).unwrap_err();
        // Line 4 is the first weight row: header, `layers`, `layer`, `w`.
        assert_eq!(err, MlpParseError::NonFinite { line: 4, index: 2 });
    }

    #[test]
    fn unchained_layer_dims_rejected() {
        // layer 0 is 2→3 but layer 1 claims 4 inputs.
        let text = sealed("layers 2\nlayer 2 3 relu6\nw 1 2\nw 3 4\nw 5 6\nb 0 0 0\nlayer 4 1 identity\nw 1 2 3 4\nb 0\n");
        let err = read_mlp(Cursor::new(text)).unwrap_err();
        match err {
            MlpParseError::Malformed { line, message } => {
                assert_eq!(line, 8);
                assert!(message.contains("chain"), "{message}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn wrong_row_width_rejected() {
        let mlp = Mlp::from_hidden(2, &[2], 1);
        let mut buf = Vec::new();
        write_mlp(&mlp, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let body = text.split_once('\n').unwrap().1;
        // Drop one value from the first weight row (re-sealed, so the
        // structural error is reached rather than the checksum).
        let corrupted: Vec<String> = body
            .lines()
            .map(|l| {
                if l.starts_with("w ") {
                    l.rsplit_once(' ')
                        .map(|(a, _)| a.to_string())
                        .unwrap_or_else(|| l.into())
                } else {
                    l.to_string()
                }
            })
            .collect();
        let file = sealed(&corrupted.join("\n"));
        let err = read_mlp(Cursor::new(file)).unwrap_err();
        assert!(matches!(err, MlpParseError::Malformed { .. }));
    }

    #[test]
    fn path_load_error_names_file_and_version() {
        let mlp = Mlp::from_hidden(3, &[2], 5);
        let mut buf = Vec::new();
        write_mlp(&mlp, &mut buf).unwrap();
        let dir = std::env::temp_dir().join(format!("dlr-mlp-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Clean round trip through the path API.
        let good = dir.join("good.dlr");
        std::fs::write(&good, &buf).unwrap();
        assert_eq!(read_mlp_from_path(&good).unwrap(), mlp);

        // Checksum failure: Display carries path, format version, and the
        // underlying cause.
        let mut corrupt = buf.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        let bad = dir.join("corrupt.dlr");
        std::fs::write(&bad, &corrupt).unwrap();
        let err = read_mlp_from_path(&bad).unwrap_err();
        assert_eq!(err.version, "dlr-mlp v2");
        assert!(matches!(err.error, MlpParseError::ChecksumMismatch { .. }));
        let text = err.to_string();
        assert!(text.contains("corrupt.dlr"), "{text}");
        assert!(text.contains("dlr-mlp v2"), "{text}");
        assert!(text.contains("checksum"), "{text}");

        // Missing file: version unknown, path still named.
        let missing = dir.join("nope.dlr");
        let err = read_mlp_from_path(&missing).unwrap_err();
        assert_eq!(err.version, "unknown");
        assert!(matches!(err.error, MlpParseError::Io(_)));
        assert!(err.to_string().contains("nope.dlr"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_version_probes_the_header_only() {
        assert_eq!(
            mlp_format_version(b"dlr-mlp v2 crc32 00000000 len 0\n"),
            Some("dlr-mlp v2")
        );
        assert_eq!(mlp_format_version(b"dlr-mlp v1\nlayers 1\n"), None);
        assert_eq!(mlp_format_version(b"pytorch\n"), None);
        assert_eq!(mlp_format_version(b""), None);
    }

    #[test]
    fn truncated_rejected() {
        let mlp = Mlp::from_hidden(3, &[4, 2], 9);
        let mut buf = Vec::new();
        write_mlp(&mlp, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let half: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(read_mlp(Cursor::new(half)).is_err());
    }
}
