//! The SSTB trace file around a [`Trace`].
//!
//! A trace holds exactly a trace file's tagged step stream (the [`wire`]
//! format), so [`Trace::write_file`] writes a whole file in one call, and
//! [`read_trace_file`] reads one back into its header, the checked step
//! stream as a trace, and its footer:
//!
//! ```text
//! "SSTB"  magic
//! 0x02    version
//! header  varint node_count, varint seed, varint meta length, meta (UTF-8)
//! 0x01    step record (wire format), once per step: the Trace's bytes
//! 0x00    end tag
//! footer  varint steps, u64 LE stats digest, u64 LE config digest
//! ```

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use super::wire::{self, Trace, WireError, TAG_STEP};

/// Magic bytes opening a trace file: "SSTB" (Self-Stabilization Trace,
/// Binary).
pub const TRACE_MAGIC: [u8; 4] = *b"SSTB";

/// Current trace container version.
///
/// Version 2 changed the field set that
/// [`RunStats::digest`](crate::stats::RunStats::digest) folds into the
/// footer, so a version-1 footer cannot verify against a current replay.
pub const TRACE_VERSION: u8 = 2;

/// Tag byte closing the step stream; the footer follows.
const TAG_END: u8 = 0x00;

/// Identity of a recorded run, stored in the trace file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Number of processes in the recorded system.
    pub node_count: u64,
    /// Seed the recorded `Simulation` was constructed with.
    pub seed: u64,
    /// Free-form recorder metadata (workload label, daemon, fault plan,
    /// ...). Replay drivers parse this to reconstruct the run; the
    /// container itself does not interpret it.
    pub meta: String,
}

/// Verification digests written after the last step.
///
/// A replayer recomputes both digests from its own run and compares;
/// any mismatch is a divergence even if the step stream matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFooter {
    /// Number of steps recorded.
    pub steps: u64,
    /// [`RunStats::digest`](crate::stats::RunStats::digest) of the
    /// recorded run.
    pub stats_digest: u64,
    /// Digest of the final configuration (protocol-specific; see the
    /// recorder that produced the file).
    pub config_digest: u64,
}

impl Trace {
    /// Writes the trace file at `path` (truncating any existing file):
    /// `header`, the recorded steps, and `footer`.
    pub fn write_file(
        &self,
        path: &Path,
        header: &TraceHeader,
        footer: &TraceFooter,
    ) -> io::Result<()> {
        let mut head = TRACE_MAGIC.to_vec();
        head.push(TRACE_VERSION);
        wire::put_varint(&mut head, header.node_count);
        wire::put_varint(&mut head, header.seed);
        wire::put_varint(&mut head, header.meta.len() as u64);
        head.extend_from_slice(header.meta.as_bytes());
        let mut tail = vec![TAG_END];
        wire::put_varint(&mut tail, footer.steps);
        tail.extend_from_slice(&footer.stats_digest.to_le_bytes());
        tail.extend_from_slice(&footer.config_digest.to_le_bytes());
        let mut file = File::create(path)?;
        file.write_all(&head)?;
        file.write_all(self.bytes())?;
        file.write_all(&tail)
    }
}

/// Error reading a trace file: I/O or a malformed byte stream.
#[derive(Debug)]
pub enum TraceReadError {
    /// The underlying file could not be read.
    Io(io::Error),
    /// The byte stream violates the container or wire format.
    Wire(WireError),
    /// The file is not a trace container (bad magic) or an unsupported
    /// version.
    Container(String),
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Io(err) => write!(f, "trace file i/o error: {err}"),
            TraceReadError::Wire(err) => write!(f, "trace file decode error: {err}"),
            TraceReadError::Container(reason) => write!(f, "not a trace file: {reason}"),
        }
    }
}

impl std::error::Error for TraceReadError {}

impl From<io::Error> for TraceReadError {
    fn from(err: io::Error) -> Self {
        TraceReadError::Io(err)
    }
}

impl From<WireError> for TraceReadError {
    fn from(err: WireError) -> Self {
        TraceReadError::Wire(err)
    }
}

/// Reads the trace file at `path` whole: its header, its step stream as a
/// [`Trace`], and its footer.
///
/// The bytes are untrusted. The file must open with the SSTB magic and
/// version 2, every varint must be minimal, its metadata length must fit
/// in the file and its metadata be UTF-8, every record must carry the step
/// tag and be exactly what the encoder writes for it (see
/// [`wire`] and [`WireError`]), the stream must end with the end tag, the
/// footer's step count must equal the number of records, and the footer
/// must end the file; otherwise the read fails with the first violation.
/// One pass makes these checks, and the file's buffer, cut to the step
/// stream, becomes the trace: nothing is decoded into records.
pub fn read_trace_file(path: &Path) -> Result<(TraceHeader, Trace, TraceFooter), TraceReadError> {
    let mut bytes = std::fs::read(path)?;
    if bytes.len() < 5 || bytes[..4] != TRACE_MAGIC {
        return Err(TraceReadError::Container(format!(
            "{} lacks the SSTB magic",
            path.display()
        )));
    }
    if bytes[4] != TRACE_VERSION {
        return Err(TraceReadError::Container(format!(
            "unsupported trace version {} (supported: {TRACE_VERSION})",
            bytes[4]
        )));
    }
    let mut pos = 5;
    let node_count = wire::read_varint(&bytes, &mut pos)?;
    let seed = wire::read_varint(&bytes, &mut pos)?;
    let meta_offset = pos;
    let meta_len = wire::read_varint(&bytes, &mut pos)?;
    // The length is untrusted: bound it by the bytes actually left before
    // using it as an offset.
    let meta_end = usize::try_from(meta_len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .filter(|&end| end <= bytes.len())
        .ok_or(WireError::Malformed {
            offset: meta_offset,
            what: "header metadata length (exceeds the file)",
        })?;
    let meta = String::from_utf8(bytes[pos..meta_end].to_vec())
        .map_err(|_| TraceReadError::Container("header metadata is not UTF-8".to_string()))?;
    pos = meta_end;
    let header = TraceHeader {
        node_count,
        seed,
        meta,
    };

    let stream_start = pos;
    let (mut steps, mut last_step) = (0u64, None);
    loop {
        match bytes.get(pos) {
            Some(&TAG_STEP) => {
                pos += 1;
                last_step = Some(wire::parse_step(&bytes, &mut pos, last_step, &mut ())?);
                steps += 1;
            }
            Some(&TAG_END) => break,
            None => return Err(WireError::UnexpectedEof { offset: pos }.into()),
            Some(other) => {
                return Err(TraceReadError::Container(format!(
                    "unknown record tag 0x{other:02x} at byte {pos}"
                )))
            }
        }
    }
    let stream_end = pos;
    pos += 1;
    let footer = TraceFooter {
        steps: wire::read_varint(&bytes, &mut pos)?,
        stats_digest: read_u64_le(&bytes, &mut pos)?,
        config_digest: read_u64_le(&bytes, &mut pos)?,
    };
    if footer.steps != steps {
        return Err(TraceReadError::Container(format!(
            "footer claims {} steps but the stream held {steps}",
            footer.steps
        )));
    }
    if pos != bytes.len() {
        return Err(TraceReadError::Container(format!(
            "the file runs {} bytes past its footer",
            bytes.len() - pos
        )));
    }
    bytes.truncate(stream_end);
    bytes.drain(..stream_start);
    Ok((header, Trace::from_checked(bytes, steps, last_step), footer))
}

/// Reads a little-endian `u64` at `*pos`, advancing the cursor.
fn read_u64_le(input: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let field = input.get(*pos..*pos + 8).ok_or(WireError::UnexpectedEof {
        offset: input.len(),
    })?;
    *pos += 8;
    Ok(u64::from_le_bytes(
        field.try_into().expect("an 8-byte slice"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ActivationRecord, StepRecord};
    use selfstab_graph::{NodeId, Port};

    fn sample_records() -> Vec<StepRecord> {
        (0..5)
            .map(|step| StepRecord {
                step,
                activations: (0..=(step as usize % 3))
                    .map(|p| ActivationRecord {
                        process: NodeId::new(p * 2),
                        executed: p % 2 == 0,
                        reads: (0..p).map(Port::new).collect(),
                        comm_changed: step % 2 == 1,
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn trace_round_trips() {
        let records = sample_records();
        let mut trace = Trace::new();
        for r in &records {
            trace.push(r);
        }
        assert_eq!(trace.steps(), records.len() as u64);
        assert_eq!(trace.records(), records);
    }

    /// A temporary file path unique to this test process and `name`.
    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sstb_{name}_{}.trace", std::process::id()))
    }

    #[test]
    fn trace_file_is_the_trace_between_header_and_footer() {
        let path = temp_path("file_round_trip");
        let header = TraceHeader {
            node_count: 6,
            seed: 42,
            meta: "workload=ring(6);daemon=test".to_string(),
        };
        let records = sample_records();
        let mut trace = Trace::new();
        for r in &records {
            trace.push(r);
        }
        let footer = TraceFooter {
            steps: records.len() as u64,
            stats_digest: 0xdead_beef,
            config_digest: 0xfeed_face,
        };
        trace.write_file(&path, &header, &footer).expect("writes");

        let bytes = std::fs::read(&path).expect("reads back");
        // Magic, version, three one-byte varints and the metadata; the end
        // tag, a one-byte step count and two digests.
        let head = 5 + 3 + header.meta.len();
        assert_eq!(&bytes[head..bytes.len() - 18], trace.bytes());
        let (read_header, read_trace, read_footer) = read_trace_file(&path).expect("reads");
        assert_eq!(read_header, header);
        assert_eq!(read_trace.bytes(), trace.bytes());
        assert_eq!(read_trace.steps(), trace.steps());
        assert_eq!(read_trace.records(), records);
        assert_eq!(read_footer, footer);
        std::fs::remove_file(&path).ok();
    }

    /// Writes `bytes` to a fresh temporary file and reads it as a trace.
    fn read_bytes(
        name: &str,
        bytes: &[u8],
    ) -> Result<(TraceHeader, Trace, TraceFooter), TraceReadError> {
        let path = temp_path(name);
        std::fs::write(&path, bytes).expect("writes");
        let read = read_trace_file(&path);
        std::fs::remove_file(&path).ok();
        read
    }

    /// A sealed file holding `trace`, with `footer_steps` in its footer.
    fn file_bytes(trace: &Trace, footer_steps: u64) -> Vec<u8> {
        let path = temp_path(&format!("file_bytes_{footer_steps}"));
        let header = TraceHeader {
            node_count: 6,
            seed: 1,
            meta: String::new(),
        };
        let footer = TraceFooter {
            steps: footer_steps,
            stats_digest: 0,
            config_digest: 0,
        };
        trace.write_file(&path, &header, &footer).expect("writes");
        let bytes = std::fs::read(&path).expect("reads back");
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn reader_rejects_a_metadata_length_past_the_end_of_the_file() {
        // Magic, version, node count 1, seed 0, then the 10-byte varint
        // `u64::MAX` as the metadata length: 17 bytes in all.
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.push(TRACE_VERSION);
        bytes.push(1);
        bytes.push(0);
        wire::put_varint(&mut bytes, u64::MAX);
        assert_eq!(bytes.len(), 17);
        assert!(matches!(
            read_bytes("metalen", &bytes),
            Err(TraceReadError::Wire(WireError::Malformed { .. }))
        ));
    }

    #[test]
    fn reader_rejects_version_1_files() {
        // A version-1 footer digests a different stats field set.
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&[1, 1, 0, 0, TAG_END]);
        match read_bytes("v1", &bytes) {
            Err(TraceReadError::Container(reason)) => {
                assert!(reason.contains("unsupported trace version"), "{reason}");
            }
            other => panic!("expected an unsupported-version error, got {other:?}"),
        }
    }

    #[test]
    fn reader_rejects_non_trace_files() {
        assert!(matches!(
            read_bytes("badmagic", b"not a trace"),
            Err(TraceReadError::Container(_))
        ));
    }

    #[test]
    fn reader_rejects_unknown_tags_a_missing_end_a_wrong_step_count_and_a_long_tail() {
        let mut trace = Trace::new();
        for r in &sample_records() {
            trace.push(r);
        }
        let steps = trace.steps();
        assert!(read_bytes("sealed", &file_bytes(&trace, steps)).is_ok());

        let mut bytes = file_bytes(&trace, steps);
        let end = bytes.len() - 18;
        bytes[end] = 0x02;
        match read_bytes("tag", &bytes) {
            Err(TraceReadError::Container(reason)) => {
                assert!(reason.contains("unknown record tag 0x02"), "{reason}");
            }
            other => panic!("expected an unknown-tag error, got {other:?}"),
        }
        bytes.truncate(end);
        assert!(matches!(
            read_bytes("no_end", &bytes),
            Err(TraceReadError::Wire(WireError::UnexpectedEof { .. }))
        ));
        match read_bytes("count", &file_bytes(&trace, steps + 1)) {
            Err(TraceReadError::Container(reason)) => {
                assert!(reason.contains("footer claims 6 steps"), "{reason}");
            }
            other => panic!("expected a step-count error, got {other:?}"),
        }
        let mut bytes = file_bytes(&trace, steps);
        bytes.push(TAG_END);
        match read_bytes("tail", &bytes) {
            Err(TraceReadError::Container(reason)) => {
                assert!(reason.contains("1 bytes past its footer"), "{reason}");
            }
            other => panic!("expected a trailing-bytes error, got {other:?}"),
        }
    }

    #[test]
    fn reader_rejects_metadata_that_is_not_utf8() {
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&[TRACE_VERSION, 6, 1, 2, 0xff, 0xfe, TAG_END, 0]);
        bytes.extend_from_slice(&[0; 16]);
        match read_bytes("utf8", &bytes) {
            Err(TraceReadError::Container(reason)) => {
                assert!(reason.contains("not UTF-8"), "{reason}");
            }
            other => panic!("expected a metadata error, got {other:?}"),
        }
    }

    /// A sealed file of one step, whose header fields after the version
    /// are `head` and whose record after its tag is `record`.
    fn one_step_file(head: &[u8], record: &[u8]) -> Vec<u8> {
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.push(TRACE_VERSION);
        bytes.extend_from_slice(head);
        bytes.push(TAG_STEP);
        bytes.extend_from_slice(record);
        bytes.extend_from_slice(&[TAG_END, 1]);
        bytes.extend_from_slice(&[0; 16]);
        bytes
    }

    #[test]
    fn reader_rejects_every_encoding_the_encoder_does_not_write() {
        // Node count 6, seed 1, no metadata.
        let head = [6, 1, 0];
        // Step 0 selects process 0 with the given executed and comm
        // bitsets, and its read set is `reads` (a tag and its payload).
        let record = |flags: [u8; 2], reads: &[u8]| [&[0, 1, 0][..], &flags, reads].concat();
        // What the encoder writes for step 0 when process 0 read `ports`.
        let encoded = |ports: &[usize]| {
            let mut trace = Trace::new();
            trace.push(&StepRecord {
                step: 0,
                activations: vec![ActivationRecord {
                    process: NodeId::new(0),
                    executed: false,
                    reads: ports.iter().map(|&p| Port::new(p)).collect(),
                    comm_changed: false,
                }],
            });
            trace.bytes()[1..].to_vec()
        };
        // Ports 1 and 900 as a 113-byte bitmap (tag 226), which the list
        // form (tag 5, deltas 1 and 899) undercuts.
        let mut wide_bitmap = vec![0xe2, 0x01];
        wide_bitmap.resize(2 + 113, 0);
        wide_bitmap[2] = 1 << 1;
        wide_bitmap[2 + 112] = 1 << (900 % 8);
        let dense = [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11];
        // Each case: a file the encoder does not write, the violation, and
        // the file the encoder writes for the same run, which reads.
        let cases = [
            (
                one_step_file(&head, &[0x80, 0x00, 1, 0, 0, 0, 1]),
                "varint (overlong)",
                one_step_file(&head, &encoded(&[])),
            ),
            (
                one_step_file(&[0x86, 0x00, 1, 0], &encoded(&[])),
                "varint (overlong)",
                one_step_file(&head, &encoded(&[])),
            ),
            (
                one_step_file(&head, &record([0b10, 0], &[1])),
                "bitset (a padding bit is set)",
                one_step_file(&head, &record([0, 0], &[1])),
            ),
            (
                one_step_file(&head, &record([0, 0x80], &[1])),
                "bitset (a padding bit is set)",
                one_step_file(&head, &record([0, 0], &[1])),
            ),
            (
                one_step_file(&head, &record([0, 0], &[4, 0b1, 0])),
                "reads bitmap (a trailing zero byte)",
                one_step_file(&head, &encoded(&[0])),
            ),
            (
                one_step_file(&head, &record([0, 0], &wide_bitmap)),
                "reads bitmap (the list form is shorter)",
                one_step_file(&head, &encoded(&[1, 900])),
            ),
            (
                one_step_file(
                    &head,
                    &record([0, 0], &[23, 0, 2, 2, 2, 2, 2, 2, 2, 4, 2, 2]),
                ),
                "reads list (the bitmap form is no longer)",
                one_step_file(&head, &encoded(&dense)),
            ),
        ];
        assert_eq!(encoded(&[]), record([0, 0], &[1]));
        assert_eq!(encoded(&[0]), record([0, 0], &[2, 0b1]));
        assert_eq!(encoded(&[1, 900]), record([0, 0], &[5, 2, 0x86, 0x0e]));
        assert_eq!(encoded(&dense), record([0, 0], &[4, 0xff, 0b1110]));
        for (i, (bad, violation, good)) in cases.iter().enumerate() {
            match read_bytes(&format!("noncanonical_{i}"), bad) {
                Err(TraceReadError::Wire(WireError::Malformed { what, .. })) => {
                    assert_eq!(what, *violation, "case {i}");
                }
                other => panic!("case {i}: expected {violation:?}, got {other:?}"),
            }
            assert!(
                read_bytes(&format!("canonical_{i}"), good).is_ok(),
                "case {i}: the encoder's file reads"
            );
        }
    }
}
