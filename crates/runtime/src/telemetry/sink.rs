//! Trace sinks: where captured step records go.
//!
//! An attached [`TraceSink`] is the executor's only consumer of
//! [`StepRecord`]s: while one is attached, the executor hands it every
//! step's record. With no sink attached the executor builds no records
//! at all, which keeps the zero-allocation hot path untouched. Sinks own
//! the wire-format encoder state (the previous step index for delta
//! coding), so the executor stays oblivious to the encoding. Two
//! implementations cover the spectrum:
//!
//! * [`MemorySink`] — encodes into an in-memory buffer; the unit-test
//!   and proptest workhorse, and the sink every replay records into.
//! * [`FileSink`] — encodes through a buffered writer into the trace
//!   file container (header, tagged step stream, digest footer), built
//!   for multi-million-step runs.
//!
//! A simulation owns its sink, so a caller that must read the records
//! during or after the run attaches a shared one: `Arc<Mutex<T>>` is a
//! sink whenever `T` is, and the caller keeps the other handle.
//!
//! [`TraceFileReader`] reads the container back, decoding records
//! lazily so replay memory stays proportional to the (compact) file,
//! not to the expanded record stream.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::trace::StepRecord;

use super::wire::{self, WireError};

/// Magic bytes opening a trace file: "SSTB" (Self-Stabilization Trace,
/// Binary).
pub const TRACE_MAGIC: [u8; 4] = *b"SSTB";

/// Current trace container version.
///
/// Version 2 changed the field set that
/// [`RunStats::digest`](crate::stats::RunStats::digest) folds into the
/// footer, so a version-1 footer cannot verify against a current replay.
pub const TRACE_VERSION: u8 = 2;

/// Tag byte preceding each encoded step in a trace file.
const TAG_STEP: u8 = 0x01;

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

/// Destination for captured step records.
///
/// # Contract
///
/// * The executor calls [`record_step`](TraceSink::record_step) once
///   per step, in step order, for every step run while the sink is
///   attached.
/// * [`finish`](TraceSink::finish) is called at most once, by the owner
///   that detached the sink, with the run's verification digests. I/O
///   errors encountered while recording may be deferred and reported
///   here.
pub trait TraceSink: Send {
    /// Consumes one step record.
    fn record_step(&mut self, record: &StepRecord);

    /// Seals the stream with the run's verification digests.
    fn finish(&mut self, footer: &TraceFooter) -> io::Result<()> {
        let _ = footer;
        Ok(())
    }
}

/// A shared sink records into the `T` behind the lock, so the caller can
/// keep one handle and read the records (for a [`MemorySink`],
/// [`MemorySink::decode_all`]) while a simulation owns the other. Every
/// call panics if a thread panicked while holding the lock.
impl<T: TraceSink> TraceSink for Arc<Mutex<T>> {
    fn record_step(&mut self, record: &StepRecord) {
        lock_shared(self).record_step(record);
    }

    fn finish(&mut self, footer: &TraceFooter) -> io::Result<()> {
        lock_shared(self).finish(footer)
    }
}

/// Locks a shared sink.
///
/// # Panics
///
/// Panics if a thread panicked while holding the lock: it may have left
/// a record half encoded.
pub(crate) fn lock_shared<T>(shared: &Mutex<T>) -> MutexGuard<'_, T> {
    shared
        .lock()
        .expect("a thread panicked while recording into this shared sink")
}

/// Sink encoding the step stream into an in-memory buffer.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    bytes: Vec<u8>,
    prev_step: Option<u64>,
    steps: u64,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The encoded step stream (no container header or footer).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of steps recorded.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Decodes the full stream back into records.
    pub fn decode_all(&self) -> Result<Vec<StepRecord>, WireError> {
        let mut records = Vec::new();
        let mut pos = 0;
        let mut prev = None;
        while pos < self.bytes.len() {
            let record = wire::decode_step(&self.bytes, &mut pos, prev)?;
            prev = Some(record.step);
            records.push(record);
        }
        Ok(records)
    }
}

impl TraceSink for MemorySink {
    fn record_step(&mut self, record: &StepRecord) {
        wire::encode_step(&mut self.bytes, self.prev_step, record);
        self.prev_step = Some(record.step);
        self.steps += 1;
    }
}

/// Sink streaming the trace file container through a buffered writer.
///
/// I/O errors during recording are stored and reported by
/// [`finish`](TraceSink::finish) (the executor's step path is
/// infallible), which also writes the end tag and footer and flushes.
#[derive(Debug)]
pub struct FileSink {
    writer: BufWriter<File>,
    scratch: Vec<u8>,
    prev_step: Option<u64>,
    steps: u64,
    deferred: Option<io::Error>,
    finished: bool,
}

impl FileSink {
    /// Creates `path` (truncating any existing file) and writes the
    /// container header.
    pub fn create(path: &Path, header: &TraceHeader) -> io::Result<Self> {
        let mut writer = BufWriter::new(File::create(path)?);
        writer.write_all(&TRACE_MAGIC)?;
        writer.write_all(&[TRACE_VERSION])?;
        let mut buf = Vec::new();
        wire::put_varint(&mut buf, header.node_count);
        wire::put_varint(&mut buf, header.seed);
        wire::put_varint(&mut buf, header.meta.len() as u64);
        buf.extend_from_slice(header.meta.as_bytes());
        writer.write_all(&buf)?;
        Ok(FileSink {
            writer,
            scratch: Vec::new(),
            prev_step: None,
            steps: 0,
            deferred: None,
            finished: false,
        })
    }

    /// Number of steps recorded so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

impl TraceSink for FileSink {
    fn record_step(&mut self, record: &StepRecord) {
        if self.deferred.is_some() {
            return;
        }
        self.scratch.clear();
        self.scratch.push(TAG_STEP);
        wire::encode_step(&mut self.scratch, self.prev_step, record);
        self.prev_step = Some(record.step);
        self.steps += 1;
        if let Err(err) = self.writer.write_all(&self.scratch) {
            self.deferred = Some(err);
        }
    }

    fn finish(&mut self, footer: &TraceFooter) -> io::Result<()> {
        if let Some(err) = self.deferred.take() {
            return Err(err);
        }
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        self.scratch.clear();
        self.scratch.push(TAG_END);
        wire::put_varint(&mut self.scratch, footer.steps);
        self.scratch
            .extend_from_slice(&footer.stats_digest.to_le_bytes());
        self.scratch
            .extend_from_slice(&footer.config_digest.to_le_bytes());
        self.writer.write_all(&self.scratch)?;
        self.writer.flush()
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

/// Lazy reader over a trace file written by [`FileSink`].
///
/// Holds the raw (compact) bytes and decodes one record per
/// [`next_step`](TraceFileReader::next_step) call; the footer becomes
/// available once the end tag has been consumed.
#[derive(Debug)]
pub struct TraceFileReader {
    bytes: Vec<u8>,
    pos: usize,
    header: TraceHeader,
    prev_step: Option<u64>,
    steps_read: u64,
    footer: Option<TraceFooter>,
}

impl TraceFileReader {
    /// Opens and validates `path`, reading the header eagerly.
    pub fn open(path: &Path) -> Result<Self, TraceReadError> {
        let bytes = std::fs::read(path)?;
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
        // The length is untrusted: bound it by the bytes actually left
        // before using it as an offset.
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
        Ok(TraceFileReader {
            bytes,
            pos,
            header: TraceHeader {
                node_count,
                seed,
                meta,
            },
            prev_step: None,
            steps_read: 0,
            footer: None,
        })
    }

    /// The recorded run's identity.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Total size of the container in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The verification footer; `Some` only after the whole stream has
    /// been consumed by [`next_step`](TraceFileReader::next_step).
    pub fn footer(&self) -> Option<&TraceFooter> {
        self.footer.as_ref()
    }

    /// Decodes the next step record, or `Ok(None)` once the end tag and
    /// footer have been reached.
    pub fn next_step(&mut self) -> Result<Option<StepRecord>, TraceReadError> {
        if self.footer.is_some() {
            return Ok(None);
        }
        let tag_offset = self.pos;
        let &tag = self
            .bytes
            .get(self.pos)
            .ok_or(WireError::UnexpectedEof { offset: tag_offset })?;
        self.pos += 1;
        match tag {
            TAG_STEP => {
                let record = wire::decode_step(&self.bytes, &mut self.pos, self.prev_step)?;
                self.prev_step = Some(record.step);
                self.steps_read += 1;
                Ok(Some(record))
            }
            TAG_END => {
                let steps = wire::read_varint(&self.bytes, &mut self.pos)?;
                let stats_digest = self.read_u64_le()?;
                let config_digest = self.read_u64_le()?;
                if steps != self.steps_read {
                    return Err(TraceReadError::Container(format!(
                        "footer claims {steps} steps but the stream held {}",
                        self.steps_read
                    )));
                }
                self.footer = Some(TraceFooter {
                    steps,
                    stats_digest,
                    config_digest,
                });
                Ok(None)
            }
            other => Err(TraceReadError::Container(format!(
                "unknown record tag 0x{other:02x} at byte {tag_offset}"
            ))),
        }
    }

    /// Decodes every remaining record eagerly.
    pub fn read_to_end(&mut self) -> Result<Vec<StepRecord>, TraceReadError> {
        let mut records = Vec::new();
        while let Some(record) = self.next_step()? {
            records.push(record);
        }
        Ok(records)
    }

    fn read_u64_le(&mut self) -> Result<u64, TraceReadError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 8)
            .ok_or(WireError::UnexpectedEof {
                offset: self.bytes.len(),
            })?;
        self.pos += 8;
        Ok(u64::from_le_bytes(slice.try_into().expect("8-byte slice")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::{NodeId, Port};

    fn sample_records() -> Vec<StepRecord> {
        use crate::trace::ActivationRecord;
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
    fn memory_sink_round_trips() {
        let records = sample_records();
        let mut sink = MemorySink::new();
        for r in &records {
            sink.record_step(r);
        }
        assert_eq!(sink.steps(), records.len() as u64);
        assert_eq!(sink.decode_all().expect("decodes"), records);
    }

    #[test]
    fn shared_sink_records_into_the_sink_behind_the_lock() {
        let records = sample_records();
        let shared = Arc::new(Mutex::new(MemorySink::new()));
        let mut owned: Box<dyn TraceSink> = Box::new(Arc::clone(&shared));
        for r in &records {
            owned.record_step(r);
        }
        assert_eq!(lock_shared(&shared).decode_all().expect("decodes"), records);
    }

    #[test]
    fn file_sink_round_trips_with_header_and_footer() {
        let path =
            std::env::temp_dir().join(format!("sstb_sink_test_{}.trace", std::process::id()));
        let header = TraceHeader {
            node_count: 6,
            seed: 42,
            meta: "workload=ring(6);daemon=test".to_string(),
        };
        let records = sample_records();
        let mut sink = FileSink::create(&path, &header).expect("creates");
        for r in &records {
            sink.record_step(r);
        }
        let footer = TraceFooter {
            steps: records.len() as u64,
            stats_digest: 0xdead_beef,
            config_digest: 0xfeed_face,
        };
        sink.finish(&footer).expect("finishes");

        let mut reader = TraceFileReader::open(&path).expect("opens");
        assert_eq!(reader.header(), &header);
        assert!(reader.footer().is_none(), "footer only after the stream");
        let decoded = reader.read_to_end().expect("decodes");
        assert_eq!(decoded, records);
        assert_eq!(reader.footer(), Some(&footer));
        assert!(matches!(reader.next_step(), Ok(None)), "reader is fused");
        std::fs::remove_file(&path).ok();
    }

    /// Writes `bytes` to a fresh temporary file and opens it as a trace.
    fn open_bytes(name: &str, bytes: &[u8]) -> Result<TraceFileReader, TraceReadError> {
        let path =
            std::env::temp_dir().join(format!("sstb_sink_{name}_{}.trace", std::process::id()));
        std::fs::write(&path, bytes).expect("writes");
        let opened = TraceFileReader::open(&path);
        std::fs::remove_file(&path).ok();
        opened
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
            open_bytes("metalen", &bytes),
            Err(TraceReadError::Wire(WireError::Malformed { .. }))
        ));
    }

    #[test]
    fn reader_rejects_version_1_files() {
        // A version-1 footer digests a different stats field set.
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&[1, 1, 0, 0, TAG_END]);
        match open_bytes("v1", &bytes) {
            Err(TraceReadError::Container(reason)) => {
                assert!(reason.contains("unsupported trace version"), "{reason}");
            }
            other => panic!("expected an unsupported-version error, got {other:?}"),
        }
    }

    #[test]
    fn reader_rejects_non_trace_files() {
        assert!(matches!(
            open_bytes("badmagic", b"not a trace"),
            Err(TraceReadError::Container(_))
        ));
    }
}
