//! Compact binary wire format for step records, the [`Trace`] that
//! encodes them, and the one parser that reads them back.
//!
//! One step record is encoded as:
//!
//! ```text
//! step      : zigzag varint delta from the previous record's step
//!             (the first record in a stream encodes its step absolutely)
//! count     : varint, number of activations
//! processes : `count` zigzag varint deltas between consecutive process
//!             ids (first absolute); the executor emits selections in
//!             strictly increasing id order, so gaps are small and
//!             usually one byte
//! executed  : ceil(count / 8) bytes, bit i = activation i executed
//! comm      : ceil(count / 8) bytes, bit i = activation i changed its
//!             communication state
//! reads     : per activation, a varint tag followed by the payload:
//!             tag = 1            — no reads
//!             tag = 2 * m (m>0)  — port bitmap of `m` bytes (used only
//!                                  when the reads are strictly
//!                                  ascending, so decoding preserves
//!                                  the recorded order)
//!             tag = 2 * r + 1    — list of `r` ports as zigzag varint
//!                                  deltas (first absolute), preserving
//!                                  first-read order
//! ```
//!
//! [`Trace`] is the one encoder, and the executor never builds a record:
//! it opens a step's record once the selection is known (everything up to
//! the zeroed bitsets), and each activation sets its two bits and appends
//! its reads as it finishes.
//!
//! The codec is lossless for *arbitrary* records (steps may go backwards,
//! processes may repeat, reads may arrive in any order): delta encoding
//! uses wrapping zigzag differences, and the bitmap form is only chosen
//! when it is both valid (strictly ascending reads) and smaller than the
//! list form. Encoding a record produced by the executor therefore costs
//! a handful of bytes per activation instead of the tens of bytes of its
//! JSON rendering.
//!
//! Each record has exactly one encoding, given the step before it: every
//! varint is minimal, the padding bits of both bitsets are zero, and each
//! read set takes the form the encoder picks for it. `parse_step`, the
//! one parser, checks all of this as it walks a record and allocates
//! nothing, so equal records have equal bytes and two records compare by
//! their bytes.

use selfstab_graph::{NodeId, Port};

use crate::trace::StepRecord;

/// Decoding error: the input is truncated or structurally malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended in the middle of a record.
    UnexpectedEof {
        /// Byte offset at which more input was expected.
        offset: usize,
    },
    /// A varint ran past 10 bytes, a field held an impossible value, or
    /// the bytes are not what the encoder writes for the value they hold.
    Malformed {
        /// Byte offset of the offending field.
        offset: usize,
        /// What the decoder was reading.
        what: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof { offset } => {
                write!(f, "trace stream truncated at byte {offset}")
            }
            WireError::Malformed { offset, what } => {
                write!(f, "malformed {what} at byte {offset}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `value` to `buf` as an LEB128 varint (7 bits per byte, low
/// bits first, high bit of each byte marks continuation).
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `input` at `*pos`, advancing the cursor.
///
/// Only the minimal form [`put_varint`] writes is accepted: a last byte
/// of zero after the first, such as `0x80 0x00` for 0, is malformed.
pub fn read_varint(input: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let start = *pos;
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = input
            .get(*pos)
            .ok_or(WireError::UnexpectedEof { offset: *pos })?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(WireError::Malformed {
                offset: start,
                what: "varint (overflows u64)",
            });
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(WireError::Malformed {
                    offset: start,
                    what: "varint (overlong)",
                });
            }
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::Malformed {
                offset: start,
                what: "varint (longer than 10 bytes)",
            });
        }
    }
}

/// Widest bitmap read set a record may carry: one bit per port of the
/// `u32` port space.
const MAX_BITMAP_BYTES: u64 = (Port::MAX_INDEX as u64 + 1) / 8;

/// Maps a signed delta onto an unsigned varint-friendly value
/// (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends the wrapping difference `to - from` as a zigzag varint.
fn put_delta(buf: &mut Vec<u8>, from: u64, to: u64) {
    put_varint(buf, zigzag(to.wrapping_sub(from) as i64));
}

/// Reads a zigzag varint delta and applies it to `from` (wrapping).
fn read_delta(input: &[u8], pos: &mut usize, from: u64) -> Result<u64, WireError> {
    let delta = read_varint(input, pos)?;
    Ok(from.wrapping_add(unzigzag(delta) as u64))
}

/// Number of bytes the zigzag varint of `to - from` occupies.
fn delta_len(from: u64, to: u64) -> usize {
    let v = zigzag(to.wrapping_sub(from) as i64);
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Returns `Some(bitmap_bytes)` when `reads` is strictly ascending, i.e.
/// eligible for the bitmap form (the bitmap's natural decode order is
/// ascending, so only then does it reproduce the recorded order).
fn bitmap_len(reads: &[Port]) -> Option<usize> {
    let mut prev: Option<usize> = None;
    for port in reads {
        if prev.is_some_and(|p| p >= port.index()) {
            return None;
        }
        prev = Some(port.index());
    }
    prev.map(|max| max / 8 + 1)
}

/// Byte cost of the list form of `reads` (excluding the tag).
fn list_len(reads: &[Port]) -> usize {
    let mut prev = 0u64;
    let mut total = 0;
    for port in reads {
        total += delta_len(prev, port.index() as u64);
        prev = port.index() as u64;
    }
    total
}

/// Whether `encode_reads` writes a strictly ascending read set of `ports`
/// ports as a bitmap of `bitmap` bytes rather than as a list whose deltas
/// take `list` bytes: when the bitmap costs no more, tags included, so a
/// tie goes to the bitmap, which decodes without per-port varint work.
/// Each tag is costed as `delta_len(0, tag)`, which can exceed its varint
/// length by a byte; costing it otherwise would move some read sets to
/// the other form, and so change recorded traces. The parser applies the
/// same rule, so it decides which form is canonical.
fn bitmap_is_chosen(bitmap: usize, ports: usize, list: usize) -> bool {
    delta_len(0, 2 * bitmap as u64) + bitmap <= delta_len(0, (2 * ports + 1) as u64) + list
}

/// Tag byte preceding each step record of a [`Trace`], and so of a trace
/// file's step stream.
pub(super) const TAG_STEP: u8 = 0x01;

/// A recorded step stream, encoded as it is recorded: per step, the step
/// tag and the step's record. It is a trace file's tagged step stream,
/// between the file's header and its end tag.
///
/// A recording simulation encodes into its trace without building a
/// [`StepRecord`], and [`push`](Trace::push) encodes a decoded record
/// through the same calls. [`read_trace_file`](super::read_trace_file)
/// reads a checked stream into a trace, [`write_file`](Trace::write_file)
/// writes one as a trace file, and [`records`](Trace::records) decodes
/// one.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    bytes: Vec<u8>,
    steps: u64,
    /// Step index of the last record opened, which the next one is
    /// delta-coded against.
    prev_step: Option<u64>,
    /// The last record opened: the offset of its bitsets, its activation
    /// count, and how many of its activations are written.
    flags_at: usize,
    count: usize,
    written: usize,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// The trace of a tagged step stream that [`parse_step`] accepted
    /// record by record: `steps` records, the last of which has step index
    /// `last_step`.
    pub(super) fn from_checked(bytes: Vec<u8>, steps: u64, last_step: Option<u64>) -> Trace {
        Trace {
            bytes,
            steps,
            prev_step: last_step,
            ..Trace::default()
        }
    }

    /// The encoded step stream: per step, the step tag and the step's
    /// wire encoding.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of steps recorded.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Appends `record`, encoded through the calls a recording simulation
    /// makes.
    pub fn push(&mut self, record: &StepRecord) {
        self.open_step(record.step, record.activations.iter().map(|a| a.process));
        for a in &record.activations {
            self.push_activation(a.executed, a.comm_changed, &a.reads);
        }
    }

    /// Drops the encoded records but keeps the encoder's state, so the
    /// next record is encoded as it would follow them. Replay keeps only
    /// its newest record this way.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
    }

    /// Parses the tagged record at `*pos`, which follows a record of step
    /// `prev_step` (`None` for the first), advancing the cursor past it;
    /// `visitor` receives its fields. Returns its step index.
    ///
    /// Panics if no record starts at `*pos`: a trace holds only what its
    /// encoder wrote, or a stream [`parse_step`] accepted.
    pub(crate) fn parse_record(
        &self,
        pos: &mut usize,
        prev_step: Option<u64>,
        visitor: &mut impl StepVisitor,
    ) -> u64 {
        assert_eq!(
            self.bytes.get(*pos),
            Some(&TAG_STEP),
            "a trace holds only tagged step records"
        );
        *pos += 1;
        parse_step(&self.bytes, pos, prev_step, visitor)
            .expect("a trace holds only what its encoder wrote")
    }

    /// Opens the record of step `step`, whose activations are those of
    /// the `selected` processes, in order: the step tag, the step index
    /// (delta-coded against the previous record's; the first is absolute),
    /// the selected processes, and the executed and comm bitsets, zeroed.
    pub(crate) fn open_step(&mut self, step: u64, selected: impl ExactSizeIterator<Item = NodeId>) {
        debug_assert_eq!(self.written, self.count, "the previous record is complete");
        let buf = &mut self.bytes;
        buf.push(TAG_STEP);
        match self.prev_step {
            None => put_varint(buf, step),
            Some(prev) => put_delta(buf, prev, step),
        }
        self.count = selected.len();
        put_varint(buf, self.count as u64);
        let mut prev_process = 0u64;
        for p in selected {
            put_delta(buf, prev_process, p.index() as u64);
            prev_process = p.index() as u64;
        }
        self.flags_at = buf.len();
        buf.resize(self.flags_at + 2 * self.count.div_ceil(8), 0);
        self.written = 0;
        self.prev_step = Some(step);
        self.steps += 1;
    }

    /// Appends the next activation of the open record: sets its executed
    /// and comm bits and appends its reads.
    #[inline]
    pub(crate) fn push_activation(&mut self, executed: bool, comm_changed: bool, reads: &[Port]) {
        debug_assert!(self.written < self.count, "the open record is complete");
        let i = self.written;
        let executed_byte = self.flags_at + i / 8;
        self.bytes[executed_byte] |= u8::from(executed) << (i % 8);
        self.bytes[executed_byte + self.count.div_ceil(8)] |= u8::from(comm_changed) << (i % 8);
        encode_reads(&mut self.bytes, reads);
        self.written += 1;
    }
}

/// Encodes one activation's read set: bitmap when ascending *and* no
/// larger ([`bitmap_is_chosen`]), varint delta list otherwise.
fn encode_reads(buf: &mut Vec<u8>, reads: &[Port]) {
    if reads.is_empty() {
        put_varint(buf, 1);
        return;
    }
    if let Some(bitmap) = bitmap_len(reads) {
        if bitmap_is_chosen(bitmap, reads.len(), list_len(reads)) {
            put_varint(buf, 2 * bitmap as u64);
            let start = buf.len();
            buf.resize(start + bitmap, 0);
            for port in reads {
                buf[start + port.index() / 8] |= 1 << (port.index() % 8);
            }
            return;
        }
    }
    put_varint(buf, (2 * reads.len() + 1) as u64);
    let mut prev = 0u64;
    for port in reads {
        put_delta(buf, prev, port.index() as u64);
        prev = port.index() as u64;
    }
}

/// Receives the fields of a record as [`parse_step`] checks them, in the
/// order they are stored: the selected processes, then each activation's
/// two flags, then each activation's read ports in recorded order. Every
/// method does nothing unless overridden.
pub(crate) trait StepVisitor {
    /// The next selected process.
    fn process(&mut self, _process: NodeId) {}

    /// The executed and comm-changed flags of activation `activation`.
    fn flags(&mut self, _activation: usize, _executed: bool, _comm_changed: bool) {}

    /// The next port activation `activation` read.
    fn read(&mut self, _activation: usize, _port: Port) {}
}

/// Checks a record and keeps nothing of it.
impl StepVisitor for () {}

/// Parses the step record at `*pos` (the bytes after its tag), advancing
/// the cursor past it, and returns its step index; `visitor` receives its
/// fields. Allocates nothing.
///
/// `prev_step` must be the step index of the record before it (`None`
/// for the first), mirroring `Trace::open_step`. The bytes are untrusted:
/// every count is checked against the bytes left, every process id and
/// port against its range, and the record must be exactly what the
/// encoder writes for it (see the [module docs](self)). The parse fails
/// at the first violation; `visitor` may have received the fields before
/// it.
pub(crate) fn parse_step(
    input: &[u8],
    pos: &mut usize,
    prev_step: Option<u64>,
    visitor: &mut impl StepVisitor,
) -> Result<u64, WireError> {
    let step = match prev_step {
        None => read_varint(input, pos)?,
        Some(prev) => read_delta(input, pos, prev)?,
    };
    let count_offset = *pos;
    let count = read_varint(input, pos)? as usize;
    // Each activation costs at least 2 bytes (process delta + reads tag)
    // plus its bitset bits; reject counts the input cannot possibly hold.
    if count > input.len().saturating_sub(*pos) {
        return Err(WireError::Malformed {
            offset: count_offset,
            what: "activation count (exceeds remaining input)",
        });
    }
    let mut prev_process = 0u64;
    for _ in 0..count {
        let offset = *pos;
        let id = read_delta(input, pos, prev_process)?;
        prev_process = id;
        if id > NodeId::MAX_INDEX as u64 {
            return Err(WireError::Malformed {
                offset,
                what: "process id (exceeds NodeId::MAX_INDEX)",
            });
        }
        visitor.process(NodeId::new(id as usize));
    }
    let executed = read_bitset(input, pos, count)?;
    let comm = read_bitset(input, pos, count)?;
    let flag = |bitset: &[u8], i: usize| bitset[i / 8] >> (i % 8) & 1 == 1;
    for i in 0..count {
        visitor.flags(i, flag(executed, i), flag(comm, i));
    }
    for i in 0..count {
        parse_reads(input, pos, |port| visitor.read(i, port))?;
    }
    Ok(step)
}

/// Reads a `count`-bit bitset, 8 flags per byte, LSB first, and returns
/// its bytes. The bits past the last flag must be zero.
fn read_bitset<'a>(input: &'a [u8], pos: &mut usize, count: usize) -> Result<&'a [u8], WireError> {
    let bytes = input
        .get(*pos..*pos + count.div_ceil(8))
        .ok_or(WireError::UnexpectedEof {
            offset: input.len(),
        })?;
    *pos += bytes.len();
    if !count.is_multiple_of(8) && bytes[bytes.len() - 1] >> (count % 8) != 0 {
        return Err(WireError::Malformed {
            offset: *pos - 1,
            what: "bitset (a padding bit is set)",
        });
    }
    Ok(bytes)
}

/// Parses one activation's read set written by `encode_reads`, passing
/// each port to `read` in recorded order.
fn parse_reads(input: &[u8], pos: &mut usize, mut read: impl FnMut(Port)) -> Result<(), WireError> {
    let tag_offset = *pos;
    let tag = read_varint(input, pos)?;
    if tag == 0 {
        return Err(WireError::Malformed {
            offset: tag_offset,
            what: "reads tag (reserved value 0)",
        });
    }
    if tag % 2 == 0 {
        // Bitmap form: `tag / 2` bytes, set bits are the port indices. A
        // bitmap wider than the port space would name ports `Port::new`
        // rejects.
        if tag / 2 > MAX_BITMAP_BYTES {
            return Err(WireError::Malformed {
                offset: tag_offset,
                what: "reads bitmap (wider than the u32 port space)",
            });
        }
        let bitmap =
            input
                .get(*pos..*pos + (tag / 2) as usize)
                .ok_or(WireError::UnexpectedEof {
                    offset: input.len(),
                })?;
        *pos += bitmap.len();
        // The encoder sizes a bitmap to its largest port.
        if bitmap.last() == Some(&0) {
            return Err(WireError::Malformed {
                offset: *pos - 1,
                what: "reads bitmap (a trailing zero byte)",
            });
        }
        let (mut ports, mut list, mut prev) = (0, 0, 0u64);
        for (i, &byte) in bitmap.iter().enumerate() {
            let mut bits = byte;
            while bits != 0 {
                let port = (i * 8 + bits.trailing_zeros() as usize) as u64;
                list += delta_len(prev, port);
                prev = port;
                ports += 1;
                read(Port::new(port as usize));
                bits &= bits - 1;
            }
        }
        if !bitmap_is_chosen(bitmap.len(), ports, list) {
            return Err(WireError::Malformed {
                offset: tag_offset,
                what: "reads bitmap (the list form is shorter)",
            });
        }
    } else {
        // List form: `(tag - 1) / 2` zigzag varint deltas.
        let count = ((tag - 1) / 2) as usize;
        if count > input.len().saturating_sub(*pos) {
            return Err(WireError::Malformed {
                offset: tag_offset,
                what: "reads count (exceeds remaining input)",
            });
        }
        let list_offset = *pos;
        let (mut ascending, mut prev) = (true, 0u64);
        for i in 0..count {
            let offset = *pos;
            let port = read_delta(input, pos, prev)?;
            if port > Port::MAX_INDEX as u64 {
                return Err(WireError::Malformed {
                    offset,
                    what: "port index (exceeds Port::MAX_INDEX)",
                });
            }
            ascending &= i == 0 || port > prev;
            prev = port;
            read(Port::new(port as usize));
        }
        // Every varint is minimal, so the deltas took what `list_len`
        // counts, and `prev` is the largest port of an ascending list.
        if count > 0
            && ascending
            && bitmap_is_chosen(prev as usize / 8 + 1, count, *pos - list_offset)
        {
            return Err(WireError::Malformed {
                offset: tag_offset,
                what: "reads list (the bitmap form is no longer)",
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ActivationRecord;

    #[test]
    fn varint_round_trip_boundaries() {
        for value in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(value));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_overflow_and_overlong_forms() {
        let mut pos = 0;
        assert!(matches!(
            read_varint(&[0x80], &mut pos),
            Err(WireError::UnexpectedEof { .. })
        ));
        // 10 continuation bytes followed by a value overflowing bit 63.
        let overlong = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&overlong, &mut pos),
            Err(WireError::Malformed { .. })
        ));
        // 0 and 1 with a zero byte of padding, and `u64::MAX >> 1` with a
        // zero tenth byte.
        for padded in [
            &[0x80, 0x00][..],
            &[0x81, 0x80, 0x00],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00],
        ] {
            let mut pos = 0;
            assert_eq!(
                read_varint(padded, &mut pos),
                Err(WireError::Malformed {
                    offset: 0,
                    what: "varint (overlong)"
                }),
                "{padded:02x?}"
            );
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    fn record(step: u64, entries: &[(usize, bool, &[usize], bool)]) -> StepRecord {
        StepRecord {
            step,
            activations: entries
                .iter()
                .map(|&(p, executed, reads, comm_changed)| ActivationRecord {
                    process: NodeId::new(p),
                    executed,
                    reads: reads.iter().map(|&r| Port::new(r)).collect(),
                    comm_changed,
                })
                .collect(),
        }
    }

    /// Encodes `records` into a trace through the executor's calls,
    /// decodes them back, and checks that the parser accepts the trace's
    /// bytes as a stream.
    fn round_trip(records: &[StepRecord]) {
        let mut trace = Trace::new();
        for r in records {
            trace.push(r);
        }
        assert_eq!(trace.records(), records);
    }

    #[test]
    fn step_round_trip_covers_both_read_forms() {
        round_trip(&[
            record(0, &[]),
            record(1, &[(0, true, &[], false)]),
            // Ascending wide read set: dense enough for the bitmap form.
            record(2, &[(3, true, &[0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11], true)]),
            // Out-of-order reads must stay in first-read order.
            record(3, &[(7, false, &[5, 2, 9, 0], false)]),
            // Sparse ascending reads: list form wins over a wide bitmap.
            record(4, &[(2, true, &[1, 900], true)]),
        ]);
    }

    #[test]
    fn step_round_trip_u32_boundary_ids_and_step_jumps() {
        round_trip(&[
            record(u64::MAX - 1, &[(NodeId::MAX_INDEX, true, &[0], true)]),
            // Step index goes *backwards*; zigzag wrapping handles it.
            record(
                3,
                &[
                    (0, false, &[], false),
                    (NodeId::MAX_INDEX, true, &[1], false),
                ],
            ),
            record(u64::MAX, &[]),
        ]);
    }

    #[test]
    #[should_panic(expected = "a trace holds only tagged step records")]
    fn records_reject_a_byte_past_the_last_record() {
        // A byte after the last record: the decode loop must not stop
        // before it, or a parser that under-read a record would leave
        // bytes behind unnoticed.
        let mut trace = Trace::new();
        trace.push(&record(0, &[(0, true, &[], false)]));
        trace.bytes.push(0x00);
        trace.records();
    }

    #[test]
    fn a_cleared_trace_encodes_its_next_record_as_it_would_follow_the_old_ones() {
        let (first, second) = (
            record(7, &[(1, true, &[0], true)]),
            record(8, &[(2, false, &[1, 0], false)]),
        );
        let mut whole = Trace::new();
        whole.push(&first);
        let second_at = whole.bytes().len();
        whole.push(&second);
        let mut cleared = Trace::new();
        cleared.push(&first);
        cleared.clear();
        cleared.push(&second);
        assert_eq!(cleared.bytes(), &whole.bytes()[second_at..]);
    }

    #[test]
    fn executor_shaped_records_cost_a_few_bytes_per_activation() {
        // 64 consecutive processes, 1 read each: the shape a silent
        // synchronous step produces under a 1-efficient protocol.
        let mut trace = Trace::new();
        trace.open_step(17, (0..64).map(NodeId::new));
        for _ in 0..64 {
            trace.push_activation(false, false, &[Port::new(0)]);
        }
        assert!(
            trace.bytes().len() <= 4 * 64,
            "expected a few bytes per activation, got {} bytes for 64",
            trace.bytes().len()
        );
    }

    /// Parses `buf` as one record without a tag, keeping its read ports.
    fn parse_reads_of(buf: &[u8]) -> Result<Vec<Port>, WireError> {
        struct Reads(Vec<Port>);
        impl StepVisitor for Reads {
            fn read(&mut self, _activation: usize, port: Port) {
                self.0.push(port);
            }
        }
        let mut reads = Reads(Vec::new());
        let mut pos = 0;
        parse_step(buf, &mut pos, None, &mut reads)?;
        assert_eq!(pos, buf.len(), "the record ends the input");
        Ok(reads.0)
    }

    #[test]
    fn parse_rejects_implausible_activation_and_read_counts() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 0); // step
        put_varint(&mut buf, u32::MAX as u64); // absurd count, no payload
        assert!(matches!(
            parse_step(&buf, &mut 0, None, &mut ()),
            Err(WireError::Malformed { what, .. }) if what.contains("activation count")
        ));
        let mut reads = Vec::new();
        put_varint(&mut reads, 2 * u64::from(u32::MAX) + 1); // list form, no ports
        assert!(matches!(
            parse_reads_of(&step_with_raw_reads(&reads)),
            Err(WireError::Malformed { what, .. }) if what.contains("reads count")
        ));
    }

    /// A one-activation step (process 0, not executed) whose read set is
    /// the raw `reads` bytes (tag included).
    fn step_with_raw_reads(reads: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, 0); // step
        put_varint(&mut buf, 1); // count
        put_varint(&mut buf, 0); // process 0
        buf.push(0); // executed bitset
        buf.push(0); // comm bitset
        buf.extend_from_slice(reads);
        buf
    }

    #[test]
    fn parse_rejects_list_ports_beyond_the_port_range() {
        let mut reads = Vec::new();
        put_varint(&mut reads, 3); // list form (tag 2r + 1), one port
        put_varint(&mut reads, zigzag(Port::MAX_INDEX as i64 + 1));
        assert!(matches!(
            parse_reads_of(&step_with_raw_reads(&reads)),
            Err(WireError::Malformed { what, .. }) if what.contains("port index")
        ));
        // The largest valid port still parses.
        let mut reads = Vec::new();
        put_varint(&mut reads, 3);
        put_varint(&mut reads, zigzag(Port::MAX_INDEX as i64));
        assert_eq!(
            parse_reads_of(&step_with_raw_reads(&reads)),
            Ok(vec![Port::new(Port::MAX_INDEX)])
        );
    }

    #[test]
    fn parse_rejects_bitmaps_wider_than_the_port_space() {
        // One byte past the widest bitmap; the payload is absent, so only
        // the width check can reject it as malformed (rather than as
        // truncated).
        let mut reads = Vec::new();
        put_varint(&mut reads, 2 * (MAX_BITMAP_BYTES + 1));
        assert!(matches!(
            parse_reads_of(&step_with_raw_reads(&reads)),
            Err(WireError::Malformed { what, .. }) if what.contains("bitmap")
        ));
        // The widest tag that varint decoding accepts is rejected the same
        // way, without overflowing the cursor arithmetic.
        let mut reads = Vec::new();
        put_varint(&mut reads, u64::MAX - 1);
        assert!(matches!(
            parse_reads_of(&step_with_raw_reads(&reads)),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn parse_rejects_out_of_range_process_id() {
        // A one-activation step whose process delta encodes u32::MAX + 1.
        let mut patched = Vec::new();
        put_varint(&mut patched, 0); // step
        put_varint(&mut patched, 1); // count
        put_varint(&mut patched, zigzag((NodeId::MAX_INDEX as i64) + 1));
        patched.push(0); // executed bitset
        patched.push(0); // comm bitset
        put_varint(&mut patched, 1); // empty reads
        assert!(matches!(
            parse_step(&patched, &mut 0, None, &mut ()),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn parse_accepts_each_read_set_only_in_the_form_the_encoder_picks() {
        // Every read set has one canonical form, and parses back.
        for reads in [
            &[][..],
            &[0],
            &[0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11],
            &[5, 2, 9, 0],
            &[1, 900],
            &[3, 3],
        ] {
            let ports: Vec<Port> = reads.iter().map(|&r| Port::new(r)).collect();
            let mut encoded = Vec::new();
            encode_reads(&mut encoded, &ports);
            assert_eq!(
                parse_reads_of(&step_with_raw_reads(&encoded)),
                Ok(ports),
                "{reads:?}"
            );
        }
        // The other form of an ascending set, and a bitmap padded with a
        // zero byte, are not what the encoder writes.
        let mut bitmap_of_1_and_900 = vec![226, 1, 0b10];
        bitmap_of_1_and_900.resize(2 + 113, 0);
        bitmap_of_1_and_900[2 + 112] = 1 << (900 % 8);
        for (bytes, what) in [
            (
                bitmap_of_1_and_900,
                "reads bitmap (the list form is shorter)",
            ),
            (
                vec![23, 0, 2, 2, 2, 2, 2, 2, 2, 4, 2, 2],
                "reads list (the bitmap form is no longer)",
            ),
            (vec![4, 0b1, 0], "reads bitmap (a trailing zero byte)"),
        ] {
            assert!(
                matches!(
                    parse_reads_of(&step_with_raw_reads(&bytes)),
                    Err(WireError::Malformed { what: w, .. }) if w == what
                ),
                "{what}"
            );
        }
    }
}
