//! Compact binary wire format for step records, and the [`Trace`] that
//! encodes them.
//!
//! One [`StepRecord`] is encoded as:
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

use selfstab_graph::{NodeId, Port};

use crate::trace::{ActivationRecord, StepRecord};

/// Decoding error: the input is truncated or structurally malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended in the middle of a record.
    UnexpectedEof {
        /// Byte offset at which more input was expected.
        offset: usize,
    },
    /// A varint ran past 10 bytes or a field held an impossible value.
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

/// Tag byte preceding each step record of a [`Trace`], and so of a trace
/// file's step stream.
pub(super) const TAG_STEP: u8 = 0x01;

/// A recorded step stream, encoded as it is recorded: per step, the step
/// tag and the step's record. It is a trace file's tagged step stream,
/// between the file's header and its end tag.
///
/// A recording simulation encodes into its trace without building a
/// [`StepRecord`], and [`push`](Trace::push) encodes a decoded record
/// through the same calls. [`records`](Trace::records) decodes the stream
/// and [`write_file`](Trace::write_file) writes it as a trace file (both
/// in [`sstb`](super::sstb), with the decode loop and the container).
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

/// Encodes one activation's read set: bitmap when ascending *and*
/// smaller, varint delta list otherwise.
fn encode_reads(buf: &mut Vec<u8>, reads: &[Port]) {
    if reads.is_empty() {
        put_varint(buf, 1);
        return;
    }
    let list = list_len(reads);
    if let Some(bitmap) = bitmap_len(reads) {
        // Compare full costs (tag included) and prefer the bitmap on
        // ties: it decodes without per-port varint work.
        let bitmap_cost = delta_len(0, 2 * bitmap as u64) + bitmap;
        let list_cost = delta_len(0, (2 * reads.len() + 1) as u64) + list;
        if bitmap_cost <= list_cost {
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

/// Decodes one step record from `input` at `*pos`, advancing the cursor.
///
/// `prev_step` must be the step index of the previously decoded record
/// (`None` for the first), mirroring `Trace::open_step`.
pub fn decode_step(
    input: &[u8],
    pos: &mut usize,
    prev_step: Option<u64>,
) -> Result<StepRecord, WireError> {
    let step = match prev_step {
        None => read_varint(input, pos)?,
        Some(prev) => read_delta(input, pos, prev)?,
    };
    let count_offset = *pos;
    let count = read_varint(input, pos)? as usize;
    // Each activation costs at least 2 bytes (process delta + reads tag)
    // plus its bitset bits; reject counts the input cannot possibly hold
    // before allocating.
    if count > input.len().saturating_sub(*pos) {
        return Err(WireError::Malformed {
            offset: count_offset,
            what: "activation count (exceeds remaining input)",
        });
    }

    let mut activations = Vec::with_capacity(count);
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
        activations.push(ActivationRecord {
            process: NodeId::new(id as usize),
            executed: false,
            reads: Vec::new(), // lint: allow(hot-alloc) — decode path builds record-owned vecs
            comm_changed: false,
        });
    }

    read_bitset(input, pos, count, |i, flag| activations[i].executed = flag)?;
    read_bitset(input, pos, count, |i, flag| {
        activations[i].comm_changed = flag;
    })?;

    for activation in &mut activations {
        activation.reads = decode_reads(input, pos)?;
    }

    Ok(StepRecord { step, activations })
}

/// Reads a `count`-bit bitset, 8 flags per byte, LSB first.
fn read_bitset(
    input: &[u8],
    pos: &mut usize,
    count: usize,
    mut apply: impl FnMut(usize, bool),
) -> Result<(), WireError> {
    let bytes = count.div_ceil(8);
    let slice = input
        .get(*pos..*pos + bytes)
        .ok_or(WireError::UnexpectedEof {
            offset: input.len(),
        })?;
    for i in 0..count {
        apply(i, slice[i / 8] >> (i % 8) & 1 == 1);
    }
    *pos += bytes;
    Ok(())
}

/// Decodes one activation's read set written by `encode_reads`.
fn decode_reads(input: &[u8], pos: &mut usize) -> Result<Vec<Port>, WireError> {
    let tag_offset = *pos;
    let tag = read_varint(input, pos)?;
    if tag == 0 {
        return Err(WireError::Malformed {
            offset: tag_offset,
            what: "reads tag (reserved value 0)",
        });
    }
    if tag == 1 {
        return Ok(Vec::new()); // lint: allow(hot-alloc) — decode path; empty read set
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
        let bytes = (tag / 2) as usize;
        let slice = input
            .get(*pos..*pos + bytes)
            .ok_or(WireError::UnexpectedEof {
                offset: input.len(),
            })?;
        let mut reads = Vec::new(); // lint: allow(hot-alloc) — decode path builds the record-owned read set
        for (i, &byte) in slice.iter().enumerate() {
            let mut bits = byte;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                reads.push(Port::new(i * 8 + bit));
                bits &= bits - 1;
            }
        }
        *pos += bytes;
        Ok(reads)
    } else {
        // List form: `(tag - 1) / 2` zigzag varint deltas.
        let count_offset = tag_offset;
        let count = ((tag - 1) / 2) as usize;
        if count > input.len().saturating_sub(*pos) {
            return Err(WireError::Malformed {
                offset: count_offset,
                what: "reads count (exceeds remaining input)",
            });
        }
        let mut reads = Vec::with_capacity(count);
        let mut prev = 0u64;
        for _ in 0..count {
            let offset = *pos;
            let port = read_delta(input, pos, prev)?;
            prev = port;
            if port > Port::MAX_INDEX as u64 {
                return Err(WireError::Malformed {
                    offset,
                    what: "port index (exceeds Port::MAX_INDEX)",
                });
            }
            reads.push(Port::new(port as usize));
        }
        Ok(reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn varint_rejects_truncation_and_overflow() {
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

    /// Encodes `records` into a trace through the executor's calls and
    /// decodes them back.
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
    #[should_panic(expected = "decoder consumed the whole stream")]
    fn records_reject_a_byte_the_decoder_leaves() {
        // An end tag past the last record: the decode loop stops at it, so
        // only the whole-stream check can notice it.
        let mut trace = Trace::new();
        trace.push(&record(0, &[(0, true, &[], false)]));
        trace.bytes.push(0x00);
        trace.records();
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

    #[test]
    fn decode_rejects_implausible_activation_count() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 0); // step
        put_varint(&mut buf, u32::MAX as u64); // absurd count, no payload
        let mut pos = 0;
        assert!(matches!(
            decode_step(&buf, &mut pos, None),
            Err(WireError::Malformed { .. })
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
    fn decode_rejects_list_ports_beyond_the_port_range() {
        let mut reads = Vec::new();
        put_varint(&mut reads, 3); // list form (tag 2r + 1), one port
        put_varint(&mut reads, zigzag(Port::MAX_INDEX as i64 + 1));
        let buf = step_with_raw_reads(&reads);
        let mut pos = 0;
        assert!(matches!(
            decode_step(&buf, &mut pos, None),
            Err(WireError::Malformed { what, .. }) if what.contains("port index")
        ));
        // The largest valid port still decodes.
        let mut reads = Vec::new();
        put_varint(&mut reads, 3);
        put_varint(&mut reads, zigzag(Port::MAX_INDEX as i64));
        let buf = step_with_raw_reads(&reads);
        let mut pos = 0;
        let decoded = decode_step(&buf, &mut pos, None).expect("decodes");
        assert_eq!(
            decoded.activations[0].reads,
            vec![Port::new(Port::MAX_INDEX)]
        );
    }

    #[test]
    fn decode_rejects_bitmaps_wider_than_the_port_space() {
        // One byte past the widest bitmap; the payload is absent, so only
        // the width check can reject it as malformed (rather than as
        // truncated).
        let mut reads = Vec::new();
        put_varint(&mut reads, 2 * (MAX_BITMAP_BYTES + 1));
        let buf = step_with_raw_reads(&reads);
        let mut pos = 0;
        assert!(matches!(
            decode_step(&buf, &mut pos, None),
            Err(WireError::Malformed { what, .. }) if what.contains("bitmap")
        ));
        // The widest tag that varint decoding accepts is rejected the same
        // way, without overflowing the cursor arithmetic.
        let mut reads = Vec::new();
        put_varint(&mut reads, u64::MAX - 1);
        let buf = step_with_raw_reads(&reads);
        let mut pos = 0;
        assert!(matches!(
            decode_step(&buf, &mut pos, None),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn decode_rejects_out_of_range_process_id() {
        // A one-activation step whose process delta encodes u32::MAX + 1.
        let mut patched = Vec::new();
        put_varint(&mut patched, 0); // step
        put_varint(&mut patched, 1); // count
        put_varint(&mut patched, zigzag((NodeId::MAX_INDEX as i64) + 1));
        patched.push(0); // executed bitset
        patched.push(0); // comm bitset
        put_varint(&mut patched, 1); // empty reads
        let mut pos = 0;
        assert!(matches!(
            decode_step(&patched, &mut pos, None),
            Err(WireError::Malformed { .. })
        ));
    }
}
