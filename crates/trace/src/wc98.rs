//! Parser for the real 1998 World Cup access-log binary format.
//!
//! The trace the paper replays (days 6-92) is publicly distributed as
//! binary logs: fixed 20-byte big-endian records
//!
//! ```text
//! struct request {
//!     uint32 timestamp;  // seconds since epoch
//!     uint32 clientID;
//!     uint32 objectID;
//!     uint32 size;       // response bytes
//!     uint8  method;
//!     uint8  status;     // HTTP status + version bits
//!     uint8  type;       // file type
//!     uint8  server;     // region + server number
//! }
//! ```
//!
//! This module converts such logs into the per-second [`LoadTrace`] the
//! simulator consumes: requests are bucketed per second, and the rate may
//! be rescaled so that the trace's peak matches a target (the paper's
//! experiments size the peak for 4 Big machines). We cannot ship the
//! 30 GB trace itself, but with this parser the shipped experiments run
//! unchanged on the real data.

use crate::trace::LoadTrace;

/// Size of one binary record.
pub const RECORD_BYTES: usize = 20;

/// One decoded request record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wc98Record {
    /// Seconds since the Unix epoch.
    pub timestamp: u32,
    /// Anonymized client id.
    pub client_id: u32,
    /// Requested object id.
    pub object_id: u32,
    /// Response size in bytes.
    pub size: u32,
    /// HTTP method code.
    pub method: u8,
    /// HTTP status/version byte.
    pub status: u8,
    /// File type code.
    pub file_type: u8,
    /// Region/server byte.
    pub server: u8,
}

/// Errors decoding a WC98 binary log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wc98Error {
    /// The input length is not a multiple of the 20-byte record size.
    TruncatedRecord {
        /// Bytes left over after the last whole record.
        trailing_bytes: usize,
    },
    /// The log contained no records.
    Empty,
    /// Timestamps regressed by more than the tolerated reordering window.
    NonMonotonic {
        /// Index of the offending record.
        at_record: usize,
    },
    /// A timestamp jumped forward by more than the tolerated gap — in a
    /// per-second-bucketed trace a corrupt record near `u32::MAX` would
    /// otherwise force a multi-gigabyte counts allocation.
    TimestampGap {
        /// Index of the offending record.
        at_record: usize,
        /// Seconds skipped past the largest timestamp seen so far.
        gap_s: u32,
    },
    /// The underlying reader failed.
    Io(String),
}

impl std::fmt::Display for Wc98Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Wc98Error::TruncatedRecord { trailing_bytes } => {
                write!(f, "truncated WC98 log: {trailing_bytes} trailing bytes")
            }
            Wc98Error::Empty => write!(f, "empty WC98 log"),
            Wc98Error::NonMonotonic { at_record } => {
                write!(f, "timestamps regress too far at record {at_record}")
            }
            Wc98Error::TimestampGap { at_record, gap_s } => {
                write!(f, "timestamp jumps {gap_s} s ahead at record {at_record}")
            }
            Wc98Error::Io(msg) => write!(f, "WC98 log read failed: {msg}"),
        }
    }
}

impl std::error::Error for Wc98Error {}

/// Decode one whole big-endian record.
fn decode_record(r: &[u8; RECORD_BYTES]) -> Wc98Record {
    let u32_at = |i: usize| u32::from_be_bytes([r[i], r[i + 1], r[i + 2], r[i + 3]]);
    Wc98Record {
        timestamp: u32_at(0),
        client_id: u32_at(4),
        object_id: u32_at(8),
        size: u32_at(12),
        method: r[16],
        status: r[17],
        file_type: r[18],
        server: r[19],
    }
}

/// Incremental decoder for the fixed 20-byte records: feed the log in
/// arbitrary chunks (network reads, file blocks); whole records pop out
/// and a record split across a chunk boundary is buffered until its
/// remainder arrives. The streaming counterpart of [`parse_records`] —
/// the 30 GB real logs never have to be resident in memory.
#[derive(Debug, Clone, Default)]
pub struct Wc98Decoder {
    partial: [u8; RECORD_BYTES],
    partial_len: usize,
}

impl Wc98Decoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of an incomplete record buffered from previous chunks.
    pub fn pending_bytes(&self) -> usize {
        self.partial_len
    }

    /// Decode every whole record available from the buffered remainder
    /// plus `chunk`, appending to `out`; any trailing partial record is
    /// buffered for the next call.
    pub fn feed(&mut self, mut chunk: &[u8], out: &mut Vec<Wc98Record>) {
        // Complete a record straddling the previous chunk boundary first.
        if self.partial_len > 0 {
            let need = RECORD_BYTES - self.partial_len;
            let take = need.min(chunk.len());
            self.partial[self.partial_len..self.partial_len + take].copy_from_slice(&chunk[..take]);
            self.partial_len += take;
            chunk = &chunk[take..];
            if self.partial_len < RECORD_BYTES {
                return; // chunk exhausted mid-record
            }
            out.push(decode_record(&self.partial));
            self.partial_len = 0;
        }
        let (records, rest) = chunk.as_chunks::<RECORD_BYTES>();
        out.extend(records.iter().map(decode_record));
        if !rest.is_empty() {
            self.partial[..rest.len()].copy_from_slice(rest);
            self.partial_len = rest.len();
        }
    }

    /// Declare the log complete: errors if a partial record is buffered.
    pub fn finish(self) -> Result<(), Wc98Error> {
        if self.partial_len > 0 {
            Err(Wc98Error::TruncatedRecord {
                trailing_bytes: self.partial_len,
            })
        } else {
            Ok(())
        }
    }
}

/// Decode every record of a binary log slice.
pub fn parse_records(data: &[u8]) -> Result<Vec<Wc98Record>, Wc98Error> {
    if !data.len().is_multiple_of(RECORD_BYTES) {
        return Err(Wc98Error::TruncatedRecord {
            trailing_bytes: data.len() % RECORD_BYTES,
        });
    }
    let mut out = Vec::with_capacity(data.len() / RECORD_BYTES);
    let mut decoder = Wc98Decoder::new();
    decoder.feed(data, &mut out);
    decoder.finish()?;
    Ok(out)
}

/// Encode records back to the binary format (used by tests and by tools
/// that need to cut a trace slice).
pub fn encode_records(records: &[Wc98Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * RECORD_BYTES);
    for r in records {
        out.extend_from_slice(&r.timestamp.to_be_bytes());
        out.extend_from_slice(&r.client_id.to_be_bytes());
        out.extend_from_slice(&r.object_id.to_be_bytes());
        out.extend_from_slice(&r.size.to_be_bytes());
        out.push(r.method);
        out.push(r.status);
        out.push(r.file_type);
        out.push(r.server);
    }
    out
}

/// Conversion options from records to a [`LoadTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct Wc98Options {
    /// Label of the first day in the output trace.
    pub first_day: u32,
    /// Tolerated backwards jitter in record timestamps (the real logs are
    /// near-sorted; the distribution tools allow small reordering).
    pub reorder_tolerance_s: u32,
    /// If set, linearly rescale the per-second rates so the peak equals
    /// this value (the paper's metric is requests/s of *its* CGI workload,
    /// not raw WC98 hits/s, so experiments rescale the shape).
    pub rescale_peak_to: Option<f64>,
    /// Largest tolerated forward jump between consecutive timestamps (s).
    /// The trace buckets one `f64` per second, so a single corrupt record
    /// with a timestamp near `u32::MAX` would otherwise force a
    /// multi-gigabyte allocation; a week-long hole (the default) already
    /// means the log is not the near-continuous WC98 distribution.
    pub max_gap_s: u32,
}

impl Default for Wc98Options {
    fn default() -> Self {
        Wc98Options {
            first_day: 6,
            reorder_tolerance_s: 2,
            rescale_peak_to: Some(5_200.0),
            max_gap_s: 7 * 86_400,
        }
    }
}

/// Streaming record-to-trace bucketer: feed binary chunks (or decoded
/// records), read the finished [`LoadTrace`] at the end. Holds only the
/// per-second counts — O(trace seconds), not O(log bytes) — so an
/// arbitrarily large log streams through in constant extra memory.
#[derive(Debug, Clone)]
pub struct Wc98TraceBuilder {
    options: Wc98Options,
    decoder: Wc98Decoder,
    /// Reused scratch for the records decoded from one chunk.
    batch: Vec<Wc98Record>,
    records_seen: usize,
    start: Option<u32>,
    max_seen: u32,
    counts: Vec<f64>,
}

impl Wc98TraceBuilder {
    /// Fresh builder with the given conversion options.
    pub fn new(options: Wc98Options) -> Self {
        Wc98TraceBuilder {
            options,
            decoder: Wc98Decoder::new(),
            batch: Vec::new(),
            records_seen: 0,
            start: None,
            max_seen: 0,
            counts: Vec::new(),
        }
    }

    /// Feed one binary chunk of the log; records may split across chunk
    /// boundaries arbitrarily.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), Wc98Error> {
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        self.decoder.feed(chunk, &mut batch);
        let result = batch.iter().try_for_each(|r| self.push(r));
        self.batch = batch;
        result
    }

    /// Bucket one decoded record.
    fn push(&mut self, r: &Wc98Record) -> Result<(), Wc98Error> {
        let first = self.start.is_none();
        let start = *self.start.get_or_insert(r.timestamp);
        if r.timestamp.saturating_add(self.options.reorder_tolerance_s) < self.max_seen {
            return Err(Wc98Error::NonMonotonic {
                at_record: self.records_seen,
            });
        }
        if !first && r.timestamp > self.max_seen.saturating_add(self.options.max_gap_s) {
            return Err(Wc98Error::TimestampGap {
                at_record: self.records_seen,
                gap_s: r.timestamp - self.max_seen,
            });
        }
        self.max_seen = self.max_seen.max(r.timestamp);
        let idx = r.timestamp.saturating_sub(start) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0.0);
        }
        self.counts[idx] += 1.0;
        self.records_seen += 1;
        Ok(())
    }

    /// Records bucketed so far.
    pub fn records_seen(&self) -> usize {
        self.records_seen
    }

    /// Finish the stream: rejects a trailing partial record or an empty
    /// log, applies the peak rescaling, and returns the trace.
    pub fn finish(self) -> Result<LoadTrace, Wc98Error> {
        self.decoder.finish()?;
        if self.records_seen == 0 {
            return Err(Wc98Error::Empty);
        }
        let mut counts = self.counts;
        if let Some(target) = self.options.rescale_peak_to {
            let peak = counts.iter().copied().fold(0.0, f64::max);
            if peak > 0.0 {
                let factor = target / peak;
                for c in &mut counts {
                    *c = (*c * factor).round();
                }
            }
        }
        Ok(LoadTrace::new(self.options.first_day, counts))
    }
}

/// Bucket records into a per-second [`LoadTrace`].
///
/// The trace spans from the first record's timestamp to the last's;
/// seconds with no request get rate 0.
pub fn records_to_trace(
    records: &[Wc98Record],
    options: &Wc98Options,
) -> Result<LoadTrace, Wc98Error> {
    let mut builder = Wc98TraceBuilder::new(options.clone());
    records.iter().try_for_each(|r| builder.push(r))?;
    builder.finish()
}

/// Parse a whole binary log into a trace in one call.
pub fn parse_trace(data: &[u8], options: &Wc98Options) -> Result<LoadTrace, Wc98Error> {
    records_to_trace(&parse_records(data)?, options)
}

/// Parse a binary log from any [`std::io::Read`] source in fixed-size
/// chunks — the whole log is never resident in memory, only the decoded
/// per-second counts. This is how the real ~30 GB WC98 distribution is
/// meant to be ingested.
pub fn parse_trace_from_reader<R: std::io::Read>(
    mut reader: R,
    options: &Wc98Options,
) -> Result<LoadTrace, Wc98Error> {
    let mut builder = Wc98TraceBuilder::new(options.clone());
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => builder.feed(&buf[..n])?,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(Wc98Error::Io(e.to_string())),
        }
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts: u32) -> Wc98Record {
        Wc98Record {
            timestamp: ts,
            client_id: 42,
            object_id: 7,
            size: 1024,
            method: 0,
            status: 2,
            file_type: 1,
            server: 3,
        }
    }

    #[test]
    fn roundtrip_encode_parse() {
        let records = vec![record(100), record(100), record(103)];
        let bytes = encode_records(&records);
        assert_eq!(bytes.len(), 3 * RECORD_BYTES);
        let parsed = parse_records(&bytes).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn truncated_input_rejected() {
        let mut bytes = encode_records(&[record(1)]);
        bytes.pop();
        assert_eq!(
            parse_records(&bytes).unwrap_err(),
            Wc98Error::TruncatedRecord { trailing_bytes: 19 }
        );
    }

    #[test]
    fn bucketing_counts_per_second() {
        let records = vec![record(1_000), record(1_000), record(1_000), record(1_002)];
        let trace = records_to_trace(
            &records,
            &Wc98Options {
                rescale_peak_to: None,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(trace.rates, vec![3.0, 0.0, 1.0]);
        assert_eq!(trace.first_day, 6);
    }

    #[test]
    fn rescaling_hits_target_peak() {
        let records = vec![record(0), record(0), record(1)];
        let trace = records_to_trace(
            &records,
            &Wc98Options {
                rescale_peak_to: Some(5_200.0),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(trace.max(), 5_200.0);
        assert_eq!(trace.rates[1], 2_600.0);
    }

    #[test]
    fn small_reordering_tolerated_large_rejected() {
        let ok = vec![record(10), record(9), record(11)];
        assert!(records_to_trace(&ok, &Wc98Options::default()).is_ok());
        let bad = vec![record(100), record(10)];
        assert_eq!(
            records_to_trace(&bad, &Wc98Options::default()).unwrap_err(),
            Wc98Error::NonMonotonic { at_record: 1 }
        );
    }

    #[test]
    fn empty_log_rejected() {
        assert_eq!(
            records_to_trace(&[], &Wc98Options::default()).unwrap_err(),
            Wc98Error::Empty
        );
        assert_eq!(parse_records(&[]).unwrap(), vec![]);
    }

    #[test]
    fn parse_trace_end_to_end() {
        // A synthetic "day": bursts at second 0 and 5.
        let mut records = Vec::new();
        for _ in 0..10 {
            records.push(record(500));
        }
        for _ in 0..5 {
            records.push(record(505));
        }
        let bytes = encode_records(&records);
        let trace = parse_trace(
            &bytes,
            &Wc98Options {
                rescale_peak_to: None,
                first_day: 6,
                reorder_tolerance_s: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(trace.len(), 6);
        assert_eq!(trace.get(0), 10.0);
        assert_eq!(trace.get(5), 5.0);
        // And the simulator input path accepts it (smoke).
        assert_eq!(trace.daily_max(), vec![10.0]);
    }

    #[test]
    fn decoder_handles_records_split_across_chunks() {
        let records: Vec<Wc98Record> = (0..7).map(|i| record(1_000 + i)).collect();
        let bytes = encode_records(&records);
        // Feed in every chunk size from 1 byte (worst case: each record
        // split across 20 chunks) to larger-than-record chunks.
        for chunk_size in [1usize, 3, 7, 19, 20, 21, 33, 64] {
            let mut decoder = Wc98Decoder::new();
            let mut out = Vec::new();
            for chunk in bytes.chunks(chunk_size) {
                decoder.feed(chunk, &mut out);
            }
            assert_eq!(decoder.pending_bytes(), 0);
            decoder.finish().unwrap();
            assert_eq!(out, records, "chunk_size {chunk_size}");
        }
    }

    #[test]
    fn decoder_finish_rejects_partial_record() {
        let bytes = encode_records(&[record(5)]);
        let mut decoder = Wc98Decoder::new();
        let mut out = Vec::new();
        decoder.feed(&bytes[..13], &mut out);
        assert!(out.is_empty());
        assert_eq!(decoder.pending_bytes(), 13);
        assert_eq!(
            decoder.finish().unwrap_err(),
            Wc98Error::TruncatedRecord { trailing_bytes: 13 }
        );
    }

    #[test]
    fn streaming_builder_matches_batch_conversion() {
        let mut records = Vec::new();
        for _ in 0..10 {
            records.push(record(500));
        }
        records.push(record(499)); // tolerated reordering
        for _ in 0..5 {
            records.push(record(505));
        }
        let bytes = encode_records(&records);
        let batch = parse_trace(&bytes, &Wc98Options::default()).unwrap();
        let mut builder = Wc98TraceBuilder::new(Wc98Options::default());
        for chunk in bytes.chunks(7) {
            builder.feed(chunk).unwrap();
        }
        assert_eq!(builder.records_seen(), records.len());
        assert_eq!(builder.finish().unwrap(), batch);
    }

    #[test]
    fn streaming_builder_rejects_bad_streams() {
        // Non-monotonic stream fails mid-feed with the global record index.
        let bytes = encode_records(&[record(100), record(10)]);
        let mut builder = Wc98TraceBuilder::new(Wc98Options::default());
        assert_eq!(
            builder.feed(&bytes).unwrap_err(),
            Wc98Error::NonMonotonic { at_record: 1 }
        );
        // Empty stream.
        assert_eq!(
            Wc98TraceBuilder::new(Wc98Options::default())
                .finish()
                .unwrap_err(),
            Wc98Error::Empty
        );
        // Trailing partial record.
        let mut builder = Wc98TraceBuilder::new(Wc98Options::default());
        builder.feed(&encode_records(&[record(1)])[..7]).unwrap();
        assert_eq!(
            builder.finish().unwrap_err(),
            Wc98Error::TruncatedRecord { trailing_bytes: 7 }
        );
    }

    #[test]
    fn forward_timestamp_jump_is_rejected_not_allocated() {
        // A corrupt record with a timestamp near u32::MAX must fail fast
        // instead of resizing the per-second counts to gigabytes.
        let bytes = encode_records(&[record(894_000_000), record(u32::MAX)]);
        let mut builder = Wc98TraceBuilder::new(Wc98Options::default());
        match builder.feed(&bytes) {
            Err(Wc98Error::TimestampGap {
                at_record: 1,
                gap_s,
            }) => {
                assert_eq!(gap_s, u32::MAX - 894_000_000);
            }
            other => panic!("expected TimestampGap, got {other:?}"),
        }
        // A gap inside the tolerance passes; one just past it fails.
        let gap = Wc98Options::default().max_gap_s;
        let ok = encode_records(&[record(1_000), record(1_000 + gap)]);
        assert!(Wc98TraceBuilder::new(Wc98Options::default())
            .feed(&ok)
            .is_ok());
        let bad = encode_records(&[record(1_000), record(1_000 + gap + 1)]);
        assert!(matches!(
            Wc98TraceBuilder::new(Wc98Options::default()).feed(&bad),
            Err(Wc98Error::TimestampGap { .. })
        ));
    }

    #[test]
    fn reader_streaming_end_to_end() {
        let records = vec![record(0), record(0), record(1)];
        let bytes = encode_records(&records);
        let from_reader = parse_trace_from_reader(
            bytes.as_slice(),
            &Wc98Options {
                rescale_peak_to: None,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(from_reader.rates, vec![2.0, 1.0]);

        // A reader that errors surfaces as Wc98Error::Io.
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        match parse_trace_from_reader(FailingReader, &Wc98Options::default()) {
            Err(Wc98Error::Io(msg)) => assert!(msg.contains("disk on fire")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn error_messages() {
        assert!(Wc98Error::Empty.to_string().contains("empty"));
        assert!(Wc98Error::TruncatedRecord { trailing_bytes: 3 }
            .to_string()
            .contains('3'));
        assert!(Wc98Error::NonMonotonic { at_record: 9 }
            .to_string()
            .contains('9'));
        assert!(Wc98Error::TimestampGap {
            at_record: 4,
            gap_s: 777
        }
        .to_string()
        .contains("777"));
    }
}
