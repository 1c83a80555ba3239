//! Frame layer: length-prefixed binary frames over a byte stream.
//!
//! Every message of the wire protocol travels as one frame:
//!
//! ```text
//! ┌──────────────────┬──────────────────────────────┐
//! │ length: u32 LE   │ payload (length bytes)       │
//! └──────────────────┴──────────────────────────────┘
//! ```
//!
//! The payload starts with a one-byte message tag (see [`crate::proto`]) and
//! is decoded with [`Cursor`], which reports truncation instead of panicking
//! — a malformed peer must surface as a protocol error, never as a crash.
//! Frames longer than [`MAX_FRAME_LEN`] are rejected at both ends: the
//! writer refuses to emit them and [`FrameReader`] refuses to buffer them,
//! so a corrupted length prefix cannot make the receiver allocate without
//! bound.

use std::fmt;

/// Upper bound on one frame's payload, in bytes. Generous for every real
/// message (the largest is a full slot snapshot: tens of bytes per
/// connection) while keeping a corrupted length prefix from looking like a
/// multi-gigabyte allocation request.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Size of the length prefix preceding every payload.
pub const FRAME_HEADER_LEN: usize = 4;

/// Decode-side failure of the frame or message layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before the field being read was complete.
    Truncated,
    /// A length prefix announced a payload beyond [`MAX_FRAME_LEN`].
    Oversized {
        /// The announced payload length.
        len: usize,
    },
    /// An unknown message or field tag.
    BadTag(u8),
    /// A structurally valid field carried a value outside its domain.
    BadValue(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated mid-field"),
            FrameError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            FrameError::BadTag(tag) => write!(f, "unknown message/field tag {tag:#04x}"),
            FrameError::BadValue(what) => write!(f, "invalid field value: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Wrap `payload` into one frame (length prefix + payload).
///
/// # Panics
/// Panics if the payload exceeds [`MAX_FRAME_LEN`] — encoders construct
/// bounded messages, so an oversized outgoing frame is a programming error,
/// not a peer-controlled condition.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "outgoing frame payload of {} bytes exceeds MAX_FRAME_LEN",
        payload.len()
    );
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame extractor over a byte stream.
///
/// Transports deliver byte chunks whose boundaries need not align with
/// frames (one chunk may carry several frames, or a frame may arrive split
/// across chunks); the reader buffers bytes until a complete frame is
/// available.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty stream buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a delivered chunk to the stream buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extract the next complete frame's payload, `Ok(None)` while the
    /// buffered stream still ends mid-frame. An oversized length prefix is
    /// unrecoverable (stream framing is lost), so the buffer is dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        header.copy_from_slice(&self.buf[..FRAME_HEADER_LEN]);
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME_LEN {
            self.buf.clear();
            return Err(FrameError::Oversized { len });
        }
        if self.buf.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let payload = self.buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec();
        self.buf.drain(..FRAME_HEADER_LEN + len);
        Ok(Some(payload))
    }

    /// Drop the stream buffer: the connection the buffered bytes came from
    /// is gone (a delivery's epoch changed), so any partial frame is dead.
    /// Splicing old-connection bytes onto a fresh stream would desync the
    /// framing — resetting turns a truncated write into a clean loss.
    pub fn reset(&mut self) {
        self.buf.clear();
    }
}

/// Bounds-checked reader over one frame's payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.pos + n > self.bytes.len() {
            return Err(FrameError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// [`Cursor::take`] into a fixed-size array, so integer decoding needs
    /// no fallible-conversion unwrap.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read an `f64` transported as its IEEE-754 bit pattern (little-endian),
    /// so virtual-time instants round-trip bit-exactly.
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take_array()?)))
    }

    /// Read a boolean encoded as a single `0`/`1` byte.
    pub fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::BadValue("boolean byte must be 0 or 1")),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadValue("invalid UTF-8"))
    }

    /// Fail unless every payload byte was consumed — trailing garbage means
    /// the peer and we disagree about the message layout.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::BadValue("trailing bytes after message"))
        }
    }
}

/// Encode-side helpers mirroring [`Cursor`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (little-endian).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a boolean as one `0`/`1` byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// The finished payload.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 7);
        w.f64(0.1 + 0.2); // a value with a non-terminating decimal expansion
        w.f64(f64::MAX);
        w.bool(true);
        w.string("wire ♥");
        let payload = w.into_payload();
        let mut c = Cursor::new(&payload);
        assert_eq!(c.u8().unwrap(), 0xAB);
        assert_eq!(c.u16().unwrap(), 0xBEEF);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 7);
        assert_eq!(c.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(c.f64().unwrap(), f64::MAX);
        assert!(c.bool().unwrap());
        assert_eq!(c.string().unwrap(), "wire ♥");
        c.finish().unwrap();
    }

    #[test]
    fn reader_reassembles_frames_split_across_chunks() {
        let a = frame(b"hello");
        let b = frame(b"world!");
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        // Feed the concatenated stream one byte at a time.
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for byte in stream {
            reader.feed(&[byte]);
            while let Some(f) = reader.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames, vec![b"hello".to_vec(), b"world!".to_vec()]);
        assert_eq!(reader.buf.len(), 0);
    }

    #[test]
    fn truncated_stream_yields_no_frame() {
        let full = frame(b"payload");
        let mut reader = FrameReader::new();
        reader.feed(&full[..full.len() - 1]);
        assert_eq!(reader.next_frame().unwrap(), None, "frame still incomplete");
        reader.feed(&full[full.len() - 1..]);
        assert_eq!(reader.next_frame().unwrap(), Some(b"payload".to_vec()));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_buffered() {
        let mut reader = FrameReader::new();
        let bogus = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        reader.feed(&bogus);
        assert_eq!(
            reader.next_frame(),
            Err(FrameError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
        assert_eq!(reader.buf.len(), 0, "a lost stream must not keep bytes");
    }

    #[test]
    fn cursor_reports_truncation_instead_of_panicking() {
        let mut c = Cursor::new(&[1, 2]);
        assert_eq!(c.u32(), Err(FrameError::Truncated));
        let mut c = Cursor::new(&[]);
        assert_eq!(c.u8(), Err(FrameError::Truncated));
    }

    #[test]
    fn trailing_garbage_fails_finish() {
        let mut c = Cursor::new(&[0, 1]);
        c.u8().unwrap();
        assert_eq!(
            c.finish(),
            Err(FrameError::BadValue("trailing bytes after message"))
        );
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_LEN")]
    fn outgoing_oversized_frame_is_a_programming_error() {
        let _ = frame(&vec![0u8; MAX_FRAME_LEN + 1]);
    }
}
