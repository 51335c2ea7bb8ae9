//! Payload primitives shared by the sectioned engine container
//! ([`crate::section`]) and delta chains ([`crate::chain`]): the FNV-1a
//! checksum, and the little-endian [`ByteWriter`]/[`ByteReader`] pair
//! that encodes section payloads. A reader rejects truncated or
//! malformed payloads with a named [`ThorError`] carrying the byte
//! offset.
//!
//! The pre-sectioned (version-1) single-payload container is gone;
//! `section` still recognizes its header and rejects such files by name
//! with a rebuild hint.

use crate::error::{ThorError, ThorResult};

/// 64-bit FNV-1a over `bytes` — the same hash family the checkpoint
/// fingerprint uses. Every input byte goes through
/// `state = (state ^ b) * PRIME`, a bijection of the 64-bit state, so
/// any single-byte change changes the digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Append-only little-endian payload encoder, the writing half of
/// [`ByteReader`].
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an `f32` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Consume the writer, returning the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential little-endian payload decoder. Every read is
/// bounds-checked; running off the end yields an [`ErrorKind::Parse`]
/// error carrying the byte offset where data ran out.
///
/// [`ErrorKind::Parse`]: crate::ErrorKind::Parse
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current offset into the payload.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> ThorResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(ThorError::parse(format!(
                "truncated payload: needed {n} bytes for {what}, {} left",
                self.remaining()
            ))
            .with_offset(self.pos));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> ThorResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> ThorResult<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> ThorResult<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> ThorResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read an `f32` bit pattern.
    pub fn get_f32(&mut self) -> ThorResult<f32> {
        let b = self.take(4, "f32")?;
        Ok(f32::from_bits(u32::from_le_bytes(b.try_into().unwrap())))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> ThorResult<String> {
        let len = self.get_u64()? as usize;
        // Guard against absurd lengths from corrupted prefixes before
        // attempting the slice.
        if len > self.remaining() {
            return Err(ThorError::parse(format!(
                "truncated payload: string length {len} exceeds {} remaining bytes",
                self.remaining()
            ))
            .with_offset(self.pos));
        }
        let bytes = self.take(len, "string")?;
        String::from_utf8(bytes.to_vec()).map_err(|e| {
            ThorError::parse(format!("payload string is not UTF-8: {e}")).with_offset(self.pos)
        })
    }

    /// Assert the payload has been fully consumed (catches format
    /// drift where a writer appends fields a reader ignores).
    pub fn finish(self, what: &str) -> ThorResult<()> {
        if self.remaining() != 0 {
            return Err(ThorError::parse(format!(
                "{what}: {} trailing bytes after payload",
                self.remaining()
            ))
            .with_offset(self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(42);
        w.put_u64(u64::MAX);
        w.put_f64(0.7);
        w.put_f32(-1.25);
        w.put_str("naïve phrase");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 42);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap().to_bits(), 0.7f64.to_bits());
        assert_eq!(r.get_f32().unwrap(), -1.25);
        assert_eq!(r.get_str().unwrap(), "naïve phrase");
        r.finish("test payload").unwrap();
    }

    #[test]
    fn reader_names_truncation_offset() {
        let mut w = ByteWriter::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u32().unwrap();
        let err = r.get_u64().unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Parse);
        assert!(err.to_string().contains("truncated"));
        assert_eq!(err.offset(), Some(4));
    }

    #[test]
    fn corrupt_string_length_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd string length
        let bytes = w.into_bytes();
        let err = ByteReader::new(&bytes).get_str().unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn fnv1a_detects_every_single_byte_flip() {
        let payload = b"abcdefgh".to_vec();
        let base = fnv1a(&payload);
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut mutated = payload.clone();
                mutated[i] ^= 1 << bit;
                assert_ne!(fnv1a(&mutated), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
