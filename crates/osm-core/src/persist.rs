//! Byte-level primitives for the on-disk formats, and the one home of the
//! FNV-1a digests used across the workspace.
//!
//! Machine checkpoints and the farm's journal and job checkpoints are all
//! encoded through [`ByteWriter`] and decoded through [`ByteReader`]:
//! little-endian integers, `u32`-length-prefixed sections, seals and
//! digest-checked frames, each under the digest family its caller names.
//! Writers never fail; readers return `None` on any truncation or overrun
//! so corrupt files degrade into a typed refusal, not a panic.
//!
//! # Two FNV-1a families
//!
//! Both start from the standard offset basis [`FNV_OFFSET`] and differ only
//! in the multiplier. Each is fixed by digests already on record, so
//! neither may change:
//!
//! * [`trace_mix`] / [`fnv1a`] multiply by `0x1000_0000_01b3`, which is
//!   *not* the standard FNV-64 prime (one more zero nibble). They cover
//!   [`crate::Trace`] digests and machine checkpoint seals.
//! * [`fnv_mix`] / [`fnv`] are standard FNV-1a-64 (prime `0x100_0000_01b3`).
//!   They cover [`crate::Machine::state_fingerprint`] and every digest of
//!   the simulation farm (journal, job checkpoints, ISS traces).

/// FNV-1a offset basis (the standard one), shared by both families.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Multiplier of trace digests and checkpoint seals (not the FNV prime).
const TRACE_MULT: u64 = 0x1000_0000_01b3;
/// The standard FNV-64 prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds `bytes` into a running trace digest or checkpoint seal
/// (multiplier `0x1000_0000_01b3`; see the module docs). Generic so a
/// caller hashing a fixed-width value can pass `v.to_le_bytes()` by value
/// and keep the fully unrolled loop of the hot trace path.
#[inline]
pub fn trace_mix(mut hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(TRACE_MULT);
    }
    hash
}

/// Folds `bytes` into a running standard FNV-1a-64 digest (generic like
/// [`trace_mix`]).
#[inline]
pub fn fnv_mix(mut hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The checkpoint seal: [`trace_mix`] over `bytes` from [`FNV_OFFSET`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    trace_mix(FNV_OFFSET, bytes.iter().copied())
}

/// Standard FNV-1a-64 of `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    fnv_mix(FNV_OFFSET, bytes.iter().copied())
}

/// Append-only little-endian byte encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix (e.g. a magic string).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with a `u32` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= u32::MAX as usize, "section too large");
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a frame: `payload` with a `u32` length prefix, then
    /// `digest(payload)` (read back with [`ByteReader::take_frame`]).
    pub fn put_frame(&mut self, payload: &[u8], digest: fn(&[u8]) -> u64) {
        self.put_bytes(payload);
        self.put_u64(digest(payload));
    }

    /// Appends a UTF-8 string with a `u32` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a `u32` item count, then each item through `put` (read back
    /// with [`ByteReader::take_vec`]).
    pub fn put_seq<I>(&mut self, items: I, mut put: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put_u32(items.len() as u32);
        for item in items {
            put(self, item);
        }
    }

    /// Consumes the writer, returning the raw encoding.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes the writer, appending a seal: `digest` over everything
    /// written. Check with [`unseal`] and the same digest.
    pub fn into_sealed_bytes(mut self, digest: fn(&[u8]) -> u64) -> Vec<u8> {
        self.put_u64(digest(&self.buf));
        self.buf
    }
}

/// Validates a trailing seal written with `digest`, returning the payload
/// it covers. `None` if the input is too short or the seal does not match.
pub fn unseal(bytes: &[u8], digest: fn(&[u8]) -> u64) -> Option<&[u8]> {
    let (payload, seal) = bytes.split_at(bytes.len().checked_sub(8)?);
    (ByteReader::new(seal).take_u64()? == digest(payload)).then_some(payload)
}

/// A complete frame whose stored digest does not match its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadDigest;

/// Cursor-based little-endian byte decoder; every accessor returns `None`
/// past the end instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `bytes` with the cursor at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { buf: bytes, pos: 0 }
    }

    /// Decodes all of `bytes` with `body`: `None` if it fails or leaves any
    /// byte unread.
    pub fn read_all<T>(bytes: &'a [u8], body: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let mut r = ByteReader::new(bytes);
        let out = body(&mut r)?;
        r.is_done().then_some(out)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole input has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes consumed so far: the offset of the next read.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads the next `n` bytes as they are (no length prefix).
    pub fn take_raw(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Option<u8> {
        self.take_raw(1).map(|b| b[0])
    }

    /// Reads one byte that must equal `tag` (a section's kind byte).
    pub fn expect_u8(&mut self, tag: u8) -> Option<()> {
        (self.take_u8()? == tag).then_some(())
    }

    /// Reads a bool byte; any value other than 0/1 is a decode error.
    pub fn take_bool(&mut self) -> Option<bool> {
        match self.take_u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        self.take_raw(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        self.take_raw(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    /// Reads a `u32`-length-prefixed byte section.
    pub fn take_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.take_u32()? as usize;
        self.take_raw(len)
    }

    /// Reads a [`ByteWriter::put_frame`] frame checked with `digest`:
    /// `Ok(None)` if the input ends inside it (a torn tail) and `Err` if its
    /// digest does not match. Only a returned payload moves the cursor.
    pub fn take_frame(&mut self, digest: fn(&[u8]) -> u64) -> Result<Option<&'a [u8]>, BadDigest> {
        let start = self.pos;
        let frame = match (self.take_bytes(), self.take_u64()) {
            (Some(payload), Some(stored)) if digest(payload) == stored => return Ok(Some(payload)),
            (Some(_), Some(_)) => Err(BadDigest),
            _ => Ok(None),
        };
        self.pos = start;
        frame
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.take_bytes()?).ok()
    }

    /// Reads a `u32` item count, then each item through `item` (written by
    /// [`ByteWriter::put_seq`]).
    pub fn take_vec<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.take_u32()? as usize;
        // Every item takes at least one byte, so a corrupt count cannot
        // reserve more than the input could hold.
        let mut out = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answer_pins_the_nonstandard_multiplier() {
        // Standard FNV-1a-64 gives 0xaf63dc4c8601ec8c for "a"; this variant
        // must keep producing its own value.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(trace_mix(fnv1a(b"fo"), *b"o"), fnv1a(b"foo"));
    }

    #[test]
    fn fnv_is_standard_fnv1a_64() {
        assert_eq!(fnv(b""), FNV_OFFSET);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv_mix(fnv(b"fo"), *b"o"), fnv(b"foo"));
    }

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("fetch-queue");
        w.put_seq([3u64, 4], |w, v| w.put_u64(v));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8(), Some(7));
        assert_eq!(r.take_bool(), Some(true));
        assert_eq!(r.take_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.take_u64(), Some(u64::MAX - 3));
        assert_eq!(r.take_bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.take_str(), Some("fetch-queue"));
        assert_eq!(r.take_vec(ByteReader::take_u64), Some(vec![3, 4]));
        assert!(r.is_done());
        assert_eq!(r.take_u8(), None);
    }

    #[test]
    fn read_all_requires_the_kind_byte_and_full_consumption() {
        let body = |r: &mut ByteReader<'_>| {
            r.expect_u8(b'K')?;
            r.take_u32()
        };
        assert_eq!(ByteReader::read_all(&[b'K', 5, 0, 0, 0], body), Some(5));
        assert_eq!(ByteReader::read_all(&[b'J', 5, 0, 0, 0], body), None);
        assert_eq!(ByteReader::read_all(&[b'K', 5, 0, 0, 0, 9], body), None);
        // A count larger than the input fails without a huge reservation.
        let mut r = ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 1]);
        assert_eq!(r.take_vec(ByteReader::take_bool), None);
    }

    #[test]
    fn truncated_reads_fail_without_panicking() {
        let mut w = ByteWriter::new();
        w.put_u64(9);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(r.take_u64(), None);
        // Length prefix larger than the remaining input.
        let mut w = ByteWriter::new();
        w.put_u32(100);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_bytes(), None);
    }

    #[test]
    fn bad_bool_is_a_decode_error() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.take_bool(), None);
    }

    #[test]
    fn seal_roundtrip_and_tamper_detection() {
        let mut w = ByteWriter::new();
        w.put_str("payload");
        let sealed = w.into_sealed_bytes(fnv1a);
        let payload = unseal(&sealed, fnv1a).expect("seal valid");
        let mut r = ByteReader::new(payload);
        assert_eq!(r.take_str(), Some("payload"));
        let mut tampered = sealed.clone();
        tampered[4] ^= 1;
        assert!(unseal(&tampered, fnv1a).is_none());
        assert!(unseal(&sealed[..4], fnv1a).is_none());
        // The seal names its digest family: the other one rejects it.
        assert!(unseal(&sealed, fnv).is_none());
        let mut w = ByteWriter::new();
        w.put_raw(b"raw");
        assert_eq!(unseal(&w.into_sealed_bytes(fnv), fnv), Some(&b"raw"[..]));
    }

    fn two_frames() -> (Vec<u8>, usize) {
        let mut w = ByteWriter::new();
        w.put_frame(b"first payload", fnv);
        let first_len = w.len();
        w.put_frame(b"", fnv);
        (w.into_bytes(), first_len)
    }

    #[test]
    fn frames_round_trip() {
        let (bytes, first_len) = two_frames();
        assert_eq!(first_len, 4 + 13 + 8);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_frame(fnv), Ok(Some(&b"first payload"[..])));
        assert_eq!(r.position(), first_len);
        assert_eq!(r.take_frame(fnv), Ok(Some(&b""[..])));
        assert!(r.is_done());
        assert_eq!(r.take_frame(fnv), Ok(None), "nothing left");
        assert_eq!(r.position(), bytes.len());
        let mut r = ByteReader::new(b"magic!");
        assert_eq!(r.take_raw(5), Some(&b"magic"[..]));
        assert_eq!(r.take_raw(2), None);
        assert_eq!(r.position(), 5);
    }

    #[test]
    fn a_frame_cut_at_any_byte_is_torn_and_leaves_the_cursor() {
        let (bytes, first_len) = two_frames();
        for cut in 0..first_len {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert_eq!(r.take_frame(fnv), Ok(None), "cut at {cut}");
            assert_eq!(r.position(), 0, "cut at {cut}");
        }
        // After a whole first frame, a cut inside the second is torn too.
        for cut in first_len..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(r.take_frame(fnv).unwrap().is_some());
            assert_eq!(r.take_frame(fnv), Ok(None), "cut at {cut}");
            assert_eq!(r.position(), first_len, "cut at {cut}");
        }
    }

    #[test]
    fn a_flipped_payload_or_digest_byte_is_a_digest_mismatch() {
        let (bytes, first_len) = two_frames();
        for pos in 4..first_len {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            let mut r = ByteReader::new(&bad);
            assert_eq!(r.take_frame(fnv), Err(BadDigest), "flip at {pos}");
            assert_eq!(r.position(), 0, "flip at {pos}");
        }
        // A frame is checked with the digest family it was written with.
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_frame(fnv1a), Err(BadDigest));
    }
}
