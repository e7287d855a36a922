//! Deterministic checkpoint/restore substrate.
//!
//! Long SMT simulations are preemptible work: a campaign job that hits
//! its wall-clock deadline or a SIGTERM should park its simulated
//! cycles on disk, not discard them. This crate is the serialization
//! substrate that makes that possible without dragging in an external
//! serialization framework (the build environment is offline):
//!
//! * [`Snap`] — a minimal save/load trait over a little-endian binary
//!   codec ([`SnapWriter`] / [`SnapReader`]). Implemented here for
//!   primitives, tuples, arrays, `Option`, `Vec`, `VecDeque`,
//!   `String`; simulator crates implement it for their own state.
//! * A **snapshot container** ([`write_container`] /
//!   [`read_container`]): magic, schema version, config-hash binding,
//!   cycle stamp, and a CRC32 over everything after the magic.
//!   [`SnapWriter::open_container`] writes one in place, so containers
//!   nest inside a payload without copying its bytes. A snapshot
//!   with any flipped bit fails the CRC and is rejected with a typed
//!   [`SnapError`]; a snapshot from a different machine/workload
//!   configuration fails the config-hash binding. Restores never
//!   silently accept mismatched state.
//!
//! The codec is deliberately positional (no field tags): snapshots are
//! written and read by the same binary, bound by `SNAPSHOT_SCHEMA_VERSION`,
//! so self-description would buy nothing and cost determinism-relevant
//! bytes. Everything is little-endian and bit-exact — `f64` round-trips
//! through `to_bits` so restored accumulators are *identical*, not just
//! approximately equal, which the resume-identity guarantee requires.

use std::collections::VecDeque;

/// Bump when the serialized layout of any snapshotted structure
/// changes. Restore rejects other versions with
/// [`SnapError::SchemaMismatch`] rather than misinterpreting bytes.
/// v2 stores the AVF collector's ACE-window entries compactly (producer
/// distances and a timing record instead of a copy of each
/// instruction record).
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 2;

/// Leading magic of a snapshot container file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SMTSNAP\x01";

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Reader ran past the end of the payload (torn or truncated data).
    Eof,
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Container written by a different snapshot schema.
    SchemaMismatch { found: u32, expected: u32 },
    /// Container written under a different machine/workload config.
    ConfigMismatch { found: u64, expected: u64 },
    /// CRC32 over the container body does not match — at least one bit
    /// of the file differs from what was written.
    ChecksumMismatch { found: u32, expected: u32 },
    /// Payload decoded but a value was structurally impossible
    /// (bad enum tag, occupancy above capacity, ...).
    Corrupt(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Eof => write!(f, "unexpected end of snapshot data"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::SchemaMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot schema v{found}, this binary expects v{expected}"
                )
            }
            SnapError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot bound to config {found:#018x}, run uses {expected:#018x}"
            ),
            SnapError::ChecksumMismatch { found, expected } => write!(
                f,
                "snapshot checksum {found:#010x} != computed {expected:#010x} (corrupt file)"
            ),
            SnapError::Corrupt(detail) => write!(f, "corrupt snapshot payload: {detail}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only little-endian byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Serialize any [`Snap`] value (convenience for call chains).
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.save(self);
    }

    /// Open a `u64` length prefix: write a placeholder that
    /// [`Self::close_len`] patches with the byte count written after it.
    pub fn open_len(&mut self) -> LenMark {
        let at = self.buf.len();
        self.put_u64(0);
        LenMark(at)
    }

    /// Patch the prefix `mark` opened with the bytes written since.
    pub fn close_len(&mut self, mark: LenMark) {
        let from = mark.0 + 8;
        let len = (self.buf.len() - from) as u64;
        self.buf[mark.0..from].copy_from_slice(&len.to_le_bytes());
    }

    /// Open a snapshot container in place: everything written until
    /// [`Self::close_container`] is its payload. Containers nest, so a
    /// payload can hold other containers without copying them.
    pub fn open_container(&mut self, config_hash: u64, cycle: u64) -> ContainerMark {
        self.put_bytes(&SNAPSHOT_MAGIC);
        let body = self.buf.len();
        self.put_u32(SNAPSHOT_SCHEMA_VERSION);
        self.put_u64(config_hash);
        self.put_u64(cycle);
        ContainerMark {
            body,
            payload: self.open_len(),
        }
    }

    /// Close the container `mark` opened: patch its payload length and
    /// append the CRC of its body.
    pub fn close_container(&mut self, mark: ContainerMark) {
        self.close_len(mark.payload);
        let crc = crc32(&self.buf[mark.body..]);
        self.put_u32(crc);
    }
}

/// A length prefix opened by [`SnapWriter::open_len`].
#[must_use = "close the length prefix with `SnapWriter::close_len`"]
#[derive(Debug)]
pub struct LenMark(usize);

/// A container opened by [`SnapWriter::open_container`].
#[must_use = "close the container with `SnapWriter::close_container`"]
#[derive(Debug)]
pub struct ContainerMark {
    /// Offset of the schema field, where the CRC's coverage starts.
    body: usize,
    payload: LenMark,
}

/// Positional reader over a snapshot payload. Every read is
/// bounds-checked; running off the end is [`SnapError::Eof`], never a
/// panic — torn files must surface as typed corruption.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(data: &'a [u8]) -> SnapReader<'a> {
        SnapReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take_bytes(1)?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take_bytes(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    /// Deserialize any [`Snap`] value (convenience for call chains).
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::load(self)
    }

    /// A collection length; rejects lengths that could not possibly fit
    /// in the remaining payload so a corrupt length fails fast instead
    /// of attempting a giant allocation.
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        let n = self.get_u64()? as usize;
        if n > self.remaining() {
            return Err(SnapError::Corrupt(format!(
                "collection length {n} exceeds remaining {} payload bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Bit-exact save/load of one value through the snapshot codec.
pub trait Snap: Sized {
    fn save(&self, w: &mut SnapWriter);
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for u8 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u8()
    }
}

impl Snap for u16 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u16(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u16()
    }
}

impl Snap for u32 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u32()
    }
}

impl Snap for u64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u64()
    }
}

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }
}

impl Snap for i64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.get_u64()? as i64)
    }
}

impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u8(*self as u8);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt(format!("bad bool tag {other}"))),
        }
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let bytes = r.take_bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            other => Err(SnapError::Corrupt(format!("bad Option tag {other}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut out = VecDeque::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::Corrupt("array length".into()))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — the checksum every snapshot container
// carries. Slice-by-16: table `k` advances the CRC of one byte through
// `k` further zero bytes, so 16 lookups fold 16 input bytes at once.
// The tables are built at compile time.
// ---------------------------------------------------------------------------

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Snapshot container: magic | body | crc32(body), where
// body = schema u32 | config_hash u64 | cycle u64 | payload_len u64 | payload.
// ---------------------------------------------------------------------------

/// Header fields of a decoded snapshot container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    pub schema: u32,
    pub config_hash: u64,
    /// Simulated cycle at which the snapshot was taken.
    pub cycle: u64,
}

/// Wrap a serialized payload in the checksummed container format.
/// Writers that serialize straight into the container use
/// [`SnapWriter::open_container`] instead.
pub fn write_container(config_hash: u64, cycle: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    let c = w.open_container(config_hash, cycle);
    w.put_bytes(payload);
    w.close_container(c);
    w.into_bytes()
}

/// Validate and unwrap a snapshot container. The CRC is checked
/// *before* any field is trusted, so a file with any flipped bit —
/// header or payload — is rejected, never partially interpreted.
/// `expected_config_hash` binds the snapshot to the current run
/// configuration.
pub fn read_container(
    data: &[u8],
    expected_config_hash: u64,
) -> Result<(SnapshotHeader, &[u8]), SnapError> {
    if data.len() < 8 || data[..8] != SNAPSHOT_MAGIC {
        return Err(SnapError::BadMagic);
    }
    if data.len() < 8 + 28 + 4 {
        return Err(SnapError::Eof);
    }
    let body = &data[8..data.len() - 4];
    let stored_crc = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
    let computed = crc32(body);
    if stored_crc != computed {
        return Err(SnapError::ChecksumMismatch {
            found: stored_crc,
            expected: computed,
        });
    }
    let mut r = SnapReader::new(body);
    let schema = r.get_u32()?;
    if schema != SNAPSHOT_SCHEMA_VERSION {
        return Err(SnapError::SchemaMismatch {
            found: schema,
            expected: SNAPSHOT_SCHEMA_VERSION,
        });
    }
    let config_hash = r.get_u64()?;
    if config_hash != expected_config_hash {
        return Err(SnapError::ConfigMismatch {
            found: config_hash,
            expected: expected_config_hash,
        });
    }
    let cycle = r.get_u64()?;
    let payload_len = r.get_u64()? as usize;
    if payload_len != r.remaining() {
        return Err(SnapError::Corrupt(format!(
            "payload length {payload_len} != {} bytes present",
            r.remaining()
        )));
    }
    let payload = r.take_bytes(payload_len)?;
    Ok((
        SnapshotHeader {
            schema,
            config_hash,
            cycle,
        },
        payload,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_bit_exact() {
        let mut w = SnapWriter::new();
        w.put(&0xABu8);
        w.put(&0xBEEFu16);
        w.put(&0xDEAD_BEEFu32);
        w.put(&u64::MAX);
        w.put(&usize::MAX);
        w.put(&(-42i64));
        w.put(&f64::NAN);
        w.put(&(-0.0f64));
        w.put(&true);
        w.put(&String::from("naïve"));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<u8>().unwrap(), 0xAB);
        assert_eq!(r.get::<u16>().unwrap(), 0xBEEF);
        assert_eq!(r.get::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX);
        assert_eq!(r.get::<usize>().unwrap(), usize::MAX);
        assert_eq!(r.get::<i64>().unwrap(), -42);
        // f64 must round-trip by bits, including NaN payload and -0.0.
        assert_eq!(r.get::<f64>().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.get::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get::<bool>().unwrap());
        assert_eq!(r.get::<String>().unwrap(), "naïve");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn containers_roundtrip() {
        let mut w = SnapWriter::new();
        w.put(&vec![1u64, 2, 3]);
        w.put(&Some(7u32));
        w.put(&Option::<u32>::None);
        w.put(&[9u8; 4]);
        w.put(&(1u32, 2u64));
        let mut dq = VecDeque::new();
        dq.push_back(5u16);
        dq.push_back(6u16);
        w.put(&dq);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get::<Option<u32>>().unwrap(), Some(7));
        assert_eq!(r.get::<Option<u32>>().unwrap(), None);
        assert_eq!(r.get::<[u8; 4]>().unwrap(), [9; 4]);
        assert_eq!(r.get::<(u32, u64)>().unwrap(), (1, 2));
        assert_eq!(r.get::<VecDeque<u16>>().unwrap(), dq);
    }

    #[test]
    fn truncated_reads_are_eof_not_panic() {
        let mut w = SnapWriter::new();
        w.put(&0xFFFF_FFFFu32);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..2]);
        assert_eq!(r.get::<u32>(), Err(SnapError::Eof));
    }

    #[test]
    fn absurd_collection_length_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // claimed length far past payload end
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.get::<Vec<u8>>(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn bad_enum_tags_rejected() {
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(r.get::<bool>(), Err(SnapError::Corrupt(_))));
        let mut r = SnapReader::new(&[7, 0, 0, 0, 0]);
        assert!(matches!(r.get::<Option<u32>>(), Err(SnapError::Corrupt(_))));
    }

    /// The one-byte-per-step CRC the sliced one must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_oracle() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..16 + 256)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=256 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, length {len}"
                );
            }
        }
    }

    /// A checkpoint-shaped file written in place: an outer container
    /// holding a length-prefixed inner container and length-prefixed
    /// trailing bytes. Also returns the inner container's byte range.
    fn nested_in_place() -> (Vec<u8>, std::ops::Range<usize>) {
        let mut w = SnapWriter::new();
        let outer = w.open_container(7, 30_000);
        let len = w.open_len();
        let from = w.len();
        let inner = w.open_container(9, 20_000);
        w.put_bytes(b"machine");
        w.close_container(inner);
        let to = w.len();
        w.close_len(len);
        let len = w.open_len();
        w.put_bytes(b"collector");
        w.close_len(len);
        w.close_container(outer);
        (w.into_bytes(), from..to)
    }

    #[test]
    fn nested_in_place_equals_composed_containers() {
        let inner = write_container(9, 20_000, b"machine");
        let mut payload = SnapWriter::new();
        payload.put_u64(inner.len() as u64);
        payload.put_bytes(&inner);
        payload.put_u64(b"collector".len() as u64);
        payload.put_bytes(b"collector");
        let composed = write_container(7, 30_000, &payload.into_bytes());
        let (file, range) = nested_in_place();
        assert_eq!(file, composed);
        assert_eq!(file[range], inner[..]);
    }

    #[test]
    fn container_roundtrip_and_header() {
        let payload = b"simulator state bytes";
        let file = write_container(0x1234_5678_9ABC_DEF0, 40_000, payload);
        let (hdr, body) = read_container(&file, 0x1234_5678_9ABC_DEF0).unwrap();
        assert_eq!(hdr.schema, SNAPSHOT_SCHEMA_VERSION);
        assert_eq!(hdr.cycle, 40_000);
        assert_eq!(body, payload);
    }

    #[test]
    fn every_flipped_bit_is_rejected() {
        let file = write_container(42, 10_000, b"payload");
        for byte in 0..file.len() {
            for bit in 0..8 {
                let mut bad = file.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    read_container(&bad, 42).is_err(),
                    "flip at byte {byte} bit {bit} was silently accepted"
                );
            }
        }

        // Nested: the outer CRC rejects a flip in the outer header, the
        // inner container or the trailing bytes. With the outer CRC
        // recomputed over a flip inside the inner container, the inner
        // CRC still rejects it.
        let (file, inner) = nested_in_place();
        let crc_at = file.len() - 4;
        // The outer payload starts after the magic and a 28-byte header.
        let in_payload = inner.start - 36..inner.end - 36;
        let read_inner = |f: &[u8]| {
            let (_, payload) = read_container(f, 7).unwrap();
            read_container(&payload[in_payload.clone()], 9).map(|(_, p)| p.to_vec())
        };
        assert_eq!(read_inner(&file).unwrap(), b"machine");
        for byte in 0..file.len() {
            for bit in 0..8 {
                let mut bad = file.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    read_container(&bad, 7).is_err(),
                    "nested flip at byte {byte} bit {bit} was silently accepted"
                );
                if inner.contains(&byte) {
                    let crc = crc32(&bad[8..crc_at]);
                    bad[crc_at..].copy_from_slice(&crc.to_le_bytes());
                    assert!(
                        read_inner(&bad).is_err(),
                        "inner flip at byte {byte} bit {bit} passed the inner CRC"
                    );
                }
            }
        }
    }

    #[test]
    fn config_hash_binding_enforced() {
        let file = write_container(1, 0, b"x");
        assert!(matches!(
            read_container(&file, 2),
            Err(SnapError::ConfigMismatch {
                found: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn truncated_container_rejected() {
        let file = write_container(1, 0, b"some payload");
        for cut in [0, 7, 8, 20, file.len() - 5, file.len() - 1] {
            assert!(
                read_container(&file[..cut], 1).is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn other_schema_is_a_typed_mismatch() {
        // A container as the previous schema wrote it, CRC intact.
        let mut file = write_container(1, 0, b"x");
        file[8..12].copy_from_slice(&1u32.to_le_bytes());
        let body = file.len() - 4;
        let crc = crc32(&file[8..body]);
        file[body..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            read_container(&file, 1).unwrap_err(),
            SnapError::SchemaMismatch {
                found: 1,
                expected: SNAPSHOT_SCHEMA_VERSION
            }
        );
    }

    #[test]
    fn wrong_magic_is_bad_magic() {
        let mut file = write_container(1, 0, b"x");
        file[0] = b'X';
        assert_eq!(read_container(&file, 1).unwrap_err(), SnapError::BadMagic);
    }
}
