//! Checkpointing: a small self-contained binary codec plus a versioned,
//! checksummed snapshot container.
//!
//! The workspace deliberately carries no serialisation crate, so everything
//! here is an explicit little-endian layout. Two layers:
//!
//! * [`Codec`] — types that can round-trip through a byte stream. All the
//!   parameter-carrying layers in this crate implement it; higher crates
//!   implement it for their own state. Errors are the typed
//!   [`PersistError`], never a panic, even on corrupt input.
//! * [`SnapshotWriter`] / [`SnapshotReader`] — a named-section container
//!   with a magic tag, format version, a `kind` string identifying what
//!   the snapshot holds, an FNV-1a checksum per section, and a trailing
//!   checksum over the whole stream. Any single-byte corruption or
//!   truncation is rejected with a precise error. [`SnapshotWriter::
//!   write_atomic`] persists via temp-file + rename so a crash mid-write
//!   never leaves a half-written snapshot under the final name.
//!
//! Tensors persist their Adam moments alongside the weights, so a resumed
//! optimiser continues on the exact same trajectory as an uninterrupted
//! run.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::adam::Adam;
use crate::embedding::Embedding;
use crate::linear::Linear;
use crate::lstm::{Lstm, LstmCell};
use crate::tensor::Tensor;

/// Magic bytes every snapshot container starts with.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"HFLS";
/// Current snapshot container format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Upper bound on a single section payload (guards allocation on corrupt
/// input).
const MAX_SECTION_BYTES: u64 = 1 << 31;
/// Upper bound on element counts in vector payloads.
const MAX_ELEMS: u64 = 1 << 28;

/// Why a save or load failed. Corrupt input always maps to a variant that
/// names what went wrong — never a panic.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O error.
    Io(io::Error),
    /// The stream does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The container version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The snapshot holds a different kind of state than expected.
    WrongKind {
        /// The kind the caller asked for.
        expected: String,
        /// The kind recorded in the snapshot.
        found: String,
    },
    /// A section's checksum does not match its payload.
    ChecksumMismatch {
        /// The section whose payload is corrupt.
        section: String,
    },
    /// A required section is absent.
    MissingSection {
        /// The section the caller asked for.
        section: String,
    },
    /// Structurally malformed input (truncation, implausible lengths,
    /// shape mismatches, trailing bytes). The message names the field.
    Corrupt(String),
    /// The operation is not supported by this type (e.g. a fuzzer without
    /// checkpoint support).
    Unsupported(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not an HFL snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            PersistError::WrongKind { expected, found } => {
                write!(
                    f,
                    "snapshot kind mismatch: expected {expected:?}, found {found:?}"
                )
            }
            PersistError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            PersistError::MissingSection { section } => {
                write!(f, "missing snapshot section {section:?}")
            }
            PersistError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            PersistError::Unsupported(what) => write!(f, "persistence unsupported: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            PersistError::Corrupt("unexpected end of input".to_owned())
        } else {
            PersistError::Io(e)
        }
    }
}

/// Shorthand for building a [`PersistError::Corrupt`].
pub fn corrupt(what: impl Into<String>) -> PersistError {
    PersistError::Corrupt(what.into())
}

/// Types that round-trip through the checkpoint codec.
pub trait Codec: Sized {
    /// Writes the value.
    ///
    /// # Errors
    /// Propagates I/O errors from the writer.
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError>;

    /// Reads a value written by [`Codec::save`].
    ///
    /// # Errors
    /// Returns a [`PersistError`] naming the problem on malformed input,
    /// plus any I/O error.
    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError>;

    /// Encodes the value to a byte vector.
    ///
    /// # Errors
    /// Propagates encoding errors.
    fn to_bytes(&self) -> Result<Vec<u8>, PersistError> {
        let mut buf = Vec::new();
        self.save(&mut buf)?;
        Ok(buf)
    }

    /// Decodes a value from `bytes`, requiring every byte to be consumed.
    ///
    /// # Errors
    /// Returns a [`PersistError`] on malformed or trailing input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = bytes;
        let value = Self::load(&mut r)?;
        if !r.is_empty() {
            return Err(corrupt(format!("{} trailing bytes after value", r.len())));
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Primitive little-endian helpers.
// ---------------------------------------------------------------------------

macro_rules! scalar_helpers {
    ($($write:ident / $read:ident : $t:ty [$n:expr]),* $(,)?) => {$(
        #[doc = concat!("Writes a `", stringify!($t), "` (little endian).")]
        ///
        /// # Errors
        /// Propagates I/O errors.
        pub fn $write<W: Write>(w: &mut W, value: $t) -> Result<(), PersistError> {
            w.write_all(&value.to_le_bytes())?;
            Ok(())
        }

        #[doc = concat!("Reads a `", stringify!($t), "` (little endian).")]
        ///
        /// # Errors
        /// Propagates I/O errors; EOF maps to [`PersistError::Corrupt`].
        pub fn $read<R: Read>(r: &mut R) -> Result<$t, PersistError> {
            let mut buf = [0u8; $n];
            r.read_exact(&mut buf)?;
            Ok(<$t>::from_le_bytes(buf))
        }
    )*};
}

scalar_helpers!(
    write_u64 / read_u64: u64[8],
    write_u32 / read_u32: u32[4],
    write_f32 / read_f32: f32[4],
    write_f64 / read_f64: f64[8],
);

/// Writes a `bool` as one byte.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_bool<W: Write>(w: &mut W, value: bool) -> Result<(), PersistError> {
    w.write_all(&[u8::from(value)])?;
    Ok(())
}

/// Reads a `bool`; any byte other than 0/1 is corrupt.
///
/// # Errors
/// Returns [`PersistError::Corrupt`] on a non-boolean byte.
pub fn read_bool<R: Read>(r: &mut R) -> Result<bool, PersistError> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    match buf[0] {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(corrupt(format!("invalid bool byte {b}"))),
    }
}

/// Writes a `usize` as `u64`.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_usize<W: Write>(w: &mut W, value: usize) -> Result<(), PersistError> {
    write_u64(w, value as u64)
}

/// Reads a `usize` written by [`write_usize`], bounded by `max`.
///
/// # Errors
/// Returns [`PersistError::Corrupt`] when the value exceeds `max` (a
/// plausibility guard for counts/lengths) or overflows `usize`.
pub fn read_usize<R: Read>(r: &mut R, max: u64, what: &str) -> Result<usize, PersistError> {
    let raw = read_u64(r)?;
    if raw > max {
        return Err(corrupt(format!("implausible {what}: {raw}")));
    }
    usize::try_from(raw).map_err(|_| corrupt(format!("{what} overflows usize")))
}

/// Writes a length-prefixed UTF-8 string.
///
/// # Errors
/// Propagates I/O errors; rejects strings longer than 64 KiB.
pub fn write_string<W: Write>(w: &mut W, value: &str) -> Result<(), PersistError> {
    if value.len() > 1 << 16 {
        return Err(corrupt(format!("string too long: {} bytes", value.len())));
    }
    write_u32(w, value.len() as u32)?;
    w.write_all(value.as_bytes())?;
    Ok(())
}

/// Reads a string written by [`write_string`].
///
/// # Errors
/// Returns [`PersistError::Corrupt`] on implausible length or invalid
/// UTF-8.
pub fn read_string<R: Read>(r: &mut R) -> Result<String, PersistError> {
    let len = read_u32(r)?;
    if len > 1 << 16 {
        return Err(corrupt(format!("implausible string length {len}")));
    }
    let mut bytes = vec![0u8; len as usize];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|_| corrupt("string is not UTF-8"))
}

/// Writes a length-prefixed `f32` vector.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_f32_vec<W: Write>(w: &mut W, values: &[f32]) -> Result<(), PersistError> {
    write_usize(w, values.len())?;
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&bytes)?;
    Ok(())
}

/// Reads a vector written by [`write_f32_vec`].
///
/// # Errors
/// Returns [`PersistError::Corrupt`] on implausible length.
pub fn read_f32_vec<R: Read>(r: &mut R) -> Result<Vec<f32>, PersistError> {
    let n = read_usize(r, MAX_ELEMS, "f32 vector length")?;
    read_f32_array(r, n)
}

/// Reads `n` raw little-endian `f32`s.
///
/// # Errors
/// Propagates I/O errors.
pub fn read_f32_array<R: Read>(r: &mut R, n: usize) -> Result<Vec<f32>, PersistError> {
    let mut bytes = vec![0u8; n * 4];
    r.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Writes `n` raw little-endian `f32`s (no length prefix).
///
/// # Errors
/// Propagates I/O errors.
pub fn write_f32_array<W: Write>(w: &mut W, values: &[f32]) -> Result<(), PersistError> {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&bytes)?;
    Ok(())
}

/// Writes a length-prefixed `u64` vector.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_u64_vec<W: Write>(w: &mut W, values: &[u64]) -> Result<(), PersistError> {
    write_usize(w, values.len())?;
    for v in values {
        write_u64(w, *v)?;
    }
    Ok(())
}

/// Reads a vector written by [`write_u64_vec`].
///
/// # Errors
/// Returns [`PersistError::Corrupt`] on implausible length.
pub fn read_u64_vec<R: Read>(r: &mut R) -> Result<Vec<u64>, PersistError> {
    let n = read_usize(r, MAX_ELEMS, "u64 vector length")?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(read_u64(r)?);
    }
    Ok(values)
}

// ---------------------------------------------------------------------------
// Snapshot container.
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over `bytes` — the per-section and trailer checksum.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Builds a named-section snapshot and writes it with checksums.
///
/// # Examples
///
/// ```
/// use hfl_nn::persist::{write_u64, SnapshotReader, SnapshotWriter};
///
/// let mut snap = SnapshotWriter::new("example");
/// snap.section("answer", |buf| write_u64(buf, 42)).unwrap();
/// let mut bytes = Vec::new();
/// snap.write_to(&mut bytes).unwrap();
/// let back = SnapshotReader::read_from(&mut &bytes[..]).unwrap();
/// assert_eq!(back.kind(), "example");
/// assert!(back.section("answer").is_ok());
/// ```
#[derive(Debug)]
pub struct SnapshotWriter {
    kind: String,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot of the given kind (e.g. `"generator"`,
    /// `"campaign"`).
    #[must_use]
    pub fn new(kind: &str) -> SnapshotWriter {
        SnapshotWriter {
            kind: kind.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Adds a section whose payload is produced by `fill`.
    ///
    /// # Errors
    /// Propagates errors from `fill`; rejects duplicate section names.
    pub fn section(
        &mut self,
        name: &str,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<(), PersistError>,
    ) -> Result<(), PersistError> {
        if self.sections.iter().any(|(n, _)| n == name) {
            return Err(corrupt(format!("duplicate section {name:?}")));
        }
        let mut payload = Vec::new();
        fill(&mut payload)?;
        self.sections.push((name.to_owned(), payload));
        Ok(())
    }

    /// Serialises the container: header, checksummed sections, and a
    /// trailing checksum over the entire stream.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        let mut body = Vec::new();
        body.extend_from_slice(SNAPSHOT_MAGIC);
        write_u32(&mut body, SNAPSHOT_VERSION)?;
        write_string(&mut body, &self.kind)?;
        write_u32(&mut body, self.sections.len() as u32)?;
        for (name, payload) in &self.sections {
            write_string(&mut body, name)?;
            write_u64(&mut body, payload.len() as u64)?;
            body.extend_from_slice(payload);
            write_u64(&mut body, fnv1a(payload))?;
        }
        let trailer = fnv1a(&body);
        w.write_all(&body)?;
        write_u64(w, trailer)?;
        Ok(())
    }

    /// Writes the snapshot to `path` atomically: the bytes go to a
    /// sibling `.tmp` file which is fsynced and then renamed over the
    /// final name, so a crash mid-write never corrupts an existing
    /// snapshot.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_atomic(&self, path: &Path) -> Result<(), PersistError> {
        let tmp = path.with_extension("tmp");
        {
            let mut file = std::fs::File::create(&tmp).map_err(PersistError::Io)?;
            let mut buf = io::BufWriter::new(&mut file);
            self.write_to(&mut buf)?;
            buf.flush()?;
            drop(buf);
            file.sync_all().map_err(PersistError::Io)?;
        }
        std::fs::rename(&tmp, path).map_err(PersistError::Io)?;
        Ok(())
    }
}

/// A parsed, checksum-verified snapshot.
#[derive(Debug)]
pub struct SnapshotReader {
    kind: String,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotReader {
    /// Reads and verifies a snapshot from `r`.
    ///
    /// # Errors
    /// Returns a precise [`PersistError`] on any corruption: bad magic,
    /// unknown version, implausible lengths, a failed per-section
    /// checksum (naming the section), or a failed trailer checksum.
    pub fn read_from<R: Read>(r: &mut R) -> Result<SnapshotReader, PersistError> {
        let mut all = Vec::new();
        r.read_to_end(&mut all).map_err(PersistError::Io)?;
        if all.len() < 8 {
            return Err(corrupt("snapshot shorter than its trailer checksum"));
        }
        let (body, trailer_bytes) = all.split_at(all.len() - 8);
        let trailer = u64::from_le_bytes(trailer_bytes.try_into().expect("8 bytes"));
        let parsed = Self::parse_body(body);
        if fnv1a(body) != trailer {
            // Prefer the precise parse error (it names what is corrupt);
            // fall back to the trailer mismatch when the body still parses.
            return Err(match parsed {
                Err(e) => e,
                Ok(_) => corrupt("snapshot trailer checksum mismatch"),
            });
        }
        parsed
    }

    fn parse_body(body: &[u8]) -> Result<SnapshotReader, PersistError> {
        let mut r = body;
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)
            .map_err(|_| corrupt("snapshot shorter than its magic"))?;
        if &magic != SNAPSHOT_MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = read_u32(&mut r)?;
        if version != SNAPSHOT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let kind = read_string(&mut r)?;
        let count = read_u32(&mut r)?;
        if count > 4096 {
            return Err(corrupt(format!("implausible section count {count}")));
        }
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let name = read_string(&mut r)?;
            let len = read_u64(&mut r)?;
            if len > MAX_SECTION_BYTES {
                return Err(corrupt(format!("section {name:?} implausibly large")));
            }
            if (r.len() as u64) < len {
                return Err(corrupt(format!("section {name:?} truncated")));
            }
            let (payload, rest) = r.split_at(len as usize);
            r = rest;
            let sum = read_u64(&mut r)?;
            if fnv1a(payload) != sum {
                return Err(PersistError::ChecksumMismatch { section: name });
            }
            sections.push((name, payload.to_vec()));
        }
        if !r.is_empty() {
            return Err(corrupt(format!(
                "{} trailing bytes after sections",
                r.len()
            )));
        }
        Ok(SnapshotReader { kind, sections })
    }

    /// Reads and verifies a snapshot file.
    ///
    /// # Errors
    /// Propagates I/O errors and any corruption error from
    /// [`SnapshotReader::read_from`].
    pub fn read_path(path: &Path) -> Result<SnapshotReader, PersistError> {
        let mut file = std::fs::File::open(path).map_err(PersistError::Io)?;
        SnapshotReader::read_from(&mut file)
    }

    /// The snapshot's kind string.
    #[must_use]
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Fails unless the snapshot is of the expected kind.
    ///
    /// # Errors
    /// Returns [`PersistError::WrongKind`] on mismatch.
    pub fn expect_kind(&self, expected: &str) -> Result<(), PersistError> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(PersistError::WrongKind {
                expected: expected.to_owned(),
                found: self.kind.clone(),
            })
        }
    }

    /// A section's payload.
    ///
    /// # Errors
    /// Returns [`PersistError::MissingSection`] when absent.
    pub fn section(&self, name: &str) -> Result<&[u8], PersistError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, payload)| payload.as_slice())
            .ok_or_else(|| PersistError::MissingSection {
                section: name.to_owned(),
            })
    }

    /// Decodes a section as a [`Codec`] value, requiring the payload to be
    /// fully consumed.
    ///
    /// # Errors
    /// Returns [`PersistError::MissingSection`] or any decode error.
    pub fn decode<T: Codec>(&self, name: &str) -> Result<T, PersistError> {
        T::from_bytes(self.section(name)?)
    }

    /// The section names, in write order.
    #[must_use]
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }
}

// ---------------------------------------------------------------------------
// Codec implementations for the parameter-carrying layers.
// ---------------------------------------------------------------------------

impl Codec for Tensor {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_u64(w, self.rows as u64)?;
        write_u64(w, self.cols as u64)?;
        // Weights plus Adam moments, so optimiser state survives a resume;
        // gradients are transient and rebuilt as zeros on load.
        write_f32_array(w, self.data())?;
        write_f32_array(w, &self.m)?;
        write_f32_array(w, &self.v)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let rows = read_usize(r, MAX_ELEMS, "tensor rows")?;
        let cols = read_usize(r, MAX_ELEMS, "tensor cols")?;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n as u64 <= MAX_ELEMS)
            .ok_or_else(|| corrupt("tensor too large"))?;
        let mut t = Tensor::from_vec(rows, cols, read_f32_array(r, n)?);
        t.m = read_f32_array(r, n)?;
        t.v = read_f32_array(r, n)?;
        Ok(t)
    }
}

impl Codec for Linear {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        self.w.save(w)?;
        self.b.save(w)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let weight = Tensor::load(r)?;
        let bias = Tensor::load(r)?;
        if bias.rows != weight.rows || bias.cols != 1 {
            return Err(corrupt("linear shape mismatch"));
        }
        Ok(Linear { w: weight, b: bias })
    }
}

impl Codec for Embedding {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        self.table.save(w)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        Ok(Embedding {
            table: Tensor::load(r)?,
        })
    }
}

impl Codec for LstmCell {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_u64(w, self.hidden() as u64)?;
        self.wx.save(w)?;
        self.wh.save(w)?;
        self.b.save(w)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let hidden = read_usize(r, MAX_ELEMS, "lstm hidden size")?;
        let wx = Tensor::load(r)?;
        let wh = Tensor::load(r)?;
        let b = Tensor::load(r)?;
        if wx.rows != 4 * hidden
            || wh.rows != 4 * hidden
            || wh.cols != hidden
            || b.rows != 4 * hidden
        {
            return Err(corrupt("lstm cell shape mismatch"));
        }
        LstmCell::from_parts(wx, wh, b, hidden).ok_or_else(|| corrupt("lstm cell rebuild failed"))
    }
}

impl Codec for Lstm {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_u64(w, self.cells.len() as u64)?;
        for cell in &self.cells {
            cell.save(w)?;
        }
        Ok(())
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let layers = read_usize(r, 64, "lstm layer count")?;
        if layers == 0 {
            return Err(corrupt("lstm with zero layers"));
        }
        let mut cells = Vec::with_capacity(layers);
        for _ in 0..layers {
            cells.push(LstmCell::load(r)?);
        }
        Ok(Lstm { cells })
    }
}

impl Codec for crate::lstm::LstmState {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_u64(w, self.h.len() as u64)?;
        for (h, c) in self.h.iter().zip(&self.c) {
            write_f32_vec(w, h)?;
            write_f32_vec(w, c)?;
        }
        Ok(())
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let layers = read_usize(r, 64, "lstm state layer count")?;
        let mut h = Vec::with_capacity(layers);
        let mut c = Vec::with_capacity(layers);
        for _ in 0..layers {
            h.push(read_f32_vec(r)?);
            c.push(read_f32_vec(r)?);
        }
        Ok(crate::lstm::LstmState { h, c })
    }
}

impl Codec for Adam {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_f32(w, self.lr)?;
        write_f32(w, self.beta1)?;
        write_f32(w, self.beta2)?;
        write_f32(w, self.eps)?;
        match self.clip_norm {
            Some(clip) => {
                write_bool(w, true)?;
                write_f32(w, clip)?;
            }
            None => write_bool(w, false)?,
        }
        write_u64(w, self.steps())
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let mut adam = Adam::new(read_f32(r)?);
        adam.beta1 = read_f32(r)?;
        adam.beta2 = read_f32(r)?;
        adam.eps = read_f32(r)?;
        adam.clip_norm = if read_bool(r)? {
            Some(read_f32(r)?)
        } else {
            None
        };
        adam.restore_steps(read_u64(r)?);
        Ok(adam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_snapshot() -> Vec<u8> {
        let mut snap = SnapshotWriter::new("test");
        snap.section("alpha", |buf| {
            write_u64(buf, 7)?;
            write_string(buf, "hello")
        })
        .unwrap();
        snap.section("beta", |buf| write_f32_vec(buf, &[1.0, -2.5, 3.25]))
            .unwrap();
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn snapshot_round_trip() {
        let bytes = sample_snapshot();
        let snap = SnapshotReader::read_from(&mut &bytes[..]).unwrap();
        assert_eq!(snap.kind(), "test");
        snap.expect_kind("test").unwrap();
        assert!(matches!(
            snap.expect_kind("other"),
            Err(PersistError::WrongKind { .. })
        ));
        assert_eq!(snap.section_names(), vec!["alpha", "beta"]);
        let mut alpha = snap.section("alpha").unwrap();
        assert_eq!(read_u64(&mut alpha).unwrap(), 7);
        assert_eq!(read_string(&mut alpha).unwrap(), "hello");
        let mut beta = snap.section("beta").unwrap();
        assert_eq!(read_f32_vec(&mut beta).unwrap(), vec![1.0, -2.5, 3.25]);
        assert!(matches!(
            snap.section("gamma"),
            Err(PersistError::MissingSection { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample_snapshot();
        for i in 0..bytes.len() {
            for bit in [1u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                let result =
                    SnapshotReader::read_from(&mut &bad[..]).and_then(|s| s.expect_kind("test"));
                assert!(result.is_err(), "flip at byte {i} (bit {bit:#x}) accepted");
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample_snapshot();
        for len in 0..bytes.len() {
            let result = SnapshotReader::read_from(&mut &bytes[..len]);
            assert!(result.is_err(), "truncation to {len} bytes accepted");
        }
    }

    #[test]
    fn corruption_errors_are_precise() {
        let bytes = sample_snapshot();
        // Magic damage reports BadMagic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            SnapshotReader::read_from(&mut &bad[..]),
            Err(PersistError::BadMagic)
        ));
        // Version damage reports the version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            SnapshotReader::read_from(&mut &bad[..]),
            Err(PersistError::UnsupportedVersion(99))
        ));
        // Payload damage names the corrupt section.
        let alpha_payload_offset = {
            // magic(4) version(4) kind(4+4) count(4) name(4+5) len(8)
            4 + 4 + 8 + 4 + 9 + 8
        };
        let mut bad = bytes.clone();
        bad[alpha_payload_offset] ^= 0x01;
        match SnapshotReader::read_from(&mut &bad[..]) {
            Err(PersistError::ChecksumMismatch { section }) => assert_eq!(section, "alpha"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_round_trips_and_cleans_temp() {
        let dir = std::env::temp_dir().join(format!("hfl-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.hfls");
        let mut snap = SnapshotWriter::new("atomic");
        snap.section("x", |buf| write_u64(buf, 1)).unwrap();
        snap.write_atomic(&path).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        let back = SnapshotReader::read_path(&path).unwrap();
        assert_eq!(back.kind(), "atomic");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tensor_round_trip_includes_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = Tensor::xavier(7, 5, &mut rng);
        t.m[3] = 0.25;
        t.v[9] = 1.5;
        t.grad[0] = 42.0;
        let bytes = t.to_bytes().unwrap();
        let back = Tensor::from_bytes(&bytes).unwrap();
        assert_eq!(back.rows, 7);
        assert_eq!(back.cols, 5);
        assert_eq!(back.data(), t.data());
        assert_eq!(back.m, t.m, "first moment persisted");
        assert_eq!(back.v, t.v, "second moment persisted");
        assert!(back.grad.iter().all(|&g| g == 0.0), "gradients transient");
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::xavier(4, 4, &mut rng);
        let bytes = t.to_bytes().unwrap();
        for len in [0, 7, bytes.len() - 3] {
            assert!(Tensor::from_bytes(&bytes[..len]).is_err());
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Tensor::from_bytes(&long).is_err());
    }

    #[test]
    fn linear_and_embedding_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = Linear::new(3, 4, &mut rng);
        let back = Linear::from_bytes(&l.to_bytes().unwrap()).unwrap();
        assert_eq!(
            back.forward(&[0.1, 0.2, 0.3, 0.4]),
            l.forward(&[0.1, 0.2, 0.3, 0.4])
        );

        let e = Embedding::new(11, 6, &mut rng);
        let back = Embedding::from_bytes(&e.to_bytes().unwrap()).unwrap();
        assert_eq!(back.forward(7), e.forward(7));
    }

    #[test]
    fn lstm_round_trip_preserves_behaviour() {
        let mut rng = StdRng::seed_from_u64(4);
        let lstm = Lstm::new(5, 8, 2, &mut rng);
        let back = Lstm::from_bytes(&lstm.to_bytes().unwrap()).unwrap();
        let xs = vec![vec![0.3; 5]; 4];
        assert_eq!(back.forward_seq(&xs).outputs, lstm.forward_seq(&xs).outputs);
    }

    #[test]
    fn shape_mismatch_is_corrupt() {
        // A Linear whose bias disagrees with its weight must not load.
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = Vec::new();
        Tensor::xavier(3, 4, &mut rng).save(&mut buf).unwrap();
        Tensor::zeros(2, 1).save(&mut buf).unwrap();
        assert!(matches!(
            Linear::load(&mut &buf[..]),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn adam_round_trip_preserves_schedule() {
        let mut adam = Adam::new(0.02);
        adam.clip_norm = Some(2.5);
        let mut t = Tensor::zeros(1, 2);
        for _ in 0..5 {
            t.grad = vec![1.0, -1.0];
            adam.step(&mut [&mut t]);
        }
        let back = Adam::from_bytes(&adam.to_bytes().unwrap()).unwrap();
        assert_eq!(back.steps(), 5);
        assert_eq!(back.lr, adam.lr);
        assert_eq!(back.clip_norm, adam.clip_norm);

        // A resumed optimiser applies the identical next update.
        let mut adam2 = back;
        let mut t2 = Tensor::from_bytes(&t.to_bytes().unwrap()).unwrap();
        t.grad = vec![0.5, 0.25];
        t2.grad = vec![0.5, 0.25];
        adam.step(&mut [&mut t]);
        adam2.step(&mut [&mut t2]);
        assert_eq!(t.data(), t2.data(), "bit-identical resumed update");
        assert_eq!(t.m, t2.m);
        assert_eq!(t.v, t2.v);
    }

    #[test]
    fn bool_codec_rejects_junk() {
        assert!(read_bool(&mut &[2u8][..]).is_err());
        assert!(!read_bool(&mut &[0u8][..]).unwrap());
        let mut buf = Vec::new();
        write_bool(&mut buf, true).unwrap();
        assert!(read_bool(&mut &buf[..]).unwrap());
    }
}
