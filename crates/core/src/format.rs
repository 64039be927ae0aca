//! The `LHDC` container: the one on-disk format for every artifact.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "LHDC"
//! 4       4     format version (u32, currently 1)
//! 8       1     artifact type  (1 = model, 2 = bundle, 3 = encoded corpus)
//! 9       1     compression    (0 = stored, 1 = bit-plane RLE)
//! 10      2     reserved, must be zero
//! 12      4     metadata length in bytes (u32)
//! 16      8     aux section length in bytes (u64)
//! 24      8     word-plane payload length in bytes (u64, multiple of 8)
//! 32      —     metadata: flat JSON object (compressed when compression=1)
//! …       —     aux section (artifact-specific, compressed when compression=1)
//! …       —     zero padding so the payload starts on a 64-byte boundary
//! …       —     word planes: packed u64 hypervector words, never compressed
//! ```
//!
//! The header records the *encoded* metadata/aux lengths, so a reader can
//! seek straight to the aligned payload and pull every hypervector word
//! with a single bulk read — no per-field (let alone per-bit) parsing on
//! the serve SWAP path. Packed binary hypervectors are incompressible by
//! construction (each bit is a fair coin), so the planes are always stored
//! raw; compression applies only to the metadata and aux sections, which
//! hold JSON text, varint label streams, and `f32` normalizer tables.
//! Whether those compress depends on the data (smooth normalizer tables
//! do, irregular ones do not), so the writer packs them and keeps whichever
//! encoding is smaller.
//!
//! The compressor is deliberately small and in-tree: an LEB128 varint
//! layer plus a stride-aware bit-plane RLE. The input is transposed by
//! `stride` (4 for `f32` tables so same-significance bytes become
//! contiguous, 1 for text), split into its 8 bit planes, and each plane is
//! run-length coded with varint run lengths alternating from a `0` run.
//! Sign/exponent planes of normalizer tables and the high bits of ASCII
//! collapse into a handful of runs.

use std::borrow::Cow;
use std::io::{Read, Write};

use crate::error::LehdcError;

/// First four bytes of every container file.
pub const MAGIC: [u8; 4] = *b"LHDC";

/// Current container format version.
pub const VERSION: u32 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 32;

/// Word-plane payload alignment: one cache line, so an aligned bulk read
/// lands the planes ready for the word-level kernels.
pub const PAYLOAD_ALIGN: usize = 64;

/// Caps on the header length fields: anything beyond these is a corrupt or
/// hostile file, rejected outright. Lengths within the caps size at most a
/// [`MAX_RESERVE`] reservation: sections are read as their bytes arrive.
const MAX_META_LEN: u64 = 1 << 22; // 4 MiB of metadata JSON
const MAX_AUX_LEN: u64 = 1 << 31; // 2 GiB of labels / normalizer tables
const MAX_PLANES_LEN: u64 = 1 << 37; // 128 GiB of packed hypervectors

/// Largest buffer reserved up front from a declared section length: enough
/// for a D = 10,000 model with hundreds of classes in one allocation, small
/// enough that a lying header costs nothing.
const MAX_RESERVE: u64 = 1 << 20;

/// What a container holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// A bare [`crate::HdcModel`]: class hypervectors only.
    Model,
    /// A deployable [`crate::io::ModelBundle`]: model + encoder spec +
    /// normalizer + optional distillation selection.
    Bundle,
    /// An encoded corpus ([`crate::EncodedDataset`]).
    Encoded,
}

impl Artifact {
    /// The type byte stored at offset 8.
    #[must_use]
    pub fn byte(self) -> u8 {
        match self {
            Artifact::Model => 1,
            Artifact::Bundle => 2,
            Artifact::Encoded => 3,
        }
    }

    /// Parses the type byte, rejecting unknown values.
    pub fn from_byte(b: u8) -> Result<Self, LehdcError> {
        match b {
            1 => Ok(Artifact::Model),
            2 => Ok(Artifact::Bundle),
            3 => Ok(Artifact::Encoded),
            other => Err(LehdcError::ModelFormat(format!(
                "unknown artifact type byte {other}"
            ))),
        }
    }

    /// Human-readable artifact name for error messages and `info`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Model => "model",
            Artifact::Bundle => "bundle",
            Artifact::Encoded => "encoded corpus",
        }
    }
}

/// How the metadata and aux sections are encoded. The writer picks the
/// smaller of the two (see [`write_container`]); readers decode both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Sections stored verbatim.
    Stored,
    /// Sections packed with the bit-plane RLE codec ([`pack`]).
    Packed,
}

impl Compression {
    /// The compression byte stored at offset 9.
    #[must_use]
    pub fn byte(self) -> u8 {
        match self {
            Compression::Stored => 0,
            Compression::Packed => 1,
        }
    }

    /// Parses the compression byte, rejecting unknown values.
    pub fn from_byte(b: u8) -> Result<Self, LehdcError> {
        match b {
            0 => Ok(Compression::Stored),
            1 => Ok(Compression::Packed),
            other => Err(LehdcError::ModelFormat(format!(
                "unknown compression byte {other}"
            ))),
        }
    }

    /// Human-readable codec name for error messages and `info`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Compression::Stored => "stored",
            Compression::Packed => "packed",
        }
    }
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 payload bits per byte, high bit set
/// on every byte except the last).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint from `bytes` starting at `*pos`, advancing it.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, LehdcError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or_else(|| LehdcError::ModelFormat("varint truncated".into()))?;
        *pos += 1;
        if shift >= 63 && b > 1 {
            return Err(LehdcError::ModelFormat("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Bit-plane RLE codec
// ---------------------------------------------------------------------------

/// Compresses `data`: `varint raw_len · varint stride · 8 RLE bit planes`.
///
/// The input is first transposed column-major with the given `stride` (use
/// the element size in bytes — 4 for `f32` tables — so that
/// same-significance bytes are adjacent), then each of the 8 bit positions
/// becomes one plane, run-length coded as varint run lengths alternating
/// in value starting from a `0` run.
#[must_use]
pub fn pack(data: &[u8], stride: usize) -> Vec<u8> {
    let stride = stride.max(1).min(data.len().max(1));
    let mut out = Vec::with_capacity(16 + data.len() / 4);
    write_varint(&mut out, data.len() as u64);
    write_varint(&mut out, stride as u64);
    if data.is_empty() {
        return out;
    }
    let transposed = transpose(data, stride);
    for plane in 0..8u32 {
        // Alternating runs: the decoder assumes the first run holds zeros.
        let mut current = 0u8;
        let mut run: u64 = 0;
        for &byte in &transposed {
            let bit = (byte >> plane) & 1;
            if bit == current {
                run += 1;
            } else {
                write_varint(&mut out, run);
                current = bit;
                run = 1;
            }
        }
        write_varint(&mut out, run);
    }
    out
}

/// Decompresses a [`pack`]ed stream, validating that every plane covers
/// exactly `raw_len` bits and that no bytes trail the final plane.
/// A few bytes of runs can describe any length, so a stream claiming more
/// than `max_len` bytes is rejected before anything is allocated.
pub fn unpack(packed: &[u8], max_len: u64) -> Result<Vec<u8>, LehdcError> {
    let mut pos = 0usize;
    let raw_len = read_varint(packed, &mut pos)?;
    if raw_len > max_len {
        return Err(LehdcError::ModelFormat(format!(
            "packed section claims {raw_len} bytes, more than the {max_len} allowed"
        )));
    }
    let raw_len = raw_len as usize;
    let stride = read_varint(packed, &mut pos)? as usize;
    if stride == 0 || (raw_len > 0 && stride > raw_len) {
        return Err(LehdcError::ModelFormat(format!(
            "compressed stream has invalid stride {stride} for {raw_len} bytes"
        )));
    }
    let mut transposed = vec![0u8; raw_len];
    if raw_len > 0 {
        for plane in 0..8u32 {
            let mut covered = 0usize;
            let mut current = 0u8;
            loop {
                let run = read_varint(packed, &mut pos)? as usize;
                if run > raw_len - covered {
                    return Err(LehdcError::ModelFormat(format!(
                        "bit plane {plane} overruns the declared length"
                    )));
                }
                if current == 1 {
                    for byte in &mut transposed[covered..covered + run] {
                        *byte |= 1 << plane;
                    }
                }
                covered += run;
                if covered == raw_len {
                    break;
                }
                current ^= 1;
            }
        }
    }
    if pos != packed.len() {
        return Err(LehdcError::ModelFormat(
            "trailing bytes after the final bit plane".into(),
        ));
    }
    Ok(untranspose(transposed, stride))
}

/// Column-major reorder: byte `i` of every stride-sized element first, then
/// byte `i+1`, … The tail element may be partial; its bytes keep their
/// column.
fn transpose(data: &[u8], stride: usize) -> Vec<u8> {
    if stride <= 1 {
        return data.to_vec();
    }
    let mut out = Vec::with_capacity(data.len());
    for col in 0..stride {
        let mut i = col;
        while i < data.len() {
            out.push(data[i]);
            i += stride;
        }
    }
    out
}

fn untranspose(data: Vec<u8>, stride: usize) -> Vec<u8> {
    if stride <= 1 {
        return data;
    }
    let mut out = vec![0u8; data.len()];
    let mut src = 0usize;
    for col in 0..stride {
        let mut i = col;
        while i < data.len() {
            out[i] = data[src];
            src += 1;
            i += stride;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Flat JSON metadata
// ---------------------------------------------------------------------------

/// A metadata value: the container's JSON is a single flat object.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaValue {
    /// Unsigned integer (dims, counts, seeds — never routed through f64,
    /// so 64-bit seeds survive exactly).
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// Builds the flat metadata object in insertion order.
#[derive(Debug, Default)]
pub struct MetaWriter {
    fields: Vec<(String, MetaValue)>,
}

impl MetaWriter {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.fields.push((key.to_string(), MetaValue::U64(v)));
        self
    }

    /// Adds a float field.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.fields.push((key.to_string(), MetaValue::F64(v)));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.fields
            .push((key.to_string(), MetaValue::Str(v.to_string())));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.fields.push((key.to_string(), MetaValue::Bool(v)));
        self
    }

    /// Renders the object as one-line JSON.
    #[must_use]
    pub fn finish(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&obs::json_escape(key));
            out.push_str("\":");
            match value {
                MetaValue::U64(v) => out.push_str(&v.to_string()),
                MetaValue::F64(v) => {
                    if v.is_finite() {
                        out.push_str(&format!("{v:?}"));
                    } else {
                        out.push_str("null");
                    }
                }
                MetaValue::Str(s) => {
                    out.push('"');
                    out.push_str(&obs::json_escape(s));
                    out.push('"');
                }
                MetaValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }
}

/// Parsed metadata with typed accessors that name the missing/mistyped key.
#[derive(Debug)]
pub struct Meta {
    fields: Vec<(String, MetaValue)>,
}

impl Meta {
    /// Looks a key up (first occurrence wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&MetaValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Required unsigned integer field.
    pub fn need_u64(&self, key: &str) -> Result<u64, LehdcError> {
        match self.get(key) {
            Some(MetaValue::U64(v)) => Ok(*v),
            Some(_) => Err(LehdcError::ModelFormat(format!(
                "metadata field {key:?} is not an unsigned integer"
            ))),
            None => Err(LehdcError::ModelFormat(format!(
                "metadata is missing field {key:?}"
            ))),
        }
    }

    /// Optional boolean field, defaulting to `false`.
    pub fn bool_or_false(&self, key: &str) -> Result<bool, LehdcError> {
        match self.get(key) {
            Some(MetaValue::Bool(b)) => Ok(*b),
            Some(_) => Err(LehdcError::ModelFormat(format!(
                "metadata field {key:?} is not a boolean"
            ))),
            None => Ok(false),
        }
    }

    /// Required `f32` recovered exactly from its `<key>_bits` companion
    /// (the decimal field is for human readers; the bits are authoritative).
    pub fn need_f32(&self, key: &str) -> Result<f32, LehdcError> {
        let bits = self.need_u64(&format!("{key}_bits"))?;
        u32::try_from(bits)
            .map(f32::from_bits)
            .map_err(|_| LehdcError::ModelFormat(format!("{key}_bits does not fit an f32")))
    }
}

/// Writes an `f32` as a human-readable decimal plus its exact bit pattern.
pub fn meta_f32(meta: &mut MetaWriter, key: &str, v: f32) {
    meta.f64(key, f64::from(v));
    meta.u64(&format!("{key}_bits"), u64::from(v.to_bits()));
}

/// Parses the flat JSON object produced by [`MetaWriter::finish`].
///
/// Accepts exactly the subset the writer emits (one object, string keys,
/// string / number / boolean / null values) — a full JSON parser is not
/// needed and not wanted in a hermetic workspace.
pub fn parse_meta(text: &str) -> Result<Meta, LehdcError> {
    let bad = |what: &str| LehdcError::ModelFormat(format!("metadata JSON: {what}"));
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let skip_ws = |pos: &mut usize| {
        while bytes
            .get(*pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            *pos += 1;
        }
    };
    skip_ws(&mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err(bad("expected '{'"));
    }
    pos += 1;
    let mut fields = Vec::new();
    skip_ws(&mut pos);
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(&mut pos);
            let key = parse_string(bytes, &mut pos)?;
            skip_ws(&mut pos);
            if bytes.get(pos) != Some(&b':') {
                return Err(bad("expected ':' after key"));
            }
            pos += 1;
            skip_ws(&mut pos);
            let value = match bytes.get(pos) {
                Some(b'"') => MetaValue::Str(parse_string(bytes, &mut pos)?),
                Some(b't') if bytes[pos..].starts_with(b"true") => {
                    pos += 4;
                    MetaValue::Bool(true)
                }
                Some(b'f') if bytes[pos..].starts_with(b"false") => {
                    pos += 5;
                    MetaValue::Bool(false)
                }
                Some(b'n') if bytes[pos..].starts_with(b"null") => {
                    pos += 4;
                    MetaValue::F64(f64::NAN)
                }
                Some(_) => parse_number(bytes, &mut pos)?,
                None => return Err(bad("truncated value")),
            };
            fields.push((key, value));
            skip_ws(&mut pos);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(bad("expected ',' or '}'")),
            }
        }
    }
    skip_ws(&mut pos);
    if pos != bytes.len() {
        return Err(bad("trailing characters after the object"));
    }
    Ok(Meta { fields })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, LehdcError> {
    let bad = |what: &str| LehdcError::ModelFormat(format!("metadata JSON: {what}"));
    if bytes.get(*pos) != Some(&b'"') {
        return Err(bad("expected '\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(bad("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| bad("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex).map_err(|_| bad("bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| bad("bad \\u escape"))?;
                        out.push(char::from_u32(code).ok_or_else(|| bad("bad \\u code point"))?);
                        *pos += 4;
                    }
                    _ => return Err(bad("unknown escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one full UTF-8 scalar (the input is a &str, so
                // boundaries are guaranteed valid).
                let rest = &bytes[*pos..];
                let text = unsafe { std::str::from_utf8_unchecked(rest) };
                let ch = text.chars().next().ok_or_else(|| bad("bad UTF-8"))?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<MetaValue, LehdcError> {
    let bad = |what: &str| LehdcError::ModelFormat(format!("metadata JSON: {what}"));
    let start = *pos;
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| bad("bad number"))?;
    if token.is_empty() {
        return Err(bad("expected a value"));
    }
    // Integers without fraction/exponent/sign stay exact u64 (seeds!).
    if token.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(v) = token.parse::<u64>() {
            return Ok(MetaValue::U64(v));
        }
    }
    token
        .parse::<f64>()
        .map(MetaValue::F64)
        .map_err(|_| bad("bad number"))
}

// ---------------------------------------------------------------------------
// Container write / read
// ---------------------------------------------------------------------------

/// A validated container header: what the fixed 32 bytes say about the file.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    /// Artifact type byte, decoded.
    pub artifact: Artifact,
    /// Compression byte, decoded.
    pub compression: Compression,
    meta_len: u64,
    aux_len: u64,
    planes_len: u64,
}

/// A container read back into memory, payload as one contiguous word vec.
#[derive(Debug)]
pub struct Container {
    /// Artifact type byte, decoded.
    pub artifact: Artifact,
    /// Metadata JSON, already decompressed.
    pub meta: String,
    /// All hypervector planes, concatenated in file order.
    pub words: Vec<u64>,
    compression: Compression,
    /// The aux section as the file holds it; see [`Container::aux`].
    aux_blob: Vec<u8>,
}

impl Container {
    /// The aux section, decompressed. `max_len` is the largest aux the
    /// parsed metadata allows, the bound [`unpack`] enforces. (A stored
    /// section is already in memory; its parser rejects unread bytes.)
    pub fn aux(&self, max_len: u64) -> Result<Cow<'_, [u8]>, LehdcError> {
        match self.compression {
            Compression::Stored => Ok(Cow::Borrowed(&self.aux_blob)),
            Compression::Packed => unpack(&self.aux_blob, max_len.min(MAX_AUX_LEN)).map(Cow::Owned),
        }
    }
}

/// Stride hint for aux sections dominated by `f32` tables.
pub const STRIDE_F32: usize = 4;
/// Stride hint for text and varint streams.
pub const STRIDE_BYTES: usize = 1;

/// Writes a complete container.
///
/// `planes` are written back-to-back in order; `aux_stride` is the codec
/// stride for the aux section. The metadata and aux sections are packed
/// with the bit-plane codec, and the packed bytes are kept only when they
/// are smaller than the raw sections (a tie stays stored); the compression
/// byte records the choice.
pub fn write_container<W: Write>(
    writer: &mut W,
    artifact: Artifact,
    meta_json: &str,
    aux: &[u8],
    aux_stride: usize,
    planes: &[&[u64]],
) -> Result<(), LehdcError> {
    let packed_meta = pack(meta_json.as_bytes(), STRIDE_BYTES);
    let packed_aux = pack(aux, aux_stride);
    let (compression, meta_blob, aux_blob) =
        if packed_meta.len() + packed_aux.len() < meta_json.len() + aux.len() {
            (
                Compression::Packed,
                packed_meta.as_slice(),
                packed_aux.as_slice(),
            )
        } else {
            (Compression::Stored, meta_json.as_bytes(), aux)
        };
    let meta_len = u32::try_from(meta_blob.len())
        .map_err(|_| LehdcError::ModelFormat("metadata too large".into()))?;
    let planes_len: usize = planes.iter().map(|p| p.len() * 8).sum();

    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&[artifact.byte(), compression.byte(), 0, 0])?;
    writer.write_all(&meta_len.to_le_bytes())?;
    writer.write_all(&(aux_blob.len() as u64).to_le_bytes())?;
    writer.write_all(&(planes_len as u64).to_le_bytes())?;
    writer.write_all(meta_blob)?;
    writer.write_all(aux_blob)?;
    let written = HEADER_LEN + meta_blob.len() + aux_blob.len();
    let pad = (PAYLOAD_ALIGN - written % PAYLOAD_ALIGN) % PAYLOAD_ALIGN;
    writer.write_all(&[0u8; PAYLOAD_ALIGN][..pad])?;
    for plane in planes {
        // One bulk write per plane: u64 → LE bytes.
        let mut bytes = Vec::with_capacity(plane.len() * 8);
        for word in *plane {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        writer.write_all(&bytes)?;
    }
    Ok(())
}

/// Reads and validates the fixed header: magic, version, artifact and
/// compression bytes, reserved bytes, and the section length caps.
///
/// # Errors
///
/// Returns [`LehdcError::ModelFormat`] for a file that is not an `LHDC`
/// container, is truncated, or has an invalid field.
pub(crate) fn read_header<R: Read>(reader: &mut R) -> Result<Header, LehdcError> {
    let header = read_section(reader, HEADER_LEN as u64)?;
    let (magic, fixed) = header.split_at(4);
    if magic != MAGIC {
        return Err(LehdcError::ModelFormat(format!(
            "bad magic \"{}\", not an LHDC container",
            magic.escape_ascii()
        )));
    }
    let version = u32::from_le_bytes(fixed[0..4].try_into().unwrap());
    if version != VERSION {
        return Err(LehdcError::ModelFormat(format!(
            "unsupported container version {version} (this build reads version {VERSION})"
        )));
    }
    let artifact = Artifact::from_byte(fixed[4])?;
    let compression = Compression::from_byte(fixed[5])?;
    if fixed[6] != 0 || fixed[7] != 0 {
        return Err(LehdcError::ModelFormat(
            "reserved header bytes are not zero".into(),
        ));
    }
    let meta_len = u64::from(u32::from_le_bytes(fixed[8..12].try_into().unwrap()));
    let aux_len = u64::from_le_bytes(fixed[12..20].try_into().unwrap());
    let planes_len = u64::from_le_bytes(fixed[20..28].try_into().unwrap());
    if meta_len > MAX_META_LEN || aux_len > MAX_AUX_LEN || planes_len > MAX_PLANES_LEN {
        return Err(LehdcError::ModelFormat(format!(
            "implausible section lengths (meta {meta_len}, aux {aux_len}, planes {planes_len})"
        )));
    }
    if planes_len % 8 != 0 {
        return Err(LehdcError::ModelFormat(format!(
            "payload length {planes_len} is not a whole number of u64 words"
        )));
    }
    Ok(Header {
        artifact,
        compression,
        meta_len,
        aux_len,
        planes_len,
    })
}

/// Reads a complete container, magic included.
///
/// Section buffers grow as bytes arrive (past a small up-front reservation),
/// so a header that declares more bytes than the file holds is a "file
/// truncated" error, never an allocation sized from the header.
///
/// # Errors
///
/// As [`read_header`], plus truncated sections, nonzero padding, and
/// undecodable packed metadata. The aux section is decoded on demand by
/// [`Container::aux`], once the metadata says how large it may be.
pub fn read_container<R: Read>(reader: &mut R) -> Result<Container, LehdcError> {
    let header = read_header(reader)?;
    let meta_blob = read_section(reader, header.meta_len)?;
    let aux_blob = read_section(reader, header.aux_len)?;
    let consumed = HEADER_LEN + meta_blob.len() + aux_blob.len();
    let pad = (PAYLOAD_ALIGN - consumed % PAYLOAD_ALIGN) % PAYLOAD_ALIGN;
    if read_section(reader, pad as u64)?.iter().any(|&b| b != 0) {
        return Err(LehdcError::ModelFormat(
            "alignment padding is not zeroed".into(),
        ));
    }

    let meta_bytes = match header.compression {
        Compression::Stored => meta_blob,
        Compression::Packed => unpack(&meta_blob, MAX_META_LEN)?,
    };
    let meta = String::from_utf8(meta_bytes)
        .map_err(|_| LehdcError::ModelFormat("metadata is not valid UTF-8".into()))?;

    // The payload is one bulk read — word planes need no parsing.
    let payload = read_section(reader, header.planes_len)?;
    let words = payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();

    Ok(Container {
        artifact: header.artifact,
        meta,
        words,
        compression: header.compression,
        aux_blob,
    })
}

/// Reads exactly `len` bytes. At most [`MAX_RESERVE`] bytes are reserved
/// on the header's word; beyond that the buffer grows only as bytes arrive.
fn read_section<R: Read>(reader: &mut R, len: u64) -> Result<Vec<u8>, LehdcError> {
    let mut buf = Vec::with_capacity(len.min(MAX_RESERVE) as usize);
    reader.take(len).read_to_end(&mut buf)?;
    if buf.len() as u64 == len {
        Ok(buf)
    } else {
        Err(LehdcError::ModelFormat("file truncated".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_codec(data: &[u8], stride: usize) {
        let packed = pack(data, stride);
        let back = unpack(&packed, data.len() as u64).expect("unpack");
        assert_eq!(back, data, "codec roundtrip failed (stride {stride})");
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(read_varint(&buf[..buf.len() - 1], &mut pos).is_err());
        // 10 continuation bytes push past 64 bits.
        let over = [0xffu8; 10];
        let mut pos = 0;
        assert!(read_varint(&over, &mut pos).is_err());
    }

    #[test]
    fn codec_roundtrips_structured_data() {
        roundtrip_codec(b"", 1);
        roundtrip_codec(b"a", 4);
        roundtrip_codec(b"{\"dim\":10000,\"classes\":26}", 1);
        let floats: Vec<u8> = (0..256)
            .flat_map(|i| (i as f32 / 255.0).to_le_bytes())
            .collect();
        roundtrip_codec(&floats, 4);
        // Stride that does not divide the length (partial tail element).
        roundtrip_codec(&floats[..floats.len() - 3], 4);
        roundtrip_codec(&floats, 7);
    }

    #[test]
    fn codec_compresses_f32_tables() {
        // A normalizer-style table: smooth values in [0, 1).
        let floats: Vec<u8> = (0..1024)
            .flat_map(|i| (i as f32 / 1024.0).to_le_bytes())
            .collect();
        let packed = pack(&floats, STRIDE_F32);
        assert!(
            packed.len() < floats.len(),
            "expected compression: {} -> {}",
            floats.len(),
            packed.len()
        );
    }

    #[test]
    fn unpack_rejects_corrupt_streams() {
        let packed = pack(b"hello world, hello world", 1);
        // Truncation at every prefix errors, never panics.
        for cut in 0..packed.len() {
            assert!(unpack(&packed[..cut], u64::MAX).is_err(), "cut {cut} accepted");
        }
        // Trailing garbage after the final plane.
        let mut trailing = packed.clone();
        trailing.push(0x00);
        assert!(unpack(&trailing, u64::MAX).is_err());
        // Zero stride.
        let mut zero_stride = Vec::new();
        write_varint(&mut zero_stride, 4);
        write_varint(&mut zero_stride, 0);
        assert!(unpack(&zero_stride, u64::MAX).is_err());
    }

    #[test]
    fn meta_roundtrips_types_and_escapes() {
        let mut w = MetaWriter::new();
        w.u64("dim", 10_000)
            .u64("seed", u64::MAX)
            .bool("normalizer", true)
            .str("provenance", "lehdc \"v1\"\nline2")
            .f64("ratio", 0.25);
        meta_f32(&mut w, "vmin", -1.5e-7);
        let json = w.finish();
        let meta = parse_meta(&json).expect("parse");
        assert_eq!(meta.need_u64("dim").unwrap(), 10_000);
        assert_eq!(meta.need_u64("seed").unwrap(), u64::MAX);
        assert!(meta.bool_or_false("normalizer").unwrap());
        assert!(!meta.bool_or_false("missing").unwrap());
        assert_eq!(
            meta.get("provenance"),
            Some(&MetaValue::Str("lehdc \"v1\"\nline2".to_string()))
        );
        assert_eq!(meta.need_f32("vmin").unwrap(), -1.5e-7f32);
        assert!(meta.need_u64("absent").is_err());
        // The writer's output is valid by obs's own JSON validator too.
        obs::validate_json_line(&json).expect("valid JSON line");
    }

    #[test]
    fn meta_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "[1]",
            "{\"a\":qq}",
        ] {
            assert!(parse_meta(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn container_roundtrips_both_encodings() {
        let planes: Vec<u64> = (0..37)
            .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left(i))
            .collect();
        // Long zero runs pack; a short irregular aux does not.
        let smooth = vec![0u8; 4096];
        let irregular: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(151) ^ 0x5a).collect();
        for (aux, want) in [
            (&smooth, Compression::Packed),
            (&irregular, Compression::Stored),
        ] {
            let mut buf = Vec::new();
            write_container(
                &mut buf,
                Artifact::Model,
                "{\"dim\":2368,\"classes\":1}",
                aux,
                STRIDE_BYTES,
                &[&planes],
            )
            .expect("write");
            assert_eq!(buf[9], want.byte());
            let mut reader = &buf[..];
            let c = read_container(&mut reader).expect("read");
            assert_eq!(c.artifact, Artifact::Model);
            assert_eq!(c.meta, "{\"dim\":2368,\"classes\":1}");
            assert_eq!(c.aux(aux.len() as u64).unwrap().as_ref(), aux.as_slice());
            assert_eq!(c.aux(aux.len() as u64 - 1).is_err(), want == Compression::Packed);
            assert_eq!(c.words, planes);
            assert!(reader.is_empty(), "reader must consume the whole file");
        }
    }

    #[test]
    fn payload_is_cache_line_aligned() {
        for meta in ["{}", "{\"k\":1}", &format!("{{\"pad\":{}}}", "9".repeat(100))] {
            let mut buf = Vec::new();
            write_container(
                &mut buf,
                Artifact::Model,
                meta,
                &[7; 13],
                STRIDE_BYTES,
                &[&[u64::MAX]],
            )
            .expect("write");
            let payload_off = buf.len() - 8;
            assert_eq!(payload_off % PAYLOAD_ALIGN, 0, "meta {meta:?}");
            assert_eq!(&buf[payload_off..], &[0xff; 8]);
        }
    }

    #[test]
    fn header_rejects_bad_fields() {
        let mut buf = Vec::new();
        write_container(&mut buf, Artifact::Bundle, "{}", &[], 1, &[]).expect("write");
        assert_eq!(buf[9], Compression::Stored.byte());
        let check = |mutate: fn(&mut Vec<u8>), what: &str| {
            let mut bad = buf.clone();
            mutate(&mut bad);
            assert!(read_container(&mut &bad[..]).is_err(), "{what} accepted");
        };
        check(|b| b[0] = b'X', "bad magic");
        check(|b| b[4] = 99, "bad version");
        check(|b| b[8] = 0, "artifact byte 0");
        check(|b| b[9] = 7, "unknown compression");
        check(|b| b[10] = 1, "reserved byte");
        check(|b| b[24] = 3, "non-word payload length");
        check(|b| b[31] = 0xff, "implausible planes length");
        check(|b| b[40] = 1, "nonzero padding"); // "{}" stored: meta at 32..34, pad 34..64
    }
}
