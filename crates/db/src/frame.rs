//! The journal frame: the one byte format of a captured mutation.
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = [kind: u8] [gen: u64 LE] [offset: u64 LE] [data ...]
//! ```
//!
//! [`Database`](crate::Database)'s capture hook appends one finished
//! frame per mutation ([`push_frame`]) and the durable store writes
//! those bytes unchanged, so a mutation has no second form between the
//! write and the disk. Readers decode in place: [`Frame::decode`]
//! checks a frame read back from disk, [`frames`] walks frames that
//! were encoded here or already checked. Neither panics on any bytes.

use crate::crc::crc32;

/// Frame header size: length prefix + CRC.
pub const FRAME_HEADER: usize = 8;

/// Payload prefix: kind byte + generation + offset.
pub const PAYLOAD_PREFIX: usize = 1 + 8 + 8;

/// Upper bound on one payload, as a framing sanity check — a length
/// prefix above this is treated as tail damage, not an allocation
/// request.
const MAX_PAYLOAD: usize = 16 << 20;

/// What a frame records; the discriminant is the kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A region write.
    Region = 1,
    /// A golden-image commit.
    Golden = 2,
    /// A journal compaction marker: records with `gen ≤` the marker's
    /// generation were reclaimed. It carries no data.
    Compaction = 3,
}

/// Why the bytes at a position are not a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does (a torn append).
    Torn,
    /// The frame is whole but fails its CRC or carries an impossible
    /// kind or length.
    Corrupt,
}

/// One frame, decoded in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// What the frame records.
    pub kind: FrameKind,
    /// The mutation generation (for a marker, the compaction horizon).
    pub gen: u64,
    /// Byte offset within the region (or golden image).
    pub offset: usize,
    /// The bytes as written.
    pub bytes: &'a [u8],
    /// The whole frame as encoded, header included.
    pub raw: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Decodes the frame at the head of `buf`, checking its length and
    /// its CRC.
    ///
    /// # Errors
    ///
    /// [`FrameError::Torn`] when `buf` ends inside the frame,
    /// [`FrameError::Corrupt`] when the frame is whole but fails its
    /// CRC or carries an impossible kind or length.
    pub fn decode(buf: &'a [u8]) -> Result<Self, FrameError> {
        Frame::parse(buf, true)
    }

    fn parse(buf: &'a [u8], check_crc: bool) -> Result<Self, FrameError> {
        let Some((&[l0, l1, l2, l3, c0, c1, c2, c3], rest)) = buf.split_first_chunk() else {
            return Err(FrameError::Torn);
        };
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if !(PAYLOAD_PREFIX..=MAX_PAYLOAD).contains(&len) {
            // An impossible length prefix: if the rest of the buffer
            // could not hold it anyway, call it a torn tail.
            return Err(if len > rest.len() { FrameError::Torn } else { FrameError::Corrupt });
        }
        let (Some(raw), Some(payload)) = (buf.get(..FRAME_HEADER + len), rest.get(..len)) else {
            return Err(FrameError::Torn);
        };
        if check_crc && crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
            return Err(FrameError::Corrupt);
        }
        let fields = || {
            let (&kind, rest) = payload.split_first()?;
            let (gen, rest) = rest.split_first_chunk()?;
            let (offset, bytes) = rest.split_first_chunk()?;
            let kind = match kind {
                1 => FrameKind::Region,
                2 => FrameKind::Golden,
                3 => FrameKind::Compaction,
                _ => return None,
            };
            let offset = usize::try_from(u64::from_le_bytes(*offset)).ok()?;
            Some(Frame { kind, gen: u64::from_le_bytes(*gen), offset, bytes, raw })
        };
        fields().ok_or(FrameError::Corrupt)
    }
}

/// Appends one finished frame to `out`: the header is reserved first
/// and filled in from the payload written after it.
pub fn push_frame(out: &mut Vec<u8>, kind: FrameKind, gen: u64, offset: usize, data: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.push(kind as u8);
    out.extend_from_slice(&gen.to_le_bytes());
    out.extend_from_slice(&(offset as u64).to_le_bytes());
    out.extend_from_slice(data);
    let payload = &out[start + FRAME_HEADER..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// The frames of `buf` in order, without checking their CRCs: for
/// frames encoded by [`push_frame`] or already checked by
/// [`Frame::decode`]. The walk ends at the first bytes that do not
/// parse as a frame.
pub fn frames(buf: &[u8]) -> impl Iterator<Item = Frame<'_>> {
    let mut rest = buf;
    std::iter::from_fn(move || {
        let frame = Frame::parse(rest, false).ok()?;
        rest = rest.get(frame.raw.len()..).unwrap_or_default();
        Some(frame)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_decode_checks_the_crc() {
        let mut buf = Vec::new();
        push_frame(&mut buf, FrameKind::Region, 7, 100, &[1, 2, 3]);
        push_frame(&mut buf, FrameKind::Golden, 8, 5, &[]);
        push_frame(&mut buf, FrameKind::Compaction, 9, 0, &[]);
        let got: Vec<_> = frames(&buf).map(|f| (f.kind, f.gen, f.offset, f.bytes)).collect();
        assert_eq!(
            got,
            [
                (FrameKind::Region, 7, 100, &[1u8, 2, 3][..]),
                (FrameKind::Golden, 8, 5, &[][..]),
                (FrameKind::Compaction, 9, 0, &[][..]),
            ]
        );
        let first = Frame::decode(&buf).unwrap();
        assert_eq!(first.raw.len(), FRAME_HEADER + PAYLOAD_PREFIX + 3);
        assert_eq!(frames(&buf).map(|f| f.raw.len()).sum::<usize>(), buf.len());

        buf[FRAME_HEADER + PAYLOAD_PREFIX] ^= 1;
        assert_eq!(Frame::decode(&buf), Err(FrameError::Corrupt));
        assert_eq!(Frame::decode(&buf[..FRAME_HEADER + 3]), Err(FrameError::Torn));
        assert_eq!(Frame::decode(&buf[..5]), Err(FrameError::Torn));
    }

    #[test]
    fn an_unknown_kind_is_corrupt_and_ends_the_walk() {
        let mut buf = Vec::new();
        push_frame(&mut buf, FrameKind::Region, 1, 0, &[9]);
        let second = buf.len();
        push_frame(&mut buf, FrameKind::Region, 2, 0, &[9]);
        buf[second + FRAME_HEADER] = 0x7F;
        assert_eq!(frames(&buf).count(), 1);
        assert_eq!(Frame::decode(&buf[second..]), Err(FrameError::Corrupt));
    }
}
