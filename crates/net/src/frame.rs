//! Length-prefixed binary framing.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic     0x52515057 ("RQPW"), big-endian
//! 4       2     version   protocol version, big-endian (currently 3)
//! 6       1     type      message type tag (see `proto`)
//! 7       1     reserved  must be 0
//! 8       4     length    payload length in bytes, big-endian
//! 12      n     payload   `length` bytes, message-type specific
//! ```
//!
//! Decoding is *total*: any byte sequence — truncated, corrupt, adversarial —
//! produces a typed [`FrameError`], never a panic. The length field is
//! checked against [`MAX_PAYLOAD`] **before** any allocation, so a hostile
//! peer cannot make the server reserve gigabytes with a 12-byte header.

use std::io::{Read, Write};

/// Frame magic: `"RQPW"` as a big-endian u32.
pub const MAGIC: u32 = 0x5251_5057;

/// Current protocol version. Bump on any incompatible layout change.
/// Version 2 added the first credit window to SUBMIT's options; version 3
/// encodes integers, row arities and string lengths as varints.
pub const VERSION: u16 = 3;

/// Hard upper bound on a frame payload (16 MiB). Frames claiming more are
/// rejected before allocation.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 12;

/// Typed decode failures. Everything a damaged or hostile peer can send
/// lands in exactly one of these; none of them panic or over-allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended inside a header or payload.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    VersionMismatch(u16),
    /// The length field exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload's internal structure is invalid for its message type.
    Malformed(String),
    /// Underlying transport error (connection reset, broken pipe, …).
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::VersionMismatch(v) => {
                write!(f, "protocol version mismatch: peer speaks v{v}, this side v{VERSION}")
            }
            FrameError::Oversized(n) => {
                write!(f, "frame payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte limit")
            }
            FrameError::Malformed(m) => write!(f, "malformed payload: {m}"),
            FrameError::Io(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl From<FrameError> for rqp_common::RqpError {
    fn from(e: FrameError) -> Self {
        rqp_common::RqpError::Protocol(e.to_string())
    }
}

/// One decoded frame: the message type tag and its raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message type tag (interpreted by `proto`).
    pub msg_type: u8,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Encode a frame onto `w` (header + payload, one `write_all` each).
pub fn write_frame(w: &mut impl Write, msg_type: u8, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(FrameError::Oversized(payload.len() as u32));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_be_bytes());
    header[4..6].copy_from_slice(&VERSION.to_be_bytes());
    header[6] = msg_type;
    header[7] = 0;
    header[8..12].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header).map_err(io_err)?;
    w.write_all(payload).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(())
}

/// Decode the next frame from `r`. A clean EOF *before any header byte*
/// returns `Ok(None)` (the peer hung up between messages); EOF anywhere
/// else is [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    let magic = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_be_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(FrameError::VersionMismatch(version));
    }
    let msg_type = header[6];
    let len = u32::from_be_bytes(header[8..12].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(Some(Frame { msg_type, payload }))
}

fn io_err(e: std::io::Error) -> FrameError {
    FrameError::Io(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg_type: u8, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg_type, payload).unwrap();
        read_frame(&mut &buf[..]).unwrap().expect("one frame")
    }

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", &[0u8; 1000][..]] {
            let f = round_trip(7, payload);
            assert_eq!(f.msg_type, 7);
            assert_eq!(f.payload, payload);
        }
    }

    #[test]
    fn clean_eof_is_none_and_partial_header_is_truncated() {
        assert_eq!(read_frame(&mut &[][..]), Ok(None));
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"abc").unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert_eq!(err, FrameError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"").unwrap();
        let mut bad = buf.clone();
        bad[0] = 0xff;
        assert!(matches!(read_frame(&mut &bad[..]), Err(FrameError::BadMagic(_))));
        let mut old = buf.clone();
        old[4..6].copy_from_slice(&9999u16.to_be_bytes());
        assert_eq!(read_frame(&mut &old[..]), Err(FrameError::VersionMismatch(9999)));
        // Earlier protocol versions (1: SUBMIT without a credit window; 2:
        // fixed-width integers and lengths) are refused at the header,
        // before their payload is looked at.
        for old in [1u16, 2] {
            let mut v = buf.clone();
            v[4..6].copy_from_slice(&old.to_be_bytes());
            assert_eq!(read_frame(&mut &v[..]), Err(FrameError::VersionMismatch(old)));
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC.to_be_bytes());
        header[4..6].copy_from_slice(&VERSION.to_be_bytes());
        header[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(read_frame(&mut &header[..]), Err(FrameError::Oversized(u32::MAX)));
    }

    #[test]
    fn arbitrary_prefixes_never_panic() {
        // Deterministic pseudo-random byte soup: every prefix must produce
        // a typed result, never a panic or a huge allocation.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut bytes = Vec::with_capacity(512);
        for _ in 0..512 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            bytes.push((state >> 33) as u8);
        }
        for cut in 0..bytes.len() {
            let _ = read_frame(&mut &bytes[..cut]);
        }
        // And byte soup that starts with a valid header prefix.
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"hello").unwrap();
        buf.extend_from_slice(&bytes);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).unwrap().is_some());
        let _ = read_frame(&mut r); // garbage after: typed error or Ok, no panic
    }
}
