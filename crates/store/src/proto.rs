//! Length-prefixed frame protocol between a [`SketchStore`] router and a
//! `shard_worker` process (see [`crate::remote`]).
//!
//! A frame is `u32` little-endian payload length followed by the
//! payload. Request payloads lead with an opcode byte; response payloads
//! lead with a status byte ([`STATUS_OK`] / [`STATUS_ERR`], the error
//! case carrying a UTF-8 message). All payload bodies use the
//! [`monotone_coord::wire`] codec, so floats cross the pipe bit-exactly
//! and corruption decodes to typed errors.
//!
//! The first exchange on a fresh connection is [`OP_HELLO`], carrying
//! the protocol version plus the store's `k` and seed salt; the worker
//! constructs its [`LocalShard`](crate::shard::LocalShard) from those
//! and echoes the version. A version mismatch (a stale worker binary)
//! fails the handshake loudly instead of corrupting sketches silently.
//!
//! [`SketchStore`]: crate::SketchStore

use std::io::{self, Read, Write};

/// Protocol version sent in [`OP_HELLO`] and echoed by the worker. Bump
/// on any incompatible change to opcodes or payload layouts.
pub(crate) const PROTO_VERSION: u8 = 2;

/// Upper bound on a frame payload — a corrupt length prefix must not
/// turn into a multi-gigabyte allocation.
pub(crate) const MAX_FRAME: u32 = 1 << 30;

/// Upper bound on the `k` an [`OP_HELLO`] configures — far above any
/// store in this repository (the largest keeps 256 entries), so that a
/// corrupt hello cannot make the worker's first ingest size a huge
/// sketch heap.
pub(crate) const MAX_HELLO_K: usize = 1 << 20;

pub(crate) const OP_HELLO: u8 = 0;
pub(crate) const OP_INGEST_ALL: u8 = 2;
pub(crate) const OP_EVICT: u8 = 3;
pub(crate) const OP_LEN: u8 = 4;
pub(crate) const OP_SKETCHES: u8 = 5;
pub(crate) const OP_BAND_PARTIAL: u8 = 6;
pub(crate) const OP_ENABLE_LIVE: u8 = 7;
pub(crate) const OP_LIVE_PARTIAL: u8 = 8;
pub(crate) const OP_LIVE_SIGNATURE: u8 = 9;
pub(crate) const OP_LIVE_CANDIDATES: u8 = 10;
pub(crate) const OP_SHUTDOWN: u8 = 11;

pub(crate) const STATUS_OK: u8 = 0;
pub(crate) const STATUS_ERR: u8 = 1;
/// The worker's shard reported [`monotone_core::Error::NotApplicable`]
/// (live ops before enablement) — kept distinct from [`STATUS_ERR`] so
/// the client can surface the same typed error a local shard returns.
pub(crate) const STATUS_NOT_APPLICABLE: u8 = 2;

/// Writes one frame (length prefix + payload). The caller flushes.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame of {} bytes exceeds the protocol maximum",
                    payload.len()
                ),
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame's payload. EOF before the length prefix surfaces as
/// [`io::ErrorKind::UnexpectedEof`] (a clean connection close for the
/// worker's serve loop); a length above [`MAX_FRAME`] is
/// [`io::ErrorKind::InvalidData`].
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the protocol maximum"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        write_frame(&mut pipe, &[7u8; 300]).unwrap();
        let mut cursor = io::Cursor::new(pipe);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), vec![7u8; 300]);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_length_prefixes_are_rejected() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut io::Cursor::new(pipe)).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_payloads_are_eof() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"full payload").unwrap();
        pipe.truncate(8);
        let mut cursor = io::Cursor::new(pipe);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
