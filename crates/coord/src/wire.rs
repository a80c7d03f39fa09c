//! Minimal versioned byte codec for shipping sketch state between
//! processes.
//!
//! A distributed sketch store moves three kinds of state across process
//! boundaries: raw observations, [`BottomKSample`](crate::bottomk::BottomKSample)
//! snapshots, and band-index partials. All of them encode through this
//! module's two primitives — [`Enc`], an append-only byte builder, and
//! [`Dec`], a bounds-checked cursor that turns truncation or garbage into
//! a typed [`monotone_core::Error::Encoding`] instead of a panic.
//!
//! The format is deliberately boring and stable:
//!
//! * integers are little-endian fixed width (`u8`/`u32`/`u64`);
//! * lengths are `u64`;
//! * floats travel as [`f64::to_bits`] little-endian, so round-trips are
//!   **bit-exact** — rank thresholds like `f64::MIN_POSITIVE` and signed
//!   zeros survive, which the store's bit-identical distribution contract
//!   depends on;
//! * every composite payload leads with a version byte checked on decode.
//!
//! # Examples
//!
//! ```
//! use monotone_coord::wire::{Dec, Enc};
//!
//! let mut enc = Enc::new();
//! enc.put_u8(1);
//! enc.put_u64(42);
//! enc.put_f64(f64::MIN_POSITIVE);
//! let bytes = enc.into_bytes();
//!
//! let mut dec = Dec::new(&bytes);
//! assert_eq!(dec.take_u8().unwrap(), 1);
//! assert_eq!(dec.take_u64().unwrap(), 42);
//! assert_eq!(dec.take_f64().unwrap().to_bits(), f64::MIN_POSITIVE.to_bits());
//! assert!(dec.finish().is_ok());
//!
//! // Truncated input is a typed error, not a panic.
//! let mut short = Dec::new(&bytes[..3]);
//! short.take_u8().unwrap();
//! assert!(matches!(short.take_u64(), Err(monotone_core::Error::Encoding(_))));
//! ```

use monotone_core::{Error, Result};

/// Append-only little-endian byte builder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty builder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// A builder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Enc {
        Enc {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length or count as a `u64` (usize is platform-width;
    /// the wire format is not).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — bit-exact on
    /// round-trip, including NaN payloads and signed zeros.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes (no implicit length prefix).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes left to consume.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Encoding(format!(
                "truncated payload: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Error::Encoding`] when the buffer is exhausted.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Error::Encoding`] when fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Error::Encoding`] when fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length/count written by [`Enc::put_len`], rejecting values
    /// that cannot be a sane in-memory count (a defense against feeding a
    /// corrupted length into `Vec::with_capacity`).
    ///
    /// # Errors
    ///
    /// [`Error::Encoding`] on truncation or an implausible length.
    pub fn take_len(&mut self) -> Result<usize> {
        let v = self.take_u64()?;
        // No legitimate payload in this codebase counts past 2^48 items.
        if v > (1 << 48) {
            return Err(Error::Encoding(format!("implausible length {v}")));
        }
        Ok(v as usize)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`Error::Encoding`] when fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Asserts the cursor consumed the whole buffer — trailing garbage in
    /// a framed payload means the sender and receiver disagree about the
    /// format, which must fail loudly.
    ///
    /// # Errors
    ///
    /// [`Error::Encoding`] when bytes remain.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::Encoding(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_are_bit_exact() {
        let mut enc = Enc::with_capacity(64);
        enc.put_u8(7);
        enc.put_u32(0xdead_beef);
        enc.put_u64(u64::MAX);
        enc.put_len(12);
        for v in [0.0, -0.0, f64::MIN_POSITIVE, f64::INFINITY, 1.5e-300] {
            enc.put_f64(v);
        }
        enc.put_f64(f64::NAN);
        enc.put_bytes(b"tail");
        let bytes = enc.into_bytes();

        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.take_u8().unwrap(), 7);
        assert_eq!(dec.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.take_u64().unwrap(), u64::MAX);
        assert_eq!(dec.take_len().unwrap(), 12);
        for v in [0.0f64, -0.0, f64::MIN_POSITIVE, f64::INFINITY, 1.5e-300] {
            assert_eq!(dec.take_f64().unwrap().to_bits(), v.to_bits());
        }
        assert!(dec.take_f64().unwrap().is_nan());
        for &byte in b"tail" {
            assert_eq!(dec.take_u8().unwrap(), byte);
        }
        dec.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let mut enc = Enc::new();
        enc.put_u64(5);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes[..6]);
        assert!(matches!(dec.take_u64(), Err(Error::Encoding(_))));

        let mut dec = Dec::new(&bytes);
        dec.take_u32().unwrap();
        assert!(matches!(dec.finish(), Err(Error::Encoding(_))));
    }

    #[test]
    fn implausible_lengths_are_rejected() {
        let mut enc = Enc::new();
        enc.put_u64(u64::MAX);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Dec::new(&bytes).take_len(),
            Err(Error::Encoding(_))
        ));
    }
}
