//! Length-delimited frame streaming over `Read`/`Write`.
//!
//! [`wire`] frames are checksummed but self-terminating only
//! when their boundaries are known; a byte stream (TCP socket, pipe, file)
//! needs explicit delimiting. This module adds the thinnest possible layer:
//! each frame is preceded by a big-endian `u32` length. The payload stays an
//! opaque byte blob at this layer — checksum verification (and the decision
//! to count-and-drop corrupt frames) belongs to the caller, mirroring how
//! the paper's receptor edge applies Point functionality *after* the radio
//! hands it a packet.
//!
//! ```text
//! len   u32 (big-endian, 0 < len <= MAX_FRAME_LEN)
//! frame len bytes — a wire::encode() frame, possibly corrupted in flight
//! ```

use std::io::{self, BufReader, Read, Write};

use bytes::Bytes;

use crate::wire::{self, Reading};

/// Upper bound on a single frame (tag ids are <= 64 KiB by the `u16`
/// length in the wire format; anything bigger is stream corruption).
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Writes length-delimited frames to a byte sink.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a sink. Callers that care about syscall counts should hand in
    /// a `BufWriter`.
    pub fn new(inner: W) -> FrameWriter<W> {
        FrameWriter { inner }
    }

    /// Encode `reading` and write it as one length-delimited frame.
    pub fn write_reading(&mut self, reading: &Reading) -> io::Result<()> {
        self.write_raw(&wire::encode(reading))
    }

    /// Write pre-encoded (possibly deliberately corrupted) frame bytes.
    /// Simulated lossy channels use this to deliver damaged frames that
    /// the receiving edge must reject by checksum.
    pub fn write_raw(&mut self, frame: &[u8]) -> io::Result<()> {
        if frame.is_empty() || frame.len() > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame length {} outside 1..={MAX_FRAME_LEN}", frame.len()),
            ));
        }
        self.inner.write_all(&(frame.len() as u32).to_be_bytes())?;
        self.inner.write_all(frame)
    }

    /// Flush the underlying sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// Unwrap, returning the sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Reads length-delimited frames from a byte source.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a source. Callers that care about syscall counts should hand
    /// in a `BufReader`.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner }
    }

    /// Read the next frame. Returns `Ok(None)` on a clean end-of-stream
    /// (EOF exactly at a frame boundary); EOF mid-frame is an error.
    pub fn read_frame(&mut self) -> io::Result<Option<Bytes>> {
        let mut len_buf = [0u8; 4];
        if !read_exact_or_eof(&mut self.inner, &mut len_buf)? {
            return Ok(None);
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} outside 1..={MAX_FRAME_LEN}"),
            ));
        }
        let mut frame = vec![0u8; len];
        self.inner.read_exact(&mut frame)?;
        Ok(Some(Bytes::from(frame)))
    }

    /// Unwrap, returning the source.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> FrameReader<BufReader<R>> {
    /// Whether the next [`read_frame`](FrameReader::read_frame) can be
    /// answered from the buffer alone. When this is `false` the next call
    /// reads the source, which on a socket may block until the peer sends
    /// more. (A buffered length prefix outside the frame bounds counts as
    /// answerable: `read_frame` rejects it without reading.)
    pub fn frame_buffered(&self) -> bool {
        let buf = self.inner.buffer();
        match buf.first_chunk::<4>() {
            Some(len) => {
                let len = u32::from_be_bytes(*len) as usize;
                len == 0 || len > MAX_FRAME_LEN || buf.len() - 4 >= len
            }
            None => false,
        }
    }
}

/// Fill `buf` completely. Returns `Ok(false)` when EOF arrives before the
/// first byte, `Ok(true)` when the buffer was filled; EOF after a partial
/// read is an `UnexpectedEof` error.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{ReceptorId, Ts};

    fn sample(i: u32) -> Reading {
        Reading::Scalar {
            receptor: ReceptorId(i),
            ts: Ts::from_millis(u64::from(i) * 10),
            value: f64::from(i),
        }
    }

    #[test]
    fn round_trips_many_frames() {
        let mut w = FrameWriter::new(Vec::new());
        for i in 0..20 {
            w.write_reading(&sample(i)).unwrap();
        }
        let bytes = w.into_inner();
        let mut r = FrameReader::new(&bytes[..]);
        for i in 0..20 {
            let frame = r.read_frame().unwrap().expect("frame present");
            assert_eq!(wire::decode(&frame).unwrap(), sample(i));
        }
        assert!(
            r.read_frame().unwrap().is_none(),
            "clean EOF after last frame"
        );
        assert!(r.read_frame().unwrap().is_none(), "EOF is sticky");
    }

    #[test]
    fn corrupt_payload_passes_framing_fails_checksum() {
        let mut w = FrameWriter::new(Vec::new());
        let mut bad = wire::encode(&sample(7)).to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        w.write_raw(&bad).unwrap();
        let bytes = w.into_inner();
        let mut r = FrameReader::new(&bytes[..]);
        let frame = r.read_frame().unwrap().expect("framing layer delivers it");
        assert!(wire::decode(&frame).is_err(), "checksum must reject it");
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut w = FrameWriter::new(Vec::new());
        w.write_reading(&sample(1)).unwrap();
        let bytes = w.into_inner();
        // Cut inside the header and inside the body.
        for cut in [2, bytes.len() - 3] {
            let mut r = FrameReader::new(&bytes[..cut]);
            assert!(r.read_frame().is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn frame_buffered_sees_only_whole_frames() {
        let mut w = FrameWriter::new(Vec::new());
        w.write_reading(&sample(1)).unwrap();
        w.write_reading(&sample(2)).unwrap();
        let bytes = w.into_inner();
        let first = bytes.len() / 2;

        let mut r = FrameReader::new(BufReader::new(&bytes[..]));
        assert!(!r.frame_buffered(), "nothing read from the source yet");
        r.read_frame().unwrap().expect("first frame");
        assert!(
            r.frame_buffered(),
            "the second frame came in with the first"
        );
        r.read_frame().unwrap().expect("second frame");
        assert!(!r.frame_buffered(), "buffer drained");

        // The second frame cut short: its header is buffered, its body
        // is not, so the next read must go to the source.
        let mut r = FrameReader::new(BufReader::new(&bytes[..first + 6]));
        r.read_frame().unwrap().expect("first frame");
        assert!(!r.frame_buffered(), "partial frame is not answerable");

        // A length prefix outside the bounds is answered (rejected)
        // without reading on.
        for bad in [0, MAX_FRAME_LEN as u32 + 1] {
            let mut stream = bytes[..first].to_vec();
            stream.extend_from_slice(&bad.to_be_bytes());
            let mut r = FrameReader::new(BufReader::new(&stream[..]));
            r.read_frame().unwrap().expect("first frame");
            assert!(r.frame_buffered(), "length {bad}");
            assert!(r.read_frame().is_err(), "length {bad}");
        }
    }

    #[test]
    fn oversized_and_empty_lengths_rejected() {
        let mut r = FrameReader::new(&[0u8, 0, 0, 0][..]);
        assert!(r.read_frame().is_err(), "zero length accepted");
        let huge = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        let mut r = FrameReader::new(&huge[..]);
        assert!(r.read_frame().is_err(), "oversized length accepted");

        let mut w = FrameWriter::new(Vec::new());
        assert!(w.write_raw(&[]).is_err());
        assert!(w.write_raw(&vec![0u8; MAX_FRAME_LEN + 1]).is_err());
    }
}
