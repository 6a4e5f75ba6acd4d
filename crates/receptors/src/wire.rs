//! The simulated receptor wire format.
//!
//! Real receptors deliver readings over radios as framed bytes, and the
//! paper's RFID readers "provide Point functionality out of the box by
//! removing tags that fail a checksum" (§4). To keep that behaviour a real
//! code path, mote and RFID transports here encode every reading into a
//! small binary frame with a checksum; the receiving edge decodes frames
//! and silently drops corrupt ones, exactly like the hardware does.
//!
//! Frame layout (big-endian):
//!
//! ```text
//! magic     u16   0xE59C
//! kind      u8    0 = scalar, 1 = tag sighting, 2 = event, 3 = dual scalar
//! receptor  u32
//! ts_ms     u64
//! payload   (kind 0: f64) | (kind 1/2: u16 len + utf-8) | (kind 3: 2×f64)
//! checksum  u32   FNV-1a over everything before it
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use esp_types::{EspError, ReceptorId, Result, Ts};

const MAGIC: u16 = 0xE59C;

/// A decoded receptor reading.
#[derive(Debug, Clone, PartialEq)]
pub enum Reading {
    /// A scalar sample (temperature, sound level, …).
    Scalar {
        /// Producing device.
        receptor: ReceptorId,
        /// Sample time.
        ts: Ts,
        /// Sample value.
        value: f64,
    },
    /// An RFID tag sighting.
    Tag {
        /// Producing device.
        receptor: ReceptorId,
        /// Sighting time.
        ts: Ts,
        /// The tag id read.
        tag_id: String,
    },
    /// A discrete event report (X10 `"ON"`).
    Event {
        /// Producing device.
        receptor: ReceptorId,
        /// Event time.
        ts: Ts,
        /// Event payload.
        value: String,
    },
    /// Two co-sampled scalars in one packet (e.g. temperature + battery
    /// voltage — motes batch ADC channels to save radio time).
    Dual {
        /// Producing device.
        receptor: ReceptorId,
        /// Sample time.
        ts: Ts,
        /// First channel (temperature).
        a: f64,
        /// Second channel (voltage).
        b: f64,
    },
}

impl Reading {
    /// The producing device.
    pub fn receptor(&self) -> ReceptorId {
        match self {
            Reading::Scalar { receptor, .. }
            | Reading::Tag { receptor, .. }
            | Reading::Event { receptor, .. }
            | Reading::Dual { receptor, .. } => *receptor,
        }
    }

    /// The reading's timestamp.
    pub fn ts(&self) -> Ts {
        match self {
            Reading::Scalar { ts, .. }
            | Reading::Tag { ts, .. }
            | Reading::Event { ts, .. }
            | Reading::Dual { ts, .. } => *ts,
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for b in bytes {
        h ^= u32::from(*b);
        h = h.wrapping_mul(0x01000193);
    }
    h
}

/// Encode a reading into a checksummed frame.
pub fn encode(reading: &Reading) -> Bytes {
    let mut buf = BytesMut::with_capacity(32);
    buf.put_u16(MAGIC);
    match reading {
        Reading::Scalar {
            receptor,
            ts,
            value,
        } => {
            buf.put_u8(0);
            buf.put_u32(receptor.0);
            buf.put_u64(ts.as_millis());
            buf.put_f64(*value);
        }
        Reading::Tag {
            receptor,
            ts,
            tag_id,
        } => {
            buf.put_u8(1);
            buf.put_u32(receptor.0);
            buf.put_u64(ts.as_millis());
            buf.put_u16(tag_id.len() as u16);
            buf.put_slice(tag_id.as_bytes());
        }
        Reading::Event {
            receptor,
            ts,
            value,
        } => {
            buf.put_u8(2);
            buf.put_u32(receptor.0);
            buf.put_u64(ts.as_millis());
            buf.put_u16(value.len() as u16);
            buf.put_slice(value.as_bytes());
        }
        Reading::Dual { receptor, ts, a, b } => {
            buf.put_u8(3);
            buf.put_u32(receptor.0);
            buf.put_u64(ts.as_millis());
            buf.put_f64(*a);
            buf.put_f64(*b);
        }
    }
    let checksum = fnv1a(&buf);
    buf.put_u32(checksum);
    buf.freeze()
}

/// A frame's payload. `S` is how a string payload is held: `&str`
/// borrowed from the frame bytes as [`parse`] returns it, or whatever
/// form a consumer maps it to with [`Body::map`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Body<S> {
    /// Kind 0: one scalar sample.
    Scalar(f64),
    /// Kind 1: an RFID tag id.
    Tag(S),
    /// Kind 2: an event payload.
    Event(S),
    /// Kind 3: two co-sampled scalars.
    Dual(f64, f64),
}

/// A validated frame's fields (see [`parse`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame<S> {
    /// Producing device.
    pub receptor: ReceptorId,
    /// Sample time.
    pub ts: Ts,
    /// The kind and its payload.
    pub body: Body<S>,
}

impl<S> Body<S> {
    /// The same payload with its string (if any) converted by `f`.
    pub fn map<T>(self, f: impl FnOnce(S) -> T) -> Body<T> {
        match self {
            Body::Scalar(v) => Body::Scalar(v),
            Body::Tag(s) => Body::Tag(f(s)),
            Body::Event(s) => Body::Event(f(s)),
            Body::Dual(a, b) => Body::Dual(a, b),
        }
    }
}

impl Frame<&str> {
    /// The owned [`Reading`] this frame encodes.
    pub fn to_reading(&self) -> Reading {
        let (receptor, ts) = (self.receptor, self.ts);
        match self.body {
            Body::Scalar(value) => Reading::Scalar {
                receptor,
                ts,
                value,
            },
            Body::Tag(s) => Reading::Tag {
                receptor,
                ts,
                tag_id: s.to_string(),
            },
            Body::Event(s) => Reading::Event {
                receptor,
                ts,
                value: s.to_string(),
            },
            Body::Dual(a, b) => Reading::Dual { receptor, ts, a, b },
        }
    }
}

/// Bytes before the payload: magic, kind, receptor, timestamp.
const HEADER: usize = 2 + 1 + 4 + 8;

fn be_f64(bytes: [u8; 8]) -> f64 {
    f64::from_bits(u64::from_be_bytes(bytes))
}

/// Validate one frame in place and return its fields, borrowing a string
/// payload from `frame`. Checks, in order: the length, the checksum, the
/// magic, the kind and its payload size, and UTF-8. This is the only
/// frame validator; [`decode`] is this plus [`Frame::to_reading`].
pub fn parse(frame: &[u8]) -> Result<Frame<&str>> {
    let short = || EspError::Wire(format!("frame too short ({} bytes)", frame.len()));
    let (sealed, check) = frame.split_last_chunk::<4>().ok_or_else(short)?;
    let (head, payload) = sealed.split_first_chunk::<HEADER>().ok_or_else(short)?;
    if fnv1a(sealed) != u32::from_be_bytes(*check) {
        return Err(EspError::Wire("checksum mismatch".into()));
    }
    let [m0, m1, kind, r0, r1, r2, r3, ts @ ..] = *head;
    if u16::from_be_bytes([m0, m1]) != MAGIC {
        return Err(EspError::Wire("bad magic".into()));
    }
    let body = match kind {
        0 => {
            let Ok(v) = <[u8; 8]>::try_from(payload) else {
                return Err(EspError::Wire(
                    "scalar frame with wrong payload size".into(),
                ));
            };
            Body::Scalar(be_f64(v))
        }
        1 | 2 => {
            let Some((len, s)) = payload.split_first_chunk::<2>() else {
                return Err(EspError::Wire("string frame missing length".into()));
            };
            if s.len() != usize::from(u16::from_be_bytes(*len)) {
                return Err(EspError::Wire("string frame length mismatch".into()));
            }
            let s = std::str::from_utf8(s)
                .map_err(|_| EspError::Wire("invalid utf-8 payload".into()))?;
            match kind {
                1 => Body::Tag(s),
                _ => Body::Event(s),
            }
        }
        3 => {
            let halves = payload
                .split_first_chunk::<8>()
                .and_then(|(a, b)| Some((*a, <[u8; 8]>::try_from(b).ok()?)));
            let Some((a, b)) = halves else {
                return Err(EspError::Wire("dual frame with wrong payload size".into()));
            };
            Body::Dual(be_f64(a), be_f64(b))
        }
        k => return Err(EspError::Wire(format!("unknown frame kind {k}"))),
    };
    Ok(Frame {
        receptor: ReceptorId(u32::from_be_bytes([r0, r1, r2, r3])),
        ts: Ts::from_millis(u64::from_be_bytes(ts)),
        body,
    })
}

/// Decode one frame into an owned [`Reading`]: [`parse`], then
/// [`Frame::to_reading`].
pub fn decode(frame: &Bytes) -> Result<Reading> {
    parse(frame).map(|f| f.to_reading())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Reading> {
        vec![
            Reading::Scalar {
                receptor: ReceptorId(3),
                ts: Ts::from_millis(1500),
                value: 21.25,
            },
            Reading::Tag {
                receptor: ReceptorId(0),
                ts: Ts::from_secs(40),
                tag_id: "tag-1-7".into(),
            },
            Reading::Event {
                receptor: ReceptorId(9),
                ts: Ts::ZERO,
                value: "ON".into(),
            },
            Reading::Dual {
                receptor: ReceptorId(4),
                ts: Ts::from_secs(2),
                a: 21.5,
                b: 2.87,
            },
        ]
    }

    #[test]
    fn round_trips() {
        for r in samples() {
            let frame = encode(&r);
            assert_eq!(decode(&frame).unwrap(), r);
        }
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        for r in samples() {
            let frame = encode(&r);
            for i in 0..frame.len() {
                let mut bad = frame.to_vec();
                bad[i] ^= 0x40;
                let bad = Bytes::from(bad);
                assert!(
                    decode(&bad).is_err(),
                    "corruption at byte {i} of {r:?} went undetected"
                );
            }
        }
    }

    /// A frame whose checksum matches its bytes but whose body is
    /// malformed: the checksum is recomputed after the edit.
    fn resealed(mut frame: Vec<u8>, edit: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        frame.truncate(frame.len() - 4);
        edit(&mut frame);
        let check = fnv1a(&frame);
        frame.extend(check.to_be_bytes());
        Bytes::from(frame)
    }

    #[test]
    fn well_sealed_malformed_bodies_rejected() {
        for r in samples() {
            let frame = encode(&r).to_vec();
            let longer = resealed(frame.clone(), |f| f.push(0));
            assert!(decode(&longer).is_err(), "payload grown by a byte in {r:?}");
            let shorter = resealed(frame.clone(), |f| {
                f.pop();
            });
            assert!(decode(&shorter).is_err(), "payload cut by a byte in {r:?}");
            let unknown = resealed(frame, |f| f[2] = 4);
            assert!(decode(&unknown).is_err(), "unknown kind in {r:?}");
        }
        let tag = encode(&Reading::Tag {
            receptor: ReceptorId(1),
            ts: Ts::ZERO,
            tag_id: "ab".into(),
        });
        let not_utf8 = resealed(tag.to_vec(), |f| {
            let n = f.len();
            f[n - 2..].copy_from_slice(&[0xC3, 0x28]);
        });
        assert!(decode(&not_utf8).is_err(), "invalid utf-8 accepted");
        assert!(parse(&tag).is_ok_and(|f| f.body == Body::Tag("ab")));
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = encode(&samples()[0]);
        for cut in 0..frame.len() {
            let truncated = frame.slice(0..cut);
            assert!(decode(&truncated).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn empty_tag_id_round_trips() {
        let r = Reading::Tag {
            receptor: ReceptorId(1),
            ts: Ts::ZERO,
            tag_id: String::new(),
        };
        assert_eq!(decode(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn accessors() {
        let r = samples().remove(0);
        assert_eq!(r.receptor(), ReceptorId(3));
        assert_eq!(r.ts(), Ts::from_millis(1500));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn scalar_round_trip(id in 0u32..1000, ms in 0u64..10_000_000, v in -1e9f64..1e9) {
                let r = Reading::Scalar {
                    receptor: ReceptorId(id),
                    ts: Ts::from_millis(ms),
                    value: v,
                };
                prop_assert_eq!(decode(&encode(&r)).unwrap(), r);
            }

            #[test]
            fn tag_round_trip(id in 0u32..1000, tag in "[a-z0-9-]{0,40}") {
                let r = Reading::Tag {
                    receptor: ReceptorId(id),
                    ts: Ts::ZERO,
                    tag_id: tag,
                };
                prop_assert_eq!(decode(&encode(&r)).unwrap(), r);
            }

            #[test]
            fn event_round_trip(id in 0u32..1000, ms in 0u64..10_000_000, value in "[A-Z]{1,16}") {
                let r = Reading::Event {
                    receptor: ReceptorId(id),
                    ts: Ts::from_millis(ms),
                    value,
                };
                prop_assert_eq!(decode(&encode(&r)).unwrap(), r);
            }

            #[test]
            fn dual_round_trip(
                id in 0u32..1000,
                ms in 0u64..10_000_000,
                a in -1e9f64..1e9,
                b in -1e9f64..1e9,
            ) {
                let r = Reading::Dual { receptor: ReceptorId(id), ts: Ts::from_millis(ms), a, b };
                prop_assert_eq!(decode(&encode(&r)).unwrap(), r);
            }

            #[test]
            fn single_bit_flip_rejected(
                kind in 0u8..4,
                id in 0u32..1000,
                ms in 0u64..10_000_000,
                v in -1e6f64..1e6,
                s in "[a-z0-9-]{0,12}",
                pos in any::<u16>(),
                bit in 0u8..8,
            ) {
                let r = match kind {
                    0 => Reading::Scalar { receptor: ReceptorId(id), ts: Ts::from_millis(ms), value: v },
                    1 => Reading::Tag { receptor: ReceptorId(id), ts: Ts::from_millis(ms), tag_id: s },
                    2 => Reading::Event { receptor: ReceptorId(id), ts: Ts::from_millis(ms), value: s },
                    _ => Reading::Dual { receptor: ReceptorId(id), ts: Ts::from_millis(ms), a: v, b: -v },
                };
                let frame = encode(&r);
                let idx = pos as usize % frame.len();
                let mut bad = frame.to_vec();
                bad[idx] ^= 1 << bit;
                let bad = Bytes::from(bad);
                prop_assert!(
                    decode(&bad).is_err(),
                    "bit {} of byte {} flipped in {:?} went undetected", bit, idx, r
                );
            }

            #[test]
            fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
                let _ = decode(&Bytes::from(data));
            }
        }
    }
}
