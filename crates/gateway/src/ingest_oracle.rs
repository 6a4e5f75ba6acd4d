//! The one-pass ingest path ≡ the row-at-a-time reference, on hostile
//! byte streams.
//!
//! The reference reads each frame into a buffer of its own
//! (`FrameReader::read_frame`), decodes it into an owned `Reading`
//! (`wire::decode`) and appends its row to the receptor's trailing chunk
//! of its kind (`ReadingSchemas::append_to_chunk`). The path the gateway
//! runs borrows each frame from the read buffer (`FrameReader::next_frame`),
//! validates it in place (`wire::parse`), adds it to the shard's batch
//! through the reader machine, and appends each batch to the receptors'
//! `ChunkBuffer`s as the worker does. Both read one stream —
//! every wire kind, bit flips, zero and oversize length prefixes, frames
//! with a valid checksum but the wrong payload size, an unknown kind or
//! invalid UTF-8, a truncated tail — from a source returning arbitrary
//! read sizes, and must agree on each receptor's rows and chunk shapes,
//! the corrupt and unroutable counts, and the error that stopped the
//! stream.
//!
//! `PROPTEST_CASES` sets the number of generated cases (default 256).

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader, Read};
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use esp_receptors::framing::{FrameReader, MAX_FRAME_LEN};
use esp_receptors::wire::{self, Reading};
use esp_types::{Chunk, ReceptorId, Ts, Tuple, Value};

use crate::convert::{ReadingSchemas, ShardBatch};
use crate::protocol::{self, Effect};
use crate::worker::{buffer_batch, ChunkBuffer, ReadingBuffer};

/// Receptors `0..ROUTED` are routed; `ROUTED..RECEPTORS` are not.
const ROUTED: u32 = 34;
const RECEPTORS: u32 = 40;

/// A source that returns at most the next of `sizes` bytes per read, as a
/// socket delivers segments.
struct Segments<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    next: usize,
}

impl Read for Segments<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
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

/// Replace a frame's checksum with a valid one for its (edited) body.
fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
    frame.truncate(frame.len().saturating_sub(4));
    let check = fnv1a(&frame);
    frame.extend(check.to_be_bytes());
    frame
}

fn text(rng: &mut StdRng) -> String {
    const CHARS: [char; 6] = ['a', 'z', '7', '-', 'é', '→'];
    (0..rng.gen_range(0..12usize))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// Any float bit pattern: NaN payloads, infinities, `-0.0`, subnormals.
fn float(rng: &mut StdRng) -> f64 {
    f64::from_bits(rng.gen::<u64>())
}

fn reading(rng: &mut StdRng) -> Reading {
    let receptor = ReceptorId(rng.gen_range(0..RECEPTORS));
    let ts = Ts::from_millis(rng.gen_range(0..10_000u64));
    match rng.gen_range(0..4u8) {
        0 => Reading::Scalar {
            receptor,
            ts,
            value: float(rng),
        },
        1 => Reading::Tag {
            receptor,
            ts,
            tag_id: text(rng),
        },
        2 => Reading::Event {
            receptor,
            ts,
            value: text(rng),
        },
        _ => Reading::Dual {
            receptor,
            ts,
            a: float(rng),
            b: float(rng),
        },
    }
}

/// One frame's bytes: mostly well formed, else damaged in one of the ways
/// a validator must catch.
fn frame(rng: &mut StdRng) -> Vec<u8> {
    let mut f = wire::encode(&reading(rng)).to_vec();
    match rng.gen_range(0..12u8) {
        // A flipped bit anywhere, checksum included.
        0 | 1 => {
            let i = rng.gen_range(0..f.len());
            f[i] ^= 1 << rng.gen_range(0..8u32);
            f
        }
        // The wrong payload size for the kind, under a valid checksum.
        2 => {
            let at = f.len() - 4;
            match rng.gen_bool(0.5) {
                true => f.insert(at, rng.gen::<u32>() as u8),
                false => {
                    f.remove(at - 1);
                }
            }
            reseal(f)
        }
        // An unknown kind, under a valid checksum.
        3 => {
            f[2] = rng.gen_range(4..=255u8);
            reseal(f)
        }
        // A string payload that is not UTF-8, under a valid checksum.
        4 => {
            let body = [0xE5, 0x9C, 1 + rng.gen_range(0..2u8), 0, 0, 0, 3];
            let mut f = body.to_vec();
            f.extend(rng.gen::<u64>().to_be_bytes());
            f.extend([0, 2, 0xC3, 0x28]);
            f.extend([0; 4]);
            reseal(f)
        }
        // Too short to hold a header.
        5 => {
            f.truncate(rng.gen_range(1..19usize));
            f
        }
        _ => f,
    }
}

/// A length-delimited stream of `n` frames, perhaps with one bad length
/// prefix among them and perhaps cut short.
fn stream(rng: &mut StdRng) -> Vec<u8> {
    let n = rng.gen_range(0..300usize);
    let bad_prefix = rng.gen_bool(0.15).then(|| rng.gen_range(0..=n));
    let mut out = Vec::new();
    for i in 0..=n {
        if bad_prefix == Some(i) {
            let len = match rng.gen_bool(0.5) {
                true => 0,
                false => MAX_FRAME_LEN as u32 + 1,
            };
            out.extend(len.to_be_bytes());
        }
        if i < n {
            let f = frame(rng);
            out.extend((f.len() as u32).to_be_bytes());
            out.extend(f);
        }
    }
    if rng.gen_bool(0.2) && !out.is_empty() {
        out.truncate(rng.gen_range(0..out.len()));
    }
    out
}

/// A chunk as compared: its schema, and its rows with every value spelled
/// out (floats by their bits).
type Spelled = (String, Vec<(Ts, Vec<String>)>);

/// What one ingest of a stream produced.
#[derive(Debug, PartialEq)]
struct Ingested {
    /// Per receptor, its chunks.
    chunks: BTreeMap<u32, Vec<Spelled>>,
    corrupt: u64,
    unroutable: u64,
    /// The error that stopped the stream, if any.
    error: Option<(io::ErrorKind, String)>,
}

fn rows(chunk: &Chunk) -> Spelled {
    let row = |t: &Tuple| {
        let values = t
            .values()
            .iter()
            .map(|v| match v {
                Value::Float(f) => format!("f{:#x}", f.to_bits()),
                v => format!("{v:?}"),
            })
            .collect();
        (t.ts(), values)
    };
    (
        chunk.schema().to_string(),
        chunk.to_tuples().iter().map(row).collect(),
    )
}

/// The reference: a copied frame, an owned reading, a row at a time.
fn reference(data: &[u8], sizes: &[usize]) -> Ingested {
    let schemas = ReadingSchemas::new();
    let mut by_receptor: BTreeMap<u32, Vec<Chunk>> = BTreeMap::new();
    let (mut corrupt, mut unroutable, mut error) = (0, 0, None);
    let mut reader = FrameReader::new(Segments {
        data,
        sizes,
        next: 0,
    });
    loop {
        let frame = match reader.read_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                error = Some((e.kind(), e.to_string()));
                break;
            }
        };
        let Ok(r) = wire::decode(&frame) else {
            corrupt += 1;
            continue;
        };
        if r.receptor().0 >= ROUTED {
            unroutable += 1;
            continue;
        }
        let chunks = by_receptor.entry(r.receptor().0).or_default();
        let schema = schemas.schema_for(&r);
        if !chunks
            .last()
            .is_some_and(|c| Arc::ptr_eq(c.schema(), schema))
        {
            chunks.push(Chunk::new(schema));
        }
        if let Some(chunk) = chunks.last_mut() {
            schemas.append_to_chunk(&r, chunk).unwrap();
        }
    }
    Ingested {
        chunks: by_receptor
            .into_iter()
            .map(|(id, chunks)| (id, chunks.iter().map(rows).collect()))
            .collect(),
        corrupt,
        unroutable,
        error,
    }
}

/// The gateway's path: a borrowed frame, validated in place, into a shard
/// batch handed off at `cap` entries and whenever the read buffer runs
/// dry, then into each receptor's buffer.
fn one_pass(data: &[u8], sizes: &[usize], buffer: usize, cap: usize) -> Ingested {
    let schemas = ReadingSchemas::new();
    let buffers: HashMap<ReceptorId, ReadingBuffer> = (0..ROUTED)
        .map(|id| (ReceptorId(id), Arc::new(Mutex::new(ChunkBuffer::default()))))
        .collect();
    let worker = protocol::Worker::new(None);
    let mut machine: protocol::Reader<ShardBatch> = protocol::Reader::new(1, 0, cap);
    let hand_off = |machine: &mut protocol::Reader<ShardBatch>| {
        for effect in machine.hand_off() {
            if let Effect::Send { batch, .. } = effect {
                buffer_batch(&buffers, &schemas, &worker, batch).unwrap();
            }
        }
    };
    let (mut corrupt, mut unroutable, mut error) = (0, 0, None);
    let mut reader = FrameReader::new(BufReader::with_capacity(
        buffer,
        Segments {
            data,
            sizes,
            next: 0,
        },
    ));
    loop {
        if !reader.frame_buffered() {
            hand_off(&mut machine);
        }
        let frame = match reader.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                error = Some((e.kind(), e.to_string()));
                break;
            }
        };
        let Ok(parsed) = wire::parse(frame) else {
            corrupt += 1;
            continue;
        };
        if parsed.receptor.0 >= ROUTED {
            unroutable += 1;
            continue;
        }
        let ts = parsed.ts.as_millis();
        if machine.push(0, parsed, ts, &[0]) {
            hand_off(&mut machine);
        }
    }
    hand_off(&mut machine);
    let chunks = buffers
        .iter()
        .map(|(id, buf)| {
            let drained = buf.lock().drain_upto(Ts::from_millis(u64::MAX)).unwrap();
            (id.0, drained.iter().map(rows).collect::<Vec<_>>())
        })
        .filter(|(_, chunks)| !chunks.is_empty())
        .collect();
    Ingested {
        chunks,
        corrupt,
        unroutable,
        error,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(256),
    })]

    #[test]
    fn one_pass_ingest_matches_the_reference(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(prop_oneof![3 => 1usize..80, 1 => 80usize..20_000], 1..8),
        buffer in prop_oneof![8usize..96, Just(64 * 1024)],
        cap in prop_oneof![1usize..24, 24usize..160],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = stream(&mut rng);
        let expected = reference(&data, &sizes);
        let got = one_pass(&data, &sizes, buffer, cap);
        prop_assert_eq!(got, expected);
    }
}
