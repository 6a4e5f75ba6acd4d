//! Seeded input scripts: what each connection sends, frame by frame.
//!
//! A script is generated once per run from `--seed` and pre-encoded to
//! wire frames, so the program under test sees only bytes. World model →
//! per-connection lossy channel → bounded reordering → `wire::encode`.
//! The same pass records everything the checks need: the pre-channel
//! ground truth, the delivered readings in arrival order (the reference's
//! input), the generator-side accounting, and for each epoch the frame
//! whose arrival lets the gateway's watermark certify it.

use esp_gateway::ReadingSchemas;
use esp_receptors::channel::{BernoulliChannel, Channel, Delivery, GilbertElliottChannel};
use esp_receptors::wire::{self, Reading};
use esp_types::{Chunk, Ts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workloads::{
    Emit, Fleet, Kind, Spec, CLEAN_CUT_EPOCHS, N_CONNS, PERIOD_MS, SHELVES, TAGS_PER_SHELF,
};

/// Fraction of readings the reordering delays (lateness > 0 only).
const REORDER_FRAC: f64 = 0.1;

/// What one connection sends, in send order.
#[derive(Debug, Default)]
pub struct ConnScript {
    bytes: Vec<u8>,
    ends: Vec<u32>,
    /// `slice_ends[s]` = frames sent by the end of 1 ms wall slice `s` of
    /// the paced phase.
    pub slice_ends: Vec<u32>,
    /// `certify_frame[k]` = index of the first frame stamped later than
    /// epoch `k`'s boundary plus the lateness bound: once the gateway has
    /// read it, this connection no longer holds epoch `k` back. Epochs
    /// past the end of the vector are certified only by the connection
    /// closing.
    pub certify_frame: Vec<u32>,
    /// `epoch_ends[k]` = frames whose send key falls in epochs `0..=k`.
    pub epoch_ends: Vec<u32>,
    /// `epoch_clean_ends[k]` = how many of those frames are intact.
    pub epoch_clean_ends: Vec<u32>,
    clean: u32,
}

impl ConnScript {
    /// Number of frames.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Frame `i`'s wire bytes (without the length prefix the client adds).
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// The paced-phase slice in which frame `i` is sent.
    pub fn slice_of(&self, i: u32) -> usize {
        self.slice_ends.partition_point(|&end| end <= i)
    }

    fn push(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len() as u32);
    }
}

/// Generator-side accounting; `generated == clean + lost + corrupt`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Pre-channel readings.
    pub generated: u64,
    /// Frames sent intact.
    pub clean: u64,
    /// Readings the channel dropped (never sent).
    pub lost: u64,
    /// Frames sent with a flipped byte.
    pub corrupt: u64,
}

/// One run's complete input.
#[derive(Debug)]
pub struct Script {
    /// Per-connection send sequences.
    pub conns: Vec<ConnScript>,
    /// Epochs of event time covered.
    pub epochs: usize,
    /// Generator-side totals.
    pub accounting: Accounting,
    /// Ground truth per `[group][epoch]`: pre-channel reading count
    /// (`edge-mix`, `durable-edge`), tags present (`shelf-cql`), true
    /// temperature (`redwood-native`).
    pub truth: Vec<Vec<f64>>,
    /// Delivered clean readings per `[receptor][epoch]`, in arrival
    /// order: the single-process reference's input.
    pub delivered: Vec<Vec<Option<Chunk>>>,
    /// FNV-1a digest of every connection's frame bytes and boundaries.
    pub digest: u64,
}

impl Script {
    /// Per-connection frame counts of the first `epochs` epochs of send
    /// order.
    pub fn prefix_frames(&self, epochs: usize) -> Vec<usize> {
        self.conns
            .iter()
            .map(|c| c.epoch_ends[epochs - 1] as usize)
            .collect()
    }
}

struct Item {
    key: u64,
    ts: u64,
    rec: usize,
    reading: Reading,
}

/// Per-workload channel parameters: `(delivery rate, mean burst, p_corrupt)`.
fn channel_params(kind: Kind) -> (f64, f64, f64) {
    match kind {
        Kind::EdgeMix | Kind::DurableEdge => (0.9, 4.0, 0.01),
        Kind::ShelfCql => (0.75, 3.0, 0.005),
        Kind::RedwoodNative => (0.7, 6.0, 0.005),
    }
}

/// The true temperature of granule `g` at event time `ts_ms`.
pub fn true_temp(g: usize, ts_ms: u64) -> f64 {
    let t = ts_ms as f64 / PERIOD_MS as f64;
    14.0 + 0.4 * g as f64 + 4.0 * (std::f64::consts::TAU * t / 240.0).sin()
}

fn gauss(rng: &mut StdRng) -> f64 {
    // Box–Muller; one draw per call is plenty here.
    let u1: f64 = rng.gen_f64().max(1e-12);
    let u2: f64 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// World state that persists across epochs.
struct World {
    /// `shelf-cql`: tag presence per `[shelf][tag]`.
    present: Vec<Vec<bool>>,
    /// `redwood-native`: remaining fail-dirty epochs per receptor.
    dirty: Vec<u32>,
    /// `redwood-native`: the height whose mote fails first.
    dirty_origin: usize,
}

/// Fail-dirty timetable of `redwood-native`: one mote starts lying every
/// `DIRTY_EVERY` epochs and lies for `DIRTY_FOR`, at heights
/// `DIRTY_STRIDE` apart, so no height ever has two bad motes of its three.
/// The seed picks the first height and the mote at each. How many motes
/// lie, and for how long, sets `output_err`; left to chance (a rare onset
/// per mote and epoch) it differed by a factor of two between seeds.
const DIRTY_EVERY: usize = 16;
const DIRTY_FOR: u32 = 24;
const DIRTY_STRIDE: usize = 5;

/// Generate the script for `spec` covering `epochs` epochs.
pub fn generate(spec: &Spec, fleet: &Fleet, seed: u64, epochs: usize) -> Script {
    let mut world_rng = StdRng::seed_from_u64(seed ^ 0x57_4f52_4c44);
    let mut order_rng = StdRng::seed_from_u64(seed ^ 0x4f_5244_4552);
    let (rate, burst, p_corrupt) = channel_params(spec.kind);
    let mut channels: Vec<(GilbertElliottChannel, BernoulliChannel)> = (0..N_CONNS as u64)
        .map(|c| {
            (
                GilbertElliottChannel::with_yield(
                    seed.wrapping_mul(31).wrapping_add(c),
                    rate,
                    burst,
                ),
                BernoulliChannel::new(seed.wrapping_mul(37).wrapping_add(c), 0.0, p_corrupt),
            )
        })
        .collect();

    let schemas = ReadingSchemas::new();
    let slices_per_epoch = spec.epoch_wall_ms;
    let slice_event_ms = PERIOD_MS / slices_per_epoch;
    let n_groups = fleet.groups.len();
    let mut script = Script {
        conns: (0..N_CONNS).map(|_| ConnScript::default()).collect(),
        epochs,
        accounting: Accounting::default(),
        truth: vec![vec![0.0; epochs]; n_groups],
        delivered: (0..fleet.receptors.len())
            .map(|_| (0..epochs).map(|_| None).collect())
            .collect(),
        digest: 0xcbf2_9ce4_8422_2325,
    };
    let mut world = World {
        present: (0..SHELVES)
            .map(|_| {
                (0..TAGS_PER_SHELF)
                    .map(|_| world_rng.gen_bool(0.8))
                    .collect()
            })
            .collect(),
        dirty: vec![0; fleet.receptors.len()],
        dirty_origin: (seed % n_groups as u64) as usize,
    };
    let mut pending: Vec<Vec<Item>> = (0..N_CONNS).map(|_| Vec::new()).collect();
    let mut max_clean_ts = [0u64; N_CONNS];

    for k in 0..=epochs {
        let boundary = (k as u64 + 1) * PERIOD_MS;
        if k < epochs {
            let clean_cut = (k + 1) % CLEAN_CUT_EPOCHS == 0;
            let mut emit = |rec: usize, ts: u64, reading: Reading, rng: &mut StdRng| {
                let mut delay = 0;
                if spec.lateness_ms > 0 && rng.gen_bool(REORDER_FRAC) {
                    delay = rng.gen_range(1..=spec.lateness_ms * 9 / 10);
                    if clean_cut {
                        delay = delay.min(boundary - ts);
                    }
                }
                pending[fleet.receptors[rec].conn].push(Item {
                    key: ts + delay,
                    ts,
                    rec,
                    reading,
                });
            };
            step_world(
                spec,
                fleet,
                &mut world,
                k,
                &mut script.truth,
                &mut world_rng,
                |r, ts, rd| emit(r, ts, rd, &mut order_rng),
            );
        }
        // Everything due by this boundary goes out, in key order. The
        // pass after the last epoch flushes the delayed tail.
        for (c, queue) in pending.iter_mut().enumerate() {
            queue.sort_by_key(|i| (i.key, i.ts, i.rec));
            let due = if k == epochs {
                queue.len()
            } else {
                queue.partition_point(|i| i.key <= boundary)
            };
            let conn = &mut script.conns[c];
            for item in queue.drain(..due) {
                script.accounting.generated += 1;
                let (ge, bits) = &mut channels[c];
                let outcome = match ge.transmit() {
                    Delivery::Delivered => bits.transmit(),
                    lost => lost,
                };
                if outcome == Delivery::Lost {
                    script.accounting.lost += 1;
                    continue;
                }
                let slice = ((item.key - 1) / slice_event_ms) as usize;
                while conn.slice_ends.len() < slice {
                    conn.slice_ends.push(conn.ends.len() as u32);
                }
                let frame = wire::encode(&item.reading);
                if outcome == Delivery::Corrupted {
                    let mut bad = frame.to_vec();
                    let mid = bad.len() / 2;
                    bad[mid] ^= 0xff;
                    conn.push(&bad);
                    script.accounting.corrupt += 1;
                    continue;
                }
                conn.push(&frame);
                conn.clean += 1;
                script.accounting.clean += 1;
                let epoch_of = ((item.ts - 1) / PERIOD_MS) as usize;
                let cell = &mut script.delivered[item.rec][epoch_of];
                let chunk =
                    cell.get_or_insert_with(|| Chunk::new(schemas.schema_for(&item.reading)));
                schemas
                    .append_to_chunk(&item.reading, chunk)
                    .expect("reading matches its own kind's schema");
                max_clean_ts[c] = max_clean_ts[c].max(item.ts);
                while conn.certify_frame.len() < epochs
                    && max_clean_ts[c]
                        > (conn.certify_frame.len() as u64 + 1) * PERIOD_MS + spec.lateness_ms
                {
                    conn.certify_frame.push(conn.ends.len() as u32 - 1);
                }
            }
            if k < epochs {
                conn.epoch_ends.push(conn.ends.len() as u32);
                conn.epoch_clean_ends.push(conn.clean);
            }
        }
    }
    for conn in &mut script.conns {
        conn.slice_ends.push(conn.ends.len() as u32);
        for b in conn
            .bytes
            .iter()
            .copied()
            .chain(conn.ends.iter().flat_map(|e| e.to_le_bytes()))
        {
            script.digest = (script.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    script
}

/// Advance the world one epoch, emitting `(receptor, ts, reading)` for
/// every pre-channel reading and recording the epoch's ground truth.
fn step_world(
    spec: &Spec,
    fleet: &Fleet,
    world: &mut World,
    k: usize,
    truth: &mut [Vec<f64>],
    rng: &mut StdRng,
    mut emit: impl FnMut(usize, u64, Reading),
) {
    let base = k as u64 * PERIOD_MS;
    let samples = spec.samples_per_epoch();
    let sample_ts = |i: usize, rng: &mut StdRng| {
        let slot = PERIOD_MS as usize / samples.max(1);
        base + 1 + (i * slot) as u64 + rng.gen_range(0..slot.max(1) as u64)
    };
    match spec.kind {
        Kind::EdgeMix | Kind::DurableEdge => {
            for (r, rec) in fleet.receptors.iter().enumerate() {
                for i in 0..samples {
                    let ts = Ts::from_millis(sample_ts(i, rng));
                    let receptor = rec.id;
                    let reading = match rec.emit {
                        Emit::Tag => Reading::Tag {
                            receptor,
                            ts,
                            tag_id: format!("tag-{}-{}", rec.group, rng.gen_range(0..64u32)),
                        },
                        Emit::Scalar => Reading::Scalar {
                            receptor,
                            ts,
                            value: 20.0 + gauss(rng),
                        },
                        Emit::Dual => Reading::Dual {
                            receptor,
                            ts,
                            a: 20.0 + gauss(rng),
                            b: 2.7 + 0.01 * gauss(rng),
                        },
                        Emit::Event => Reading::Event {
                            receptor,
                            ts,
                            value: "ON".into(),
                        },
                    };
                    truth[rec.group][k] += 1.0;
                    emit(r, ts.as_millis(), reading);
                }
            }
        }
        Kind::ShelfCql => {
            for (shelf, tags) in world.present.iter_mut().enumerate() {
                for p in tags.iter_mut() {
                    *p = if *p {
                        !rng.gen_bool(0.01)
                    } else {
                        rng.gen_bool(0.04)
                    };
                }
                truth[shelf][k] = tags.iter().filter(|p| **p).count() as f64;
            }
            for (r, rec) in fleet.receptors.iter().enumerate() {
                for (tag, _) in world.present[rec.group]
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| **p)
                {
                    let ts = base + 1 + rng.gen_range(0..PERIOD_MS);
                    emit(
                        r,
                        ts,
                        Reading::Tag {
                            receptor: rec.id,
                            ts: Ts::from_millis(ts),
                            // A 96-bit SGTIN as readers report it: long string keys.
                            tag_id: format!("urn:epc:id:sgtin:0614141.{:06}.{tag:010}", rec.group),
                        },
                    );
                }
            }
        }
        Kind::RedwoodNative => {
            for (g, row) in truth.iter_mut().enumerate() {
                row[k] = true_temp(g, base + PERIOD_MS);
            }
            // Fail-dirty: a mote starts reporting junk and keeps doing
            // so for a while (paper §5.2.2).
            if k.is_multiple_of(DIRTY_EVERY) {
                let height =
                    (world.dirty_origin + k / DIRTY_EVERY * DIRTY_STRIDE) % fleet.groups.len();
                let motes: Vec<usize> = (0..fleet.receptors.len())
                    .filter(|&r| fleet.receptors[r].group == height)
                    .collect();
                world.dirty[motes[rng.gen_range(0..motes.len())]] = DIRTY_FOR;
            }
            for (r, rec) in fleet.receptors.iter().enumerate() {
                let lying = world.dirty[r] > 0;
                world.dirty[r] = world.dirty[r].saturating_sub(1);
                for i in 0..samples {
                    let ts = sample_ts(i, rng);
                    let mut temp = true_temp(rec.group, ts) + 0.25 * gauss(rng);
                    if lying {
                        temp += 10.0 + 50.0 * rng.gen_f64();
                    }
                    let (receptor, ts) = (rec.id, Ts::from_millis(ts));
                    let reading = match rec.emit {
                        Emit::Dual => Reading::Dual {
                            receptor,
                            ts,
                            a: temp,
                            b: 2.7 + 0.01 * gauss(rng),
                        },
                        _ => Reading::Scalar {
                            receptor,
                            ts,
                            value: temp,
                        },
                    };
                    emit(r, ts.as_millis(), reading);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        for spec in ALL {
            let fleet = spec.fleet();
            let a = generate(&spec, &fleet, 7, 20);
            let b = generate(&spec, &fleet, 7, 20);
            let c = generate(&spec, &fleet, 8, 20);
            assert_eq!(a.digest, b.digest, "{}", spec.name);
            assert_eq!(a.accounting, b.accounting);
            assert_ne!(a.digest, c.digest, "{}", spec.name);
        }
    }

    #[test]
    fn accounting_closes_and_slices_cover_every_frame() {
        for spec in ALL {
            let fleet = spec.fleet();
            let s = generate(&spec, &fleet, 3, 20);
            let a = s.accounting;
            assert_eq!(a.generated, a.clean + a.lost + a.corrupt, "{}", spec.name);
            assert!(a.lost > 0 && a.corrupt > 0 && a.clean > a.lost);
            let frames: usize = s.conns.iter().map(ConnScript::len).sum();
            assert_eq!(frames as u64, a.clean + a.corrupt);
            for c in &s.conns {
                assert_eq!(*c.slice_ends.last().unwrap() as usize, c.len());
                assert!(c.slice_ends.windows(2).all(|w| w[0] <= w[1]));
                assert!(c.certify_frame.windows(2).all(|w| w[0] <= w[1]));
                assert_eq!(c.epoch_ends.len(), 20);
                // Most epochs are certified by a later frame; only the
                // tail waits for the connection to close.
                assert!(c.certify_frame.len() >= 17, "{}", c.certify_frame.len());
            }
        }
    }

    #[test]
    fn send_order_honours_the_lateness_promise() {
        for spec in ALL {
            let fleet = spec.fleet();
            let s = generate(&spec, &fleet, 5, 20);
            let mut reordered = 0;
            for c in &s.conns {
                let mut max_ts = 0u64;
                for i in 0..c.len() {
                    let Ok(r) = wire::decode(&c.frame(i).to_vec().into()) else {
                        continue;
                    };
                    let ts = r.ts().as_millis();
                    assert!(ts + spec.lateness_ms >= max_ts, "{}", spec.name);
                    reordered += u64::from(ts < max_ts);
                    max_ts = max_ts.max(ts);
                }
            }
            assert_eq!(reordered > 0, spec.lateness_ms > 0, "{}", spec.name);
        }
    }

    #[test]
    fn clean_cut_prefix_holds_exactly_its_epochs() {
        let spec = crate::workloads::by_name("durable-edge").unwrap();
        let fleet = spec.fleet();
        let s = generate(&spec, &fleet, 11, 2 * CLEAN_CUT_EPOCHS);
        let cut = CLEAN_CUT_EPOCHS;
        for (c, &n) in s.conns.iter().zip(&s.prefix_frames(cut)) {
            for i in 0..c.len() {
                let Ok(r) = wire::decode(&c.frame(i).to_vec().into()) else {
                    continue;
                };
                let in_prefix = r.ts().as_millis() <= cut as u64 * PERIOD_MS;
                assert_eq!(in_prefix, i < n, "frame {i} ts {}", r.ts().as_millis());
            }
        }
    }
}
