//! Per-shard pipeline workers and their crash-recovery supervisor.
//!
//! Each shard owns a full [`EspProcessor`] cleaning cascade over the
//! proximity groups hashed to it. Batches of readings and epoch
//! punctuation arrive on one bounded FIFO channel per shard. A batch is a
//! connection reader's validated frames for this shard, chained per
//! receptor; the worker appends each receptor's rows straight into the
//! typed columns of its pending [`ChunkBuffer`], taking that buffer's lock
//! once per receptor per batch, and WAL replay feeds the same batches
//! through the same step. No owned reading exists between the socket
//! and the columns. The ordering
//! protocol ([`crate::protocol`]) puts every reading with `ts <= e` ahead
//! of `Flush(e)` in the queue, so the step is deterministic however the
//! readings were batched. The worker loop runs a
//! [`protocol::Worker`]: the machine decides which messages a recovery
//! already covered and when to checkpoint; this module does the I/O.
//!
//! With durability enabled the worker thread is a **supervisor**: the
//! processor and its buffers are the crashable part, and on a (injected)
//! crash the supervisor rebuilds them from the latest valid snapshot,
//! replays the WAL suffix past the snapshot's sequence number, and resumes
//! the live queue — skipping queued messages the replay already covered.
//! Output is published into a supervisor-owned shared trace epoch by
//! epoch, with re-publication of already-delivered epochs suppressed, so
//! the merged gateway trace after a crash is byte-identical to an
//! uninterrupted run. A shard that hosts no granule runs [`spawn_idle`]
//! instead: it acknowledges punctuation and, when durable, writes empty
//! checkpoints on the same cadence.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use esp_core::{EspProcessor, Pipeline, ProximityGroups, ReceptorBinding};
use esp_durability::{read_wal_dir, SnapshotMeta, WalEntry};
use esp_receptors::wire::{self, Body};
use esp_stream::{Payload, Source};
use esp_types::{
    chunk_batch, Batch, Chunk, EspError, ReceptorId, ReceptorType, Result, StrInterner, Ts, Tuple,
};

use crate::convert::{ReadingSchemas, ShardBatch};
use crate::durability::{compose_payload, restore_payload, DurabilityHooks};
use crate::protocol;
use crate::server::{EpochTrace, GatewayGroup};
use crate::stats::{CpuTimer, GatewayStats};

/// Message on a shard's ingest queue. A `seq` is a WAL sequence number
/// (0 when durability is off — then it is never read).
pub(crate) enum ShardMsg {
    /// One connection's hand-off to this shard: its readings chained per
    /// receptor, in wire order, each with its own WAL sequence number.
    Readings(ShardBatch),
    /// Punctuation: all readings with `ts <= epoch` are upstream of this
    /// message — step the pipeline.
    Flush {
        /// WAL sequence number of the flush record.
        seq: u64,
        /// The certified epoch.
        epoch: Ts,
        /// When the coordinator enqueued this message — the worker's
        /// dequeue-time delta is the flush's queue-wait observation.
        sent: Instant,
    },
    /// Drain and exit.
    Shutdown,
}

/// One receptor's pending readings, kept **columnar**: consecutive
/// readings of one wire kind share a chunk, so ingest never materializes
/// per-reading tuples. Rows materialize only at the checkpoint boundary
/// ([`ChunkBuffer::to_tuples`] — byte-compatible with the row-backed
/// encoding).
#[derive(Default)]
pub(crate) struct ChunkBuffer {
    segs: Vec<Chunk>,
}

impl ChunkBuffer {
    /// Append a validated frame's row straight into the trailing chunk of
    /// its kind, its string payload coded into `strings` (or start a new
    /// chunk on a kind switch or a fresh string table).
    pub(crate) fn push_row(
        &mut self,
        schemas: &ReadingSchemas,
        strings: &mut StrInterner,
        receptor: ReceptorId,
        ts: Ts,
        body: Body<&str>,
    ) -> Result<()> {
        let body = body.map(|s| strings.intern(s));
        let table = strings.table();
        match self.segs.last_mut() {
            Some(chunk) if schemas.extends(chunk, &body, table) => {
                schemas.append_body(receptor, ts, body, table, chunk)
            }
            _ => {
                let mut chunk = schemas.empty_chunk(&body).clone();
                schemas.append_body(receptor, ts, body, table, &mut chunk)?;
                self.segs.push(chunk);
                Ok(())
            }
        }
    }

    /// Append one reading through the ingest path (tests).
    #[cfg(test)]
    pub(crate) fn push_reading(
        &mut self,
        schemas: &ReadingSchemas,
        reading: &esp_receptors::wire::Reading,
    ) -> Result<()> {
        let frame = wire::encode(reading);
        let parsed = wire::parse(&frame)?;
        let mut strings = schemas.strings();
        self.push_row(
            schemas,
            &mut strings,
            parsed.receptor,
            parsed.ts,
            parsed.body,
        )
    }

    /// Rebuild from a row batch (snapshot restore).
    pub(crate) fn set_rows(&mut self, rows: &[Tuple]) {
        self.segs = chunk_batch(rows);
    }

    /// Materialize every pending reading in arrival order (checkpoint
    /// composition — byte-identical to encoding a row-backed buffer).
    pub(crate) fn to_tuples(&self) -> Vec<Tuple> {
        self.segs.iter().flat_map(Chunk::to_tuples).collect()
    }

    /// Release every reading stamped `<= epoch` as chunks, preserving
    /// relative arrival order; later readings stay for the next epoch.
    /// ([`protocol::released`] is the seal rule.)
    pub(crate) fn drain_upto(&mut self, epoch: Ts) -> Result<Vec<Chunk>> {
        let released = |t: &Ts| protocol::released(*t, epoch);
        let mut out = Vec::new();
        let mut keep = Vec::new();
        for mut seg in self.segs.drain(..) {
            if seg.ts().iter().all(released) {
                out.push(seg);
            } else if !seg.ts().iter().any(released) {
                keep.push(seg);
            } else {
                // Mixed segment: one pass moves the released rows out; the
                // rest stay in place, order preserved on both sides.
                let take: Vec<bool> = seg.ts().iter().map(released).collect();
                out.push(seg.extract(&take)?);
                keep.push(seg);
            }
        }
        self.segs = keep;
        Ok(out)
    }
}

/// Shared mailbox between a shard worker (producer) and one of its
/// processor's sources (consumer). Both run on the worker thread, so the
/// mutex is uncontended.
pub(crate) type ReadingBuffer = Arc<Mutex<ChunkBuffer>>;

/// A [`Source`] that drains a [`ReadingBuffer`]: polling at `epoch`
/// releases exactly the readings stamped `<= epoch`, preserving arrival
/// order, and keeps later readings for the next epoch. The buffered chunks
/// go downstream untouched.
pub(crate) struct QueueSource {
    name: String,
    buf: ReadingBuffer,
}

impl QueueSource {
    pub(crate) fn new(receptor: ReceptorId, buf: ReadingBuffer) -> QueueSource {
        QueueSource {
            name: format!("gateway-{receptor}"),
            buf,
        }
    }
}

impl Source for QueueSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, epoch: Ts) -> Result<Payload> {
        Ok(Payload::from(self.buf.lock().drain_upto(epoch)?))
    }
}

/// Build one shard's crashable half: the processor and the per-receptor
/// pending buffers its sources drain. Recovery calls this again to get a
/// fresh pair (a [`Pipeline`] holds stage *factories*, so it can build
/// any number of processors).
pub(crate) fn build_shard(
    groups: &[GatewayGroup],
    pipeline: &Pipeline,
) -> Result<(EspProcessor, HashMap<ReceptorId, ReadingBuffer>)> {
    let mut pg = ProximityGroups::new();
    let mut rtype_of: HashMap<ReceptorId, ReceptorType> = HashMap::new();
    for g in groups {
        pg.add_group(
            g.receptor_type,
            g.granule.clone(),
            g.members.iter().copied(),
        );
        for &m in &g.members {
            rtype_of.entry(m).or_insert(g.receptor_type);
        }
    }
    let mut members: Vec<ReceptorId> = rtype_of.keys().copied().collect();
    members.sort_by_key(|r| r.0);

    let mut buffers: HashMap<ReceptorId, ReadingBuffer> = HashMap::new();
    let mut bindings = Vec::with_capacity(members.len());
    for id in members {
        let buf: ReadingBuffer = Arc::new(Mutex::new(ChunkBuffer::default()));
        buffers.insert(id, Arc::clone(&buf));
        bindings.push(ReceptorBinding::new(
            id,
            rtype_of[&id],
            Box::new(QueueSource::new(id, buf)),
        ));
    }
    let processor = EspProcessor::build(pg, pipeline, bindings)?;
    Ok((processor, buffers))
}

/// Buffer one hand-off batch, skipping each reading the WAL replay
/// already buffered ([`protocol::Worker::fresh`]): one buffer lookup and
/// one lock per receptor in the batch, and one lock of the string table
/// the payloads are coded into.
pub(crate) fn buffer_batch(
    buffers: &HashMap<ReceptorId, ReadingBuffer>,
    schemas: &ReadingSchemas,
    core: &protocol::Worker,
    batch: ShardBatch,
) -> Result<()> {
    let mut strings = schemas.strings();
    for (receptor, rows) in batch.receptors() {
        // Router guarantees membership, but a dynamic group edit could
        // race a reading in flight; dropping here matches the processor,
        // which drops tuples from departed members.
        let Some(buf) = buffers.get(&receptor) else {
            continue;
        };
        let mut buf = buf.lock();
        for (seq, ts, body) in rows {
            if core.fresh(seq) {
                buf.push_row(schemas, &mut strings, receptor, ts, body)?;
            }
        }
    }
    Ok(())
}

/// Append freshly drained output to the shared trace, suppressing epochs
/// at or below `published_through` (already delivered before a crash),
/// then advance the high-water mark to `epoch`.
fn publish(
    out: Vec<(Ts, Batch)>,
    trace: &Mutex<EpochTrace>,
    published_through: &mut Option<Ts>,
    epoch: Ts,
) {
    let mut t = trace.lock();
    for (ts, batch) in out {
        if published_through.is_none_or(|p| ts > p) {
            t.push((ts, batch));
        }
    }
    drop(t);
    *published_through = Some(published_through.map_or(epoch, |p| p.max(epoch)));
}

/// Rebuild a shard from its latest valid snapshot plus the WAL suffix,
/// returning the fresh `(processor, buffers)`.
///
/// The skip rule ([`protocol::Worker::fresh`]) first skips the records
/// the snapshot covers; afterwards `core` skips through the highest WAL
/// sequence number the replay covered, since queued messages at or below
/// it were already applied. Reads the WAL without the writer lock (see
/// `crate::durability` for why any observed prefix is consistent).
#[allow(clippy::too_many_arguments)]
fn recover(
    shard: usize,
    d: &DurabilityHooks,
    groups: &[GatewayGroup],
    pipeline: &Pipeline,
    schemas: &ReadingSchemas,
    trace: &Mutex<EpochTrace>,
    published_through: &mut Option<Ts>,
    stats: &GatewayStats,
    core: &mut protocol::Worker,
) -> Result<(EspProcessor, HashMap<ReceptorId, ReadingBuffer>)> {
    let (mut processor, buffers) = build_shard(groups, pipeline)?;
    let mut replay_after: Option<u64> = None;
    if let Some((meta, payload)) = d.store.latest_valid(shard)? {
        restore_payload(&payload, &mut processor, &buffers)?;
        replay_after = Some(meta.wal_seq);
    }
    let records = read_wal_dir(&d.config.wal_dir())?;
    // With no usable snapshot the log must reach back to its first record:
    // segments are only ever reclaimed below a snapshot every shard had,
    // so a log that starts later means that snapshot has since become
    // unreadable (corrupt, or written in an older format), and replaying
    // the surviving suffix into an empty shard would silently lose state.
    if let (None, Some(first)) = (replay_after, records.first().filter(|r| r.seq > 0)) {
        return Err(d.store.newest_rejection(shard)?.unwrap_or_else(|| {
            EspError::Snapshot(format!(
                "shard {shard} has no snapshot, yet the WAL starts at record {}: \
                 the reclaimed prefix cannot be replayed",
                first.seq
            ))
        }));
    }
    let skip_through = records.last().map(|r| r.seq);
    core.recovered(replay_after);
    // The readings logged since the last flush record, buffered (as the
    // live path does) before the next epoch steps.
    let mut replayed = ShardBatch::default();
    for rec in records {
        if !core.fresh(rec.seq) {
            continue;
        }
        match rec.entry {
            WalEntry::Reading(frame) => {
                let row = wire::parse(&frame).map_err(|e| {
                    EspError::Wal(format!("WAL record {}: undecodable frame: {e}", rec.seq))
                })?;
                let mine = d
                    .router
                    .shards_of(row.receptor)
                    .is_some_and(|dests| dests.contains(&shard));
                if mine {
                    replayed.extend([(rec.seq, row)]);
                }
            }
            WalEntry::Flush(epoch) => {
                buffer_batch(&buffers, schemas, core, std::mem::take(&mut replayed))?;
                // Re-step the epoch. Flush-latency accounting is skipped
                // during replay: the coordinator's pending entry for a
                // crashed-through epoch was either already closed or
                // belongs to a previous process.
                processor.step(epoch)?;
                publish(processor.take_output(), trace, published_through, epoch);
            }
        }
    }
    buffer_batch(&buffers, schemas, core, replayed)?;
    core.recovered(skip_through);
    stats.note_recovery();
    Ok((processor, buffers))
}

/// Take a checkpoint: snapshot this shard's state keyed to the epoch just
/// flushed, prune old snapshots, and opportunistically truncate the WAL
/// below what every shard's newest snapshot covers.
fn checkpoint(
    shard: usize,
    d: &DurabilityHooks,
    processor: &EspProcessor,
    buffers: &HashMap<ReceptorId, ReadingBuffer>,
    epoch: Ts,
    flush_seq: u64,
    stats: &GatewayStats,
) -> Result<()> {
    let t0 = CpuTimer::start();
    let payload = compose_payload(processor, buffers)?;
    d.store.write(
        SnapshotMeta {
            shard,
            epoch,
            wal_seq: flush_seq,
        },
        &payload,
    )?;
    d.store.retain(shard, d.config.max_snapshots)?;
    stats.note_checkpoint();
    stats.note_checkpoint_time(t0.elapsed_nanos());
    // Reclaim log segments no shard needs any more. `try_lock`, never a
    // blocking acquire: a reader blocked on a full shard queue may be
    // holding the WAL lock, and blocking here instead of draining would
    // deadlock. Two bounds compose: every shard's newest snapshot must
    // cover a record before it is reclaimable, AND the record must belong
    // to an epoch older than `epoch - wal_retention`, so the log always
    // spans at least the permitted reading lateness of event time (E0802)
    // no matter where the epoch clock started. When a segment would
    // actually go, the snapshots the truncation relies on are first made
    // durable (`pin_durable_basis`) — the WAL can rebuild a lost
    // snapshot, but only while it still holds the records.
    if let Some(min) = d.store.min_covered_seq(d.n_shards)? {
        if let Some(mut wal) = d.wal.try_lock() {
            let horizon = Ts::from_millis(
                epoch
                    .as_millis()
                    .saturating_sub(d.config.wal_retention.as_millis()),
            );
            if let Some(aged) = wal.reclaimable_through(horizon) {
                // `truncate_below` keeps any segment holding `min_seq`
                // itself, so reclaiming records `<= aged` passes `aged+1`.
                let bound = min.min(aged + 1);
                if wal.would_reclaim(bound)? {
                    // Re-derive the bound from the *fsynced* basis: it can
                    // only be newer than the pre-check's, never older.
                    if let Some(durable_min) = d.store.pin_durable_basis(d.n_shards)? {
                        wal.truncate_below(durable_min.min(aged + 1))?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Record how long a flush waited in the shard queue.
fn note_dequeued(stats: &GatewayStats, sent: Instant) {
    if esp_obs::enabled() {
        stats.note_queue_wait(sent.elapsed().as_nanos() as u64);
    }
}

/// Spawn one shard worker/supervisor. Owns its pipeline (for rebuilds)
/// and publishes output into `trace`; the thread returns only a status.
pub(crate) fn spawn_worker(
    shard: usize,
    rx: Receiver<ShardMsg>,
    groups: Vec<GatewayGroup>,
    pipeline: Pipeline,
    trace: Arc<Mutex<EpochTrace>>,
    stats: GatewayStats,
    durability: Option<DurabilityHooks>,
) -> Result<JoinHandle<Result<()>>> {
    let schemas = ReadingSchemas::new();
    thread::Builder::new()
        .name(format!("esp-gateway-shard-{shard}"))
        .spawn(move || {
            let mut published_through: Option<Ts> = None;
            let mut core = protocol::Worker::new(durability.as_ref().map(|d| d.checkpoint_every));

            // Startup: a durable worker always goes through recovery. On
            // a fresh directory it is a no-op build; on a restart it
            // restores the snapshot and replays the WAL suffix.
            let (mut processor, mut buffers) = match &durability {
                Some(d) => recover(
                    shard,
                    d,
                    &groups,
                    &pipeline,
                    &schemas,
                    &trace,
                    &mut published_through,
                    &stats,
                    &mut core,
                )?,
                None => build_shard(&groups, &pipeline)?,
            };
            // Per-stage/per-epoch spans, attached *after* recovery so WAL
            // replay steps are not billed as live epochs (the scrape-side
            // conservation law counts one step span per flushed epoch).
            let shard_label = shard.to_string();
            processor.attach_obs(&stats.registry(), &[("shard", &shard_label)]);

            loop {
                match rx.recv() {
                    Ok(ShardMsg::Readings(batch)) => {
                        buffer_batch(&buffers, &schemas, &core, batch)?;
                    }
                    Ok(ShardMsg::Flush { seq, epoch, sent }) => {
                        note_dequeued(&stats, sent);
                        if !core.fresh(seq) {
                            continue; // replay already stepped it
                        }
                        if let Some(d) = &durability {
                            let armed = d.crash_countdown.load(Ordering::Acquire);
                            if armed == 0 {
                                // Injected crash: abandon the processor and
                                // every buffered reading, then come back
                                // through the recovery path. The flush we
                                // were about to act on is in the WAL, so
                                // the replay performs it and the skip rule
                                // swallows this (now stale) message.
                                d.crash_countdown.store(-1, Ordering::Release);
                                stats.note_crash();
                                drop(processor);
                                (processor, buffers) = recover(
                                    shard,
                                    d,
                                    &groups,
                                    &pipeline,
                                    &schemas,
                                    &trace,
                                    &mut published_through,
                                    &stats,
                                    &mut core,
                                )?;
                                // Rebuilt processor: re-derive the same
                                // registered span handles.
                                processor.attach_obs(&stats.registry(), &[("shard", &shard_label)]);
                                if !core.fresh(seq) {
                                    continue;
                                }
                            } else if armed > 0 {
                                d.crash_countdown.fetch_sub(1, Ordering::AcqRel);
                            }
                        }
                        processor.step(epoch)?;
                        publish(
                            processor.take_output(),
                            &trace,
                            &mut published_through,
                            epoch,
                        );
                        let strings = schemas.strings();
                        let entries = strings.table().len() as u64;
                        stats.note_string_table(shard, entries, strings.swaps());
                        drop(strings);
                        stats.note_flush_done(epoch.as_millis());
                        if let (true, Some(d)) = (core.stepped(), &durability) {
                            checkpoint(shard, d, &processor, &buffers, epoch, seq, &stats)?;
                        }
                    }
                    Ok(ShardMsg::Shutdown) | Err(_) => break,
                }
            }
            Ok(())
        })
        .map_err(|e| EspError::Config(format!("spawn shard worker thread: {e}")))
}

/// Spawn the sink of a shard no granule hashed to. It still acknowledges
/// punctuation (exact flush-latency accounting) and, when durable, writes
/// empty checkpoints on the worker's cadence, so WAL truncation is not
/// held hostage by an idle shard.
pub(crate) fn spawn_idle(
    shard: usize,
    rx: Receiver<ShardMsg>,
    stats: GatewayStats,
    durability: Option<DurabilityHooks>,
) -> Result<JoinHandle<Result<()>>> {
    thread::Builder::new()
        .name(format!("esp-gateway-shard-{shard}"))
        .spawn(move || {
            let mut core = protocol::Worker::new(durability.as_ref().map(|d| d.checkpoint_every));
            loop {
                match rx.recv() {
                    Ok(ShardMsg::Flush { seq, epoch, sent }) => {
                        note_dequeued(&stats, sent);
                        stats.note_flush_done(epoch.as_millis());
                        if let (true, Some(d)) = (core.stepped(), &durability) {
                            let t0 = CpuTimer::start();
                            let meta = SnapshotMeta {
                                shard,
                                epoch,
                                wal_seq: seq,
                            };
                            d.store.write(meta, &[])?;
                            d.store.retain(shard, d.config.max_snapshots)?;
                            stats.note_checkpoint();
                            stats.note_checkpoint_time(t0.elapsed_nanos());
                        }
                    }
                    Ok(ShardMsg::Readings(_)) => {}
                    Ok(ShardMsg::Shutdown) | Err(_) => break,
                }
            }
            Ok(())
        })
        .map_err(|e| EspError::Config(format!("spawn shard sink thread: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_receptors::wire::Reading;

    fn scalar(receptor: u32, secs: u64, value: f64) -> Reading {
        Reading::Scalar {
            receptor: ReceptorId(receptor),
            ts: Ts::from_secs(secs),
            value,
        }
    }

    fn tag(receptor: u32, secs: u64, tag_id: &str) -> Reading {
        Reading::Tag {
            receptor: ReceptorId(receptor),
            ts: Ts::from_secs(secs),
            tag_id: tag_id.into(),
        }
    }

    #[test]
    fn chunk_buffer_segments_by_kind_and_round_trips() {
        let schemas = ReadingSchemas::new();
        let mut buf = ChunkBuffer::default();
        let readings = vec![
            scalar(1, 0, 1.0),
            scalar(1, 1, 2.0),
            tag(1, 2, "a"),
            scalar(1, 3, 3.0),
        ];
        for r in &readings {
            buf.push_reading(&schemas, r).unwrap();
        }
        // Three runs: scalar x2, tag x1, scalar x1.
        assert_eq!(buf.segs.len(), 3);
        let by_tuple: Vec<Tuple> = readings.iter().map(|r| schemas.to_tuple(r)).collect();
        assert_eq!(buf.to_tuples(), by_tuple);
    }

    #[test]
    fn drain_upto_splits_mixed_segments_in_order() {
        let schemas = ReadingSchemas::new();
        let mut buf = ChunkBuffer::default();
        // One segment with interleaved early/late stamps.
        for r in [
            scalar(1, 1, 1.0),
            scalar(1, 9, 9.0),
            scalar(1, 2, 2.0),
            scalar(1, 8, 8.0),
        ] {
            buf.push_reading(&schemas, &r).unwrap();
        }
        let out = buf.drain_upto(Ts::from_secs(5)).unwrap();
        let released: Vec<u64> = out
            .iter()
            .flat_map(Chunk::to_tuples)
            .map(|t| t.ts().as_millis() / 1000)
            .collect();
        assert_eq!(released, vec![1, 2]);
        let kept: Vec<u64> = buf
            .to_tuples()
            .iter()
            .map(|t| t.ts().as_millis() / 1000)
            .collect();
        assert_eq!(kept, vec![9, 8]);
        // A later drain releases the rest.
        let rest = buf.drain_upto(Ts::from_secs(10)).unwrap();
        assert_eq!(rest.iter().map(Chunk::len).sum::<usize>(), 2);
        assert!(buf.to_tuples().is_empty());
    }

    #[test]
    fn batch_straddling_skip_through_is_trimmed_not_dropped() {
        let groups = vec![GatewayGroup {
            receptor_type: ReceptorType::Mote,
            granule: "room".into(),
            members: vec![ReceptorId(1)],
        }];
        let (_processor, buffers) = build_shard(&groups, &Pipeline::raw()).unwrap();
        let schemas = ReadingSchemas::new();
        let batch_of = |entries: Vec<(u64, Reading)>| {
            let mut batch = ShardBatch::default();
            for (seq, r) in entries {
                let frame = wire::encode(&r);
                batch.extend([(seq, wire::parse(&frame).unwrap())]);
            }
            batch
        };
        // Sequence numbers 10..=14; the replay covered through 12.
        let batch = batch_of(
            (10..15)
                .map(|seq| (seq, scalar(1, seq, seq as f64)))
                .collect(),
        );
        let mut core = protocol::Worker::new(None);
        core.recovered(Some(12));
        buffer_batch(&buffers, &schemas, &core, batch).unwrap();
        let kept: Vec<u64> = buffers[&ReceptorId(1)]
            .lock()
            .to_tuples()
            .iter()
            .map(|t| t.ts().as_millis() / 1000)
            .collect();
        assert_eq!(kept, vec![13, 14], "exactly the readings past the replay");

        // A batch wholly past the boundary is kept whole; one wholly
        // covered is dropped; no boundary keeps everything.
        let past = batch_of(vec![(15, scalar(1, 15, 0.0))]);
        buffer_batch(&buffers, &schemas, &core, past).unwrap();
        let covered = batch_of(vec![(11, scalar(1, 11, 0.0))]);
        buffer_batch(&buffers, &schemas, &core, covered).unwrap();
        let fresh = batch_of(vec![(0, scalar(1, 16, 0.0))]);
        buffer_batch(&buffers, &schemas, &protocol::Worker::new(None), fresh).unwrap();
        assert_eq!(buffers[&ReceptorId(1)].lock().to_tuples().len(), 4);

        // The covered prefix can end inside a later kind run.
        let mixed = batch_of(vec![
            (20, scalar(1, 20, 0.0)),
            (21, tag(1, 21, "a")),
            (22, tag(1, 22, "b")),
            (23, scalar(1, 23, 0.0)),
        ]);
        let mut core = protocol::Worker::new(None);
        core.recovered(Some(21));
        buffer_batch(&buffers, &schemas, &core, mixed).unwrap();
        let tail: Vec<u64> = buffers[&ReceptorId(1)].lock().to_tuples()[4..]
            .iter()
            .map(|t| t.ts().as_millis() / 1000)
            .collect();
        assert_eq!(tail, vec![22, 23]);
    }

    /// More distinct tags than one string table holds, through the ingest
    /// path: every epoch's rows equal the reference path's, a full table
    /// is swapped for a fresh one with a fresh trailing chunk, and once
    /// the released chunks are gone only the current table is alive.
    #[test]
    fn string_tables_stay_bounded_past_capacity() {
        use esp_types::{ColumnVec, StrTable, STR_TABLE_CAPACITY};
        use std::sync::Weak;

        let groups = vec![GatewayGroup {
            receptor_type: ReceptorType::Rfid,
            granule: "shelf".into(),
            members: vec![ReceptorId(1)],
        }];
        let (_processor, buffers) = build_shard(&groups, &Pipeline::raw()).unwrap();
        let schemas = ReadingSchemas::new();
        let core = protocol::Worker::new(None);
        let per_epoch = 1_000;
        let mut tables: Vec<Weak<StrTable>> = Vec::new();
        for epoch in 0..(STR_TABLE_CAPACITY / per_epoch + 4) {
            // Every tenth reading repeats one tag; the rest are new.
            let readings: Vec<Reading> = (0..per_epoch)
                .map(|i| match i % 10 {
                    0 => tag(1, epoch as u64, "tag-repeated"),
                    _ => tag(1, epoch as u64, &format!("tag-{}", epoch * per_epoch + i)),
                })
                .collect();
            let mut batch = ShardBatch::default();
            for r in &readings {
                let frame = wire::encode(r);
                batch.extend([(0, wire::parse(&frame).unwrap())]);
            }
            buffer_batch(&buffers, &schemas, &core, batch).unwrap();
            let current = Arc::clone(schemas.strings().table());
            assert!(current.len() <= STR_TABLE_CAPACITY);
            if !tables.iter().any(|t| t.as_ptr() == Arc::as_ptr(&current)) {
                tables.push(Arc::downgrade(&current));
            }
            let released = buffers[&ReceptorId(1)]
                .lock()
                .drain_upto(Ts::from_secs(epoch as u64))
                .unwrap();
            let mut reference = Chunk::new(schemas.schema_for(&readings[0]));
            for r in &readings {
                schemas.append_to_chunk(r, &mut reference).unwrap();
            }
            let rows: Vec<Tuple> = released.iter().flat_map(Chunk::to_tuples).collect();
            assert_eq!(rows, reference.to_tuples(), "epoch {epoch}");
            // One chunk per table; every chunk coded.
            let coded: Vec<&Arc<StrTable>> = (released.iter())
                .filter_map(|c| c.col(1).and_then(ColumnVec::table))
                .collect();
            assert_eq!(coded.len(), released.len());
            assert!(coded.windows(2).all(|w| !Arc::ptr_eq(w[0], w[1])));
            assert!(coded.len() <= 2, "epoch {epoch}: {} tables", coded.len());
            drop((released, current));
            let live: Vec<Arc<StrTable>> = tables.iter().filter_map(Weak::upgrade).collect();
            assert_eq!(live.len(), 1, "epoch {epoch}: only the current table lives");
        }
        assert_eq!(schemas.strings().swaps(), 1);
        assert_eq!(tables.len(), 2);
    }

    #[test]
    fn queue_source_polls_columnar_chunks_in_arrival_order() {
        let schemas = ReadingSchemas::new();
        let buf: ReadingBuffer = Arc::new(Mutex::new(ChunkBuffer::default()));
        for r in [scalar(1, 1, 1.0), tag(1, 2, "a"), scalar(1, 7, 7.0)] {
            buf.lock().push_reading(&schemas, &r).unwrap();
        }
        let expected: Vec<Tuple> = buf.lock().to_tuples()[..2].to_vec();
        let payload = QueueSource::new(ReceptorId(1), buf)
            .poll(Ts::from_secs(5))
            .unwrap();
        assert_eq!(payload.rows(), expected);
        assert_eq!(payload.chunks().len(), 2, "one chunk per kind run");
    }
}
