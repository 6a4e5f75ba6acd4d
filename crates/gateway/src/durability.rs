//! Gateway ↔ `esp-durability` glue: snapshot payload composition and the
//! per-worker durability hooks.
//!
//! A shard's snapshot payload is everything its worker would lose in a
//! crash: the processor's cross-epoch stage state (window buffers,
//! smoothing aggregates, counters — captured through
//! [`EspProcessor::snapshot_state`]) plus the readings buffered for
//! epochs the coordinator has not flushed yet. Both are byte-encoded with
//! `esp_types::snap` so the same truncation/corruption guarantees apply
//! end to end.
//!
//! ## Why recovery never takes the WAL lock
//!
//! Writers hold the WAL mutex across *append + enqueue* — a reader for a
//! whole hand-off batch (group commit), the coordinator for one flush
//! marker — so per-shard queue order equals WAL order exactly. A
//! recovering worker, however, reads the log **lock-free**: whatever
//! durable prefix it observes ends at some sequence number `S`, and the
//! skip rule (drop queued readings and flushes with `seq <= S`) makes any
//! such prefix consistent — records it did not see are still in its
//! queue. `S` may fall inside a batch; every reading carries its own
//! sequence number, so such a batch is trimmed, not dropped. Taking the
//! lock instead could deadlock: a reader blocked on this worker's full
//! queue would be holding it.
//!
//! The lock-free read can also race another shard's checkpoint reclaiming
//! old segments; `read_wal_dir` handles that by retrying its directory
//! listing when a listed segment vanishes before it is read. Reclaimed
//! segments only ever drop records below every shard's newest snapshot,
//! so the surviving suffix still contains everything this shard's replay
//! needs.

use std::collections::HashMap;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;

use parking_lot::Mutex;

use esp_core::EspProcessor;
use esp_durability::{DurabilityConfig, SnapshotStore, WalWriter};
use esp_types::{snap, EspError, ReceptorId, Result};

use crate::shard::ShardRouter;
use crate::worker::ReadingBuffer;

/// Everything a durable shard worker needs beyond its normal inputs.
pub(crate) struct DurabilityHooks {
    /// The validated configuration (directories, cadence, retention).
    pub config: DurabilityConfig,
    /// Snapshot reader/writer (shared across shards; files are per-shard).
    pub store: Arc<SnapshotStore>,
    /// The shared log writer — used by workers only for best-effort
    /// truncation via `try_lock`, never a blocking acquire.
    pub wal: Arc<Mutex<WalWriter>>,
    /// Router, for re-deciding which replayed readings belong here.
    pub router: Arc<ShardRouter>,
    /// Total shard count (snapshot coverage check before truncation).
    pub n_shards: usize,
    /// Checkpoint every this many epochs (`interval / period`, ≥ 1).
    pub checkpoint_every: u64,
    /// Fault injection: `-1` disarmed; `n ≥ 0` crashes the worker when it
    /// has processed `n` more flushes.
    pub crash_countdown: Arc<AtomicI64>,
}

/// Serialize one shard's recoverable state: processor stage state plus
/// the per-receptor pending buffers, in receptor-id order.
pub(crate) fn compose_payload(
    processor: &EspProcessor,
    buffers: &HashMap<ReceptorId, ReadingBuffer>,
) -> Result<Vec<u8>> {
    let state = processor.snapshot_state()?;
    let mut out = Vec::with_capacity(state.len() + 64);
    snap::put_u32(&mut out, state.len() as u32);
    out.extend_from_slice(&state);
    let mut ids: Vec<ReceptorId> = buffers.keys().copied().collect();
    ids.sort_by_key(|r| r.0);
    snap::put_u32(&mut out, ids.len() as u32);
    for id in ids {
        snap::put_u32(&mut out, id.0);
        // Materialize the columnar buffer: the snapshot encoding stays
        // byte-identical to the original row-backed buffer's.
        let rows = buffers[&id].lock().to_tuples();
        snap::encode_batch(&mut out, &rows);
    }
    Ok(out)
}

/// Restore a payload written by [`compose_payload`] into a freshly built
/// processor and its (empty) buffers.
pub(crate) fn restore_payload(
    payload: &[u8],
    processor: &mut EspProcessor,
    buffers: &HashMap<ReceptorId, ReadingBuffer>,
) -> Result<()> {
    let mut cur = snap::Cursor::new(payload);
    let state_len = cur.u32()? as usize;
    let state = cur.bytes(state_len)?.to_vec();
    processor.restore_state(&state)?;
    let n = cur.u32()?;
    for _ in 0..n {
        let id = ReceptorId(cur.u32()?);
        let pending = snap::decode_batch(&mut cur)?;
        let Some(buf) = buffers.get(&id) else {
            return Err(EspError::Snapshot(format!(
                "snapshot holds pending readings for receptor {id} which is not \
                 bound to this shard (group configuration changed since the checkpoint?)"
            )));
        };
        buf.lock().set_rows(&pending);
    }
    cur.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_without_processor_state_is_rejected() {
        // A truncated payload must fail loudly, not restore partially.
        let payload = vec![0, 0, 0, 9]; // claims 9 state bytes, has none
        let mut cur = snap::Cursor::new(&payload);
        assert_eq!(cur.u32().unwrap(), 9);
        assert!(cur.bytes(9).is_err());
    }
}
