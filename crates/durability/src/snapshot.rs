//! Versioned per-shard checkpoint snapshots.
//!
//! A snapshot captures one shard's entire cross-epoch state at an epoch
//! boundary: the pipeline's operator state plus any readings buffered but
//! not yet flushed. The payload is opaque to this module — the gateway
//! composes and interprets it — but the envelope is checksummed and
//! written atomically (`tmp` + rename), so a crash mid-checkpoint leaves
//! the previous snapshot intact and a corrupt file is skipped, never
//! restored.
//!
//! **Durability is amortized, not per-write.** [`SnapshotStore::write`]
//! does not fsync: a snapshot lost or torn by power loss merely makes
//! recovery fall back to an older one and replay more WAL. The one
//! moment a snapshot *must* be on the device is when the WAL is
//! truncated based on it — replay can no longer substitute for it.
//! [`SnapshotStore::pin_durable_basis`] fsyncs each shard's newest
//! snapshot (file, then directory) right before such a truncation, and
//! [`SnapshotStore::retain`] never deletes a pinned snapshot, so every
//! shard always has a durable snapshot at or above the WAL's truncation
//! bound. Checkpoints stay off the fsync path entirely; the cost lands
//! on the rare segment-reclamation event instead.
//!
//! File layout (big-endian), name `snap-{shard:04}-{epoch_ms:012}.snap`:
//!
//! ```text
//! magic     u32   0x45535053 ("ESPS")
//! version   u16   2
//! shard     u32
//! epoch     u64   epoch this state is aligned to (ms)
//! wal_seq   u64   WAL seq of the flush record that closed that epoch
//! len       u32   payload length
//! payload   opaque shard state
//! crc       u32   FNV-1a over everything before it
//! ```
//!
//! **Version history.** The envelope never changed; the version names the
//! payload generation, because the payload is only as portable as the
//! operator state inside it. Version 1 payloads hold Smooth's window as
//! raw tuples; version 2 payloads hold per-epoch partial aggregates
//! (DESIGN.md §2.14). A file of any other version than the current one is
//! skipped like a corrupt one — with a typed [`EspError::Snapshot`] naming
//! the version, see [`SnapshotStore::newest_rejection`] — so recovery
//! falls back to an older usable snapshot or to the WAL alone, and never
//! hands an operator bytes of a layout it would misread.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use esp_types::{EspError, Result, Ts};

const SNAP_MAGIC: u32 = 0x4553_5053; // "ESPS"
const SNAP_VERSION: u16 = 2;
const SNAP_HEADER_LEN: usize = 4 + 2 + 4 + 8 + 8 + 4;

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in bytes {
        h ^= u32::from(*b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn snap_err(msg: impl Into<String>) -> EspError {
    EspError::Snapshot(msg.into())
}

/// Fsync a directory so a just-renamed snapshot's entry survives an OS
/// crash, not only a process one.
fn fsync_dir(dir: &Path) -> Result<()> {
    let d =
        fs::File::open(dir).map_err(|e| snap_err(format!("cannot open {}: {e}", dir.display())))?;
    d.sync_all()
        .map_err(|e| snap_err(format!("cannot fsync {}: {e}", dir.display())))
}

/// Identity of one snapshot: which shard, aligned to which epoch, and
/// where the WAL replay suffix starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Shard index.
    pub shard: usize,
    /// Epoch boundary the state is aligned to.
    pub epoch: Ts,
    /// Sequence number of the WAL flush record that closed `epoch`;
    /// recovery replays WAL records strictly after this.
    pub wal_seq: u64,
}

/// Reads and writes snapshot files under one directory.
pub struct SnapshotStore {
    dir: PathBuf,
    /// Per shard, the epoch of the snapshot most recently fsynced as a
    /// WAL-truncation basis (see [`SnapshotStore::pin_durable_basis`]).
    /// [`SnapshotStore::retain`] keeps these regardless of age. In-memory
    /// only: a restart re-pins before its next truncation.
    pinned: Mutex<HashMap<usize, Ts>>,
}

impl SnapshotStore {
    /// Open (creating if needed) a snapshot directory.
    pub fn open(dir: &Path) -> Result<SnapshotStore> {
        fs::create_dir_all(dir)
            .map_err(|e| snap_err(format!("cannot create {}: {e}", dir.display())))?;
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
            pinned: Mutex::new(HashMap::new()),
        })
    }

    /// The pin map, recovered from a poisoned lock if a panicking thread
    /// held it: the map only ever grows toward durable state, so any
    /// value it held at the panic is still valid.
    fn pin_map(&self) -> std::sync::MutexGuard<'_, HashMap<usize, Ts>> {
        self.pinned
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn path_for(&self, shard: usize, epoch: Ts) -> PathBuf {
        self.dir
            .join(format!("snap-{shard:04}-{:012}.snap", epoch.as_millis()))
    }

    /// List `(epoch, path)` for one shard, oldest first.
    fn shard_files(&self, shard: usize) -> Result<Vec<(Ts, PathBuf)>> {
        let prefix = format!("snap-{shard:04}-");
        let mut out = Vec::new();
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| snap_err(format!("cannot list {}: {e}", self.dir.display())))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| snap_err(format!("cannot list {}: {e}", self.dir.display())))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(ms) = name
                .strip_prefix(&prefix)
                .and_then(|s| s.strip_suffix(".snap"))
            else {
                continue;
            };
            let Ok(ms) = ms.parse::<u64>() else { continue };
            out.push((Ts::from_millis(ms), entry.path()));
        }
        out.sort_by_key(|(e, _)| *e);
        Ok(out)
    }

    /// Write a snapshot atomically: tmp file + rename, so a crash
    /// mid-write never clobbers the previous snapshot. Deliberately no
    /// fsync — a snapshot torn or lost by power loss fails its CRC at
    /// recovery and an older one (plus more WAL replay) stands in. The
    /// fsync happens in [`SnapshotStore::pin_durable_basis`], only when
    /// WAL truncation is about to rely on this snapshot.
    pub fn write(&self, meta: SnapshotMeta, payload: &[u8]) -> Result<PathBuf> {
        let mut bytes = Vec::with_capacity(SNAP_HEADER_LEN + payload.len() + 4);
        bytes.extend_from_slice(&SNAP_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&SNAP_VERSION.to_be_bytes());
        bytes.extend_from_slice(&(meta.shard as u32).to_be_bytes());
        bytes.extend_from_slice(&meta.epoch.as_millis().to_be_bytes());
        bytes.extend_from_slice(&meta.wal_seq.to_be_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(payload);
        let crc = fnv1a(&bytes);
        bytes.extend_from_slice(&crc.to_be_bytes());

        let path = self.path_for(meta.shard, meta.epoch);
        let tmp = path.with_extension("tmp");
        let mut file = fs::File::create(&tmp)
            .map_err(|e| snap_err(format!("cannot write {}: {e}", tmp.display())))?;
        std::io::Write::write_all(&mut file, &bytes)
            .map_err(|e| snap_err(format!("cannot write {}: {e}", tmp.display())))?;
        drop(file);
        fs::rename(&tmp, &path)
            .map_err(|e| snap_err(format!("cannot publish {}: {e}", path.display())))?;
        Ok(path)
    }

    fn load(path: &Path, shard: usize, epoch: Ts) -> Result<(SnapshotMeta, Vec<u8>)> {
        let bytes =
            fs::read(path).map_err(|e| snap_err(format!("cannot read {}: {e}", path.display())))?;
        if bytes.len() < SNAP_HEADER_LEN + 4 {
            return Err(snap_err("snapshot truncated"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if fnv1a(body) != stored {
            return Err(snap_err("snapshot CRC mismatch"));
        }
        let magic = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
        if magic != SNAP_MAGIC {
            return Err(snap_err(format!("bad snapshot magic {magic:#010x}")));
        }
        let version = u16::from_be_bytes([body[4], body[5]]);
        if version != SNAP_VERSION {
            return Err(snap_err(format!("unsupported snapshot version {version}")));
        }
        let file_shard = u32::from_be_bytes([body[6], body[7], body[8], body[9]]) as usize;
        let file_epoch = Ts::from_millis(u64::from_be_bytes([
            body[10], body[11], body[12], body[13], body[14], body[15], body[16], body[17],
        ]));
        let wal_seq = u64::from_be_bytes([
            body[18], body[19], body[20], body[21], body[22], body[23], body[24], body[25],
        ]);
        if file_shard != shard || file_epoch != epoch {
            return Err(snap_err(format!(
                "snapshot {} holds shard {file_shard} epoch {} (file name disagrees)",
                path.display(),
                file_epoch.as_millis()
            )));
        }
        let len = u32::from_be_bytes([body[26], body[27], body[28], body[29]]) as usize;
        let payload = &body[SNAP_HEADER_LEN..];
        if payload.len() != len {
            return Err(snap_err("snapshot payload length mismatch"));
        }
        Ok((
            SnapshotMeta {
                shard,
                epoch,
                wal_seq,
            },
            payload.to_vec(),
        ))
    }

    /// The newest snapshot for `shard` that passes validation, falling
    /// back past corrupt or torn files (a crash mid-write never blocks
    /// recovery — at worst an older epoch is restored and more WAL is
    /// replayed). Returns `None` when the shard has no usable snapshot.
    pub fn latest_valid(&self, shard: usize) -> Result<Option<(SnapshotMeta, Vec<u8>)>> {
        for (epoch, path) in self.shard_files(shard)?.into_iter().rev() {
            match Self::load(&path, shard, epoch) {
                Ok(loaded) => return Ok(Some(loaded)),
                Err(_) => continue, // fall back to the previous snapshot
            }
        }
        Ok(None)
    }

    /// Why [`SnapshotStore::latest_valid`] passed over `shard`'s newest
    /// snapshot file, if it did: the typed error (unsupported version,
    /// CRC mismatch, truncation, …) a caller reports when nothing else —
    /// an older snapshot, a complete WAL — can stand in for that file.
    pub fn newest_rejection(&self, shard: usize) -> Result<Option<EspError>> {
        Ok(self
            .shard_files(shard)?
            .last()
            .and_then(|(epoch, path)| Self::load(path, shard, *epoch).err()))
    }

    /// Keep the newest `max_snapshots` snapshots for `shard`, deleting
    /// older ones — except the shard's pinned durable basis (see
    /// [`SnapshotStore::pin_durable_basis`]), which survives regardless
    /// of age: it is the one snapshot the truncated WAL can no longer
    /// rebuild. Returns how many files were removed.
    pub fn retain(&self, shard: usize, max_snapshots: usize) -> Result<usize> {
        let pinned = self.pin_map().get(&shard).copied();
        let files = self.shard_files(shard)?;
        let excess = files.len().saturating_sub(max_snapshots.max(1));
        let mut removed = 0;
        for (epoch, path) in files.into_iter().take(excess) {
            if Some(epoch) == pinned {
                continue;
            }
            fs::remove_file(&path)
                .map_err(|e| snap_err(format!("cannot remove {}: {e}", path.display())))?;
            removed += 1;
        }
        Ok(removed)
    }

    /// Make every shard's newest valid snapshot durable and return the
    /// smallest `wal_seq` among them, or `None` if any of `0..shards`
    /// lacks one. Called right before the WAL is truncated below the
    /// returned sequence: each basis file is fsynced, the directory is
    /// fsynced once if anything changed, and the basis epochs are pinned
    /// so [`SnapshotStore::retain`] cannot delete them until a newer
    /// basis (itself durable by then) replaces them. This is the entire
    /// fsync cost of the snapshot subsystem, paid per segment
    /// reclamation instead of per checkpoint.
    pub fn pin_durable_basis(&self, shards: usize) -> Result<Option<u64>> {
        let mut basis: Vec<(usize, Ts, u64)> = Vec::with_capacity(shards);
        for shard in 0..shards {
            match self.latest_valid(shard)? {
                Some((meta, _)) => basis.push((shard, meta.epoch, meta.wal_seq)),
                None => return Ok(None),
            }
        }
        let mut pinned = self.pin_map();
        let mut dirty = false;
        for (shard, epoch, _) in &basis {
            if pinned.get(shard) == Some(epoch) {
                continue; // already durable from an earlier pin
            }
            let path = self.path_for(*shard, *epoch);
            fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(|e| snap_err(format!("cannot fsync {}: {e}", path.display())))?;
            pinned.insert(*shard, *epoch);
            dirty = true;
        }
        if dirty {
            fsync_dir(&self.dir)?;
        }
        Ok(basis.into_iter().map(|(_, _, seq)| seq).min())
    }

    /// The smallest `wal_seq` among every shard's newest valid snapshot,
    /// or `None` if any of `0..shards` lacks one. WAL records strictly
    /// below this are no longer needed for recovery.
    pub fn min_covered_seq(&self, shards: usize) -> Result<Option<u64>> {
        let mut min = None;
        for shard in 0..shards {
            match self.latest_valid(shard)? {
                Some((meta, _)) => {
                    min = Some(min.map_or(meta.wal_seq, |m: u64| m.min(meta.wal_seq)));
                }
                None => return Ok(None),
            }
        }
        Ok(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(name: &str) -> SnapshotStore {
        let d = std::env::temp_dir().join(format!("esp-snap-{}-{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&d);
        SnapshotStore::open(&d).unwrap()
    }

    fn meta(shard: usize, epoch_ms: u64, wal_seq: u64) -> SnapshotMeta {
        SnapshotMeta {
            shard,
            epoch: Ts::from_millis(epoch_ms),
            wal_seq,
        }
    }

    #[test]
    fn write_then_latest_round_trips() {
        let s = store("rt");
        s.write(meta(0, 500, 7), b"state-a").unwrap();
        s.write(meta(0, 1000, 19), b"state-b").unwrap();
        let (m, payload) = s.latest_valid(0).unwrap().unwrap();
        assert_eq!(m, meta(0, 1000, 19));
        assert_eq!(payload, b"state-b");
    }

    #[test]
    fn shards_are_independent() {
        let s = store("shards");
        s.write(meta(0, 500, 1), b"zero").unwrap();
        s.write(meta(1, 1500, 9), b"one").unwrap();
        assert_eq!(s.latest_valid(0).unwrap().unwrap().1, b"zero");
        assert_eq!(s.latest_valid(1).unwrap().unwrap().1, b"one");
        assert!(s.latest_valid(2).unwrap().is_none());
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let s = store("fallback");
        s.write(meta(0, 500, 7), b"good").unwrap();
        let newest = s.write(meta(0, 1000, 19), b"bad-soon").unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();
        let (m, payload) = s.latest_valid(0).unwrap().unwrap();
        assert_eq!(m, meta(0, 500, 7));
        assert_eq!(payload, b"good");
    }

    #[test]
    fn every_snapshot_corrupt_means_none() {
        let s = store("allbad");
        let p = s.write(meta(0, 500, 7), b"x").unwrap();
        fs::write(&p, b"not a snapshot").unwrap();
        assert!(s.latest_valid(0).unwrap().is_none());
    }

    /// Rewrite a snapshot file as a well-formed file of another format
    /// version (valid CRC): what an older binary left on disk.
    fn rewrite_as_version(path: &Path, version: u16) {
        let mut bytes = fs::read(path).unwrap();
        bytes.truncate(bytes.len() - 4);
        bytes[4..6].copy_from_slice(&version.to_be_bytes());
        let crc = fnv1a(&bytes);
        bytes.extend_from_slice(&crc.to_be_bytes());
        fs::write(path, &bytes).unwrap();
    }

    /// A version-1 snapshot (Smooth windows as raw tuples) is intact by
    /// every envelope check, so only the version gate keeps its payload
    /// away from operators that now expect panes.
    #[test]
    fn version_1_snapshot_is_skipped_with_a_typed_error() {
        let s = store("v1");
        let v1 = s.write(meta(0, 500, 7), b"window-of-raw-tuples").unwrap();
        rewrite_as_version(&v1, 1);
        assert!(s.latest_valid(0).unwrap().is_none());
        assert!(matches!(
            s.newest_rejection(0).unwrap(),
            Some(EspError::Snapshot(m)) if m.contains("unsupported snapshot version 1")
        ));
        assert!(matches!(
            SnapshotStore::load(&v1, 0, Ts::from_millis(500)),
            Err(EspError::Snapshot(_))
        ));
        // No coverage is claimed for it, so the WAL is never truncated on
        // its account.
        assert_eq!(s.min_covered_seq(1).unwrap(), None);
        assert_eq!(s.pin_durable_basis(1).unwrap(), None);

        // Behind a current snapshot it is simply history…
        s.write(meta(0, 1000, 19), b"panes").unwrap();
        assert_eq!(s.latest_valid(0).unwrap().unwrap().1, b"panes");
        assert!(s.newest_rejection(0).unwrap().is_none());
        // …and ahead of one (a downgrade-then-upgrade) it is passed over.
        let newer_v1 = s.write(meta(0, 1500, 30), b"tuples-again").unwrap();
        rewrite_as_version(&newer_v1, 1);
        assert_eq!(s.latest_valid(0).unwrap().unwrap().0, meta(0, 1000, 19));
        assert!(s.newest_rejection(0).unwrap().is_some());
    }

    #[test]
    fn truncated_snapshot_is_skipped() {
        let s = store("trunc");
        s.write(meta(0, 500, 7), b"good").unwrap();
        let newest = s.write(meta(0, 1000, 19), b"torn").unwrap();
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(s.latest_valid(0).unwrap().unwrap().1, b"good");
    }

    #[test]
    fn retain_keeps_only_newest() {
        let s = store("retain");
        for e in 1..=5u64 {
            s.write(meta(0, e * 500, e), b"s").unwrap();
        }
        let removed = s.retain(0, 2).unwrap();
        assert_eq!(removed, 3);
        let (m, _) = s.latest_valid(0).unwrap().unwrap();
        assert_eq!(m.epoch, Ts::from_millis(2500));
    }

    #[test]
    fn retain_never_deletes_the_pinned_basis() {
        let s = store("pin");
        let mut basis_path = PathBuf::new();
        for e in 1..=5u64 {
            let p = s.write(meta(0, e * 500, e), b"s").unwrap();
            if e == 5 {
                basis_path = p;
            }
        }
        assert_eq!(s.pin_durable_basis(1).unwrap(), Some(5));
        for e in 6..=9u64 {
            s.write(meta(0, e * 500, e), b"s").unwrap();
        }
        let removed = s.retain(0, 2).unwrap();
        assert_eq!(removed, 6, "everything but the newest 2 and the pin");
        assert!(basis_path.exists(), "pinned basis survived retention");
        // A newer pin releases the old basis to the next retention pass.
        assert_eq!(s.pin_durable_basis(1).unwrap(), Some(9));
        assert_eq!(s.retain(0, 2).unwrap(), 1);
        assert!(!basis_path.exists());
    }

    #[test]
    fn pin_durable_basis_requires_every_shard() {
        let s = store("pinall");
        s.write(meta(0, 500, 3), b"a").unwrap();
        assert_eq!(s.pin_durable_basis(2).unwrap(), None);
        s.write(meta(1, 500, 8), b"b").unwrap();
        assert_eq!(s.pin_durable_basis(2).unwrap(), Some(3));
    }

    #[test]
    fn min_covered_seq_requires_every_shard() {
        let s = store("mincov");
        s.write(meta(0, 500, 12), b"a").unwrap();
        assert_eq!(s.min_covered_seq(2).unwrap(), None);
        s.write(meta(1, 500, 5), b"b").unwrap();
        assert_eq!(s.min_covered_seq(2).unwrap(), Some(5));
    }

    #[test]
    fn mismatched_name_is_rejected() {
        let s = store("rename");
        let p = s.write(meta(0, 500, 7), b"x").unwrap();
        let renamed = p.parent().unwrap().join("snap-0000-000000000999.snap");
        fs::rename(&p, &renamed).unwrap();
        // The renamed file claims epoch 999 via its name but holds 500.
        assert!(s.latest_valid(0).unwrap().is_none());
    }
}
