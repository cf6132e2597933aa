//! Durable barrier checkpoints: CRC-framed manifests and a pre-image
//! undo journal.
//!
//! The EM-BSP barrier is the natural consistency point — at `sync()` every
//! live byte of the simulation is on disk — so crash durability only needs
//! two small pieces of machinery next to the drive files:
//!
//! * **Manifests** (`manifest-<step>.ckpt`): a versioned, CRC-framed
//!   snapshot of the simulator's replay state, committed *atomically* at
//!   each barrier (write `.tmp` → fsync → rename). The payload is opaque
//!   to this crate — the simulator serializes whatever it needs (RNG seed
//!   position, allocator frontiers, ledgers, fingerprints). The last two
//!   manifests are retained, so a manifest torn by a mid-write crash is
//!   detected by its CRC and the previous committed one wins.
//! * **A pre-image journal** (`journal.bin`): before the first in-place
//!   overwrite of any track within a superstep, the track's prior content
//!   is appended as a CRC-framed record. A crash *between* barriers leaves
//!   partially overwritten context and message regions; replaying the
//!   journal in reverse restores the exact barrier image before the
//!   superstep is re-run. Records are logged before the data write is
//!   submitted, and undo is idempotent (every pre-image is captured at
//!   epoch start), so a crash during recovery itself is also safe.
//!
//! The commit protocol at barrier `s` is: data `sync()` → commit
//! `manifest-<s>` → truncate the journal. Whatever prefix of that sequence
//! a crash permits, recovery converges on barrier `s` or barrier `s-1`
//! with bit-identical drive bytes either way.

use crate::block::crc32;
use crate::{DiskError, DiskResult};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of a manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"EMCKPT01";
/// Magic prefix of the pre-image journal.
pub const JOURNAL_MAGIC: &[u8; 8] = b"EMJRNL01";
/// On-disk format version written into manifests and journal headers.
pub const CHECKPOINT_VERSION: u32 = 2;

/// How many committed manifests are retained (the newest may always be
/// torn by a crash, so its predecessor must survive).
const KEEP_MANIFESTS: u64 = 2;

/// Manifest-file mechanics for one checkpoint directory (normally the
/// directory that also holds the `disk-<i>.bin` drive files).
///
/// The store knows nothing about the payload it frames; simulators encode
/// and decode their own replay state.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Attach to (creating if needed) the checkpoint directory.
    pub fn attach<P: AsRef<Path>>(dir: P) -> DiskResult<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(CheckpointStore { dir: dir.as_ref().to_path_buf() })
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the manifest committed at barrier `step`.
    pub fn manifest_path(&self, step: u64) -> PathBuf {
        self.dir.join(format!("manifest-{step}.ckpt"))
    }

    fn frame(step: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + 4 + 8 + 8 + payload.len() + 4);
        buf.extend_from_slice(MANIFEST_MAGIC);
        buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        buf.extend_from_slice(&step.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        let crc = crc32(&buf[MANIFEST_MAGIC.len()..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Atomically commit the manifest for barrier `step`: the frame is
    /// written to a temporary file, fsynced, then renamed into place, so a
    /// crash at any instant leaves either the old manifest set or the new
    /// one — never a half-written current manifest (on filesystems with
    /// atomic rename). Manifests older than the previous one are pruned.
    pub fn commit_manifest(&self, step: u64, payload: &[u8]) -> DiskResult<()> {
        let tmp = self.dir.join(format!("manifest-{step}.ckpt.tmp"));
        let frame = Self::frame(step, payload);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&frame)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.manifest_path(step))?;
        self.prune_below(step.saturating_sub(KEEP_MANIFESTS - 1))?;
        Ok(())
    }

    /// Write a deliberately torn manifest for `step`: only the first
    /// `keep` bytes of the frame land, with no atomic rename. This is a
    /// test hook simulating a crash mid-manifest-write on a filesystem
    /// without atomic-rename guarantees; recovery must detect the bad CRC
    /// and fall back to the previous committed manifest.
    pub fn write_torn_manifest(&self, step: u64, payload: &[u8], keep: usize) -> DiskResult<()> {
        let frame = Self::frame(step, payload);
        let keep = keep.min(frame.len().saturating_sub(1));
        let mut f = File::create(self.manifest_path(step))?;
        f.write_all(&frame[..keep])?;
        f.sync_data()?;
        Ok(())
    }

    /// Remove every manifest with a step below `min_step`.
    fn prune_below(&self, min_step: u64) -> DiskResult<()> {
        for step in self.list_manifest_steps()? {
            if step < min_step {
                let _ = std::fs::remove_file(self.manifest_path(step));
            }
        }
        Ok(())
    }

    /// Steps of all manifest files present (valid or not), ascending.
    pub fn list_manifest_steps(&self) -> DiskResult<Vec<u64>> {
        let mut steps = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(step) = name
                .strip_prefix("manifest-")
                .and_then(|s| s.strip_suffix(".ckpt"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                steps.push(step);
            }
        }
        steps.sort_unstable();
        Ok(steps)
    }

    /// Load and verify the manifest for `step`. Returns `None` when the
    /// file is missing, torn or fails CRC/shape verification — a torn
    /// manifest is an expected crash artifact, not an error.
    pub fn load_manifest(&self, step: u64) -> DiskResult<Option<Vec<u8>>> {
        let mut bytes = Vec::new();
        match File::open(self.manifest_path(step)) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let header = MANIFEST_MAGIC.len() + 4 + 8 + 8;
        if bytes.len() < header + 4 || &bytes[..8] != MANIFEST_MAGIC {
            return Ok(None);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let stored_step = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes")) as usize;
        if version != CHECKPOINT_VERSION || stored_step != step || bytes.len() != header + len + 4 {
            return Ok(None);
        }
        let crc = u32::from_le_bytes(bytes[header + len..].try_into().expect("4 bytes"));
        if crc32(&bytes[8..header + len]) != crc {
            return Ok(None);
        }
        bytes.drain(..header);
        bytes.truncate(len);
        Ok(Some(bytes))
    }

    /// The newest manifest that passes CRC verification, as
    /// `(step, payload)`. Torn or partial manifests are skipped; the
    /// previous committed one wins.
    pub fn latest_manifest(&self) -> DiskResult<Option<(u64, Vec<u8>)>> {
        for step in self.list_manifest_steps()?.into_iter().rev() {
            if let Some(payload) = self.load_manifest(step)? {
                return Ok(Some((step, payload)));
            }
        }
        Ok(None)
    }

    /// Remove every checkpoint artifact (manifests and journal) from the
    /// directory, leaving the drive files untouched.
    pub fn clear(&self) -> DiskResult<()> {
        for step in self.list_manifest_steps()? {
            let _ = std::fs::remove_file(self.manifest_path(step));
        }
        let _ = std::fs::remove_file(self.dir.join(JOURNAL_FILE));
        Ok(())
    }
}

/// File name of the pre-image journal inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "journal.bin";

/// Append-only writer for the pre-image undo journal.
///
/// One epoch (= one superstep attempt window) is live at a time:
/// [`JournalFile::begin_epoch`] truncates the file and stamps the epoch
/// header, [`JournalFile::append`] adds one CRC-framed pre-image record,
/// and [`JournalFile::clear`] truncates everything once the barrier's
/// manifest has committed. Records are flushed to the OS before the
/// overwrite they protect is submitted (log-before-data).
#[derive(Debug)]
pub struct JournalFile {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    epoch: u64,
}

impl JournalFile {
    /// Attach the journal inside `dir` (creating the directory if needed).
    /// The file itself is created lazily by [`JournalFile::begin_epoch`].
    pub fn attach<P: AsRef<Path>>(dir: P) -> DiskResult<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(JournalFile { path: dir.as_ref().join(JOURNAL_FILE), writer: None, epoch: 0 })
    }

    /// The epoch most recently begun (0 before any epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Start a fresh epoch: truncate the journal and write the epoch
    /// header. Called at the start of every superstep attempt, so records
    /// from a replayed attempt never mix with the current one.
    pub fn begin_epoch(&mut self, epoch: u64) -> DiskResult<()> {
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(&self.path)?;
        let mut w = BufWriter::new(file);
        let mut header = Vec::with_capacity(8 + 4 + 8 + 4);
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        header.extend_from_slice(&epoch.to_le_bytes());
        let crc = crc32(&header[JOURNAL_MAGIC.len()..]);
        header.extend_from_slice(&crc.to_le_bytes());
        w.write_all(&header)?;
        w.flush()?;
        w.get_ref().sync_data()?;
        self.writer = Some(w);
        self.epoch = epoch;
        Ok(())
    }

    /// Append one pre-image record for `(disk, track)` and flush it to the
    /// OS, so the record is observable before the overwrite it protects.
    pub fn append(&mut self, disk: usize, track: usize, pre_image: &[u8]) -> DiskResult<()> {
        let w = self
            .writer
            .as_mut()
            .ok_or(DiskError::InvalidConfig("journal append outside an epoch"))?;
        let mut rec = Vec::with_capacity(4 + 8 + 4 + pre_image.len() + 4);
        rec.extend_from_slice(&(disk as u32).to_le_bytes());
        rec.extend_from_slice(&(track as u64).to_le_bytes());
        rec.extend_from_slice(&(pre_image.len() as u32).to_le_bytes());
        rec.extend_from_slice(pre_image);
        let crc = crc32(&rec);
        rec.extend_from_slice(&crc.to_le_bytes());
        w.write_all(&rec)?;
        w.flush()?;
        Ok(())
    }

    /// Truncate the journal after the barrier's manifest has committed:
    /// the epoch it protected is durable, so its pre-images are obsolete.
    pub fn clear(&mut self) -> DiskResult<()> {
        self.writer = None;
        let f = OpenOptions::new().write(true).create(true).truncate(true).open(&self.path)?;
        f.sync_data()?;
        Ok(())
    }

    /// Read the journal in `dir` back. Returns `None` when the file is
    /// missing, empty, or its header is torn. A torn *tail* record is
    /// dropped silently: it was logged before its data write, so the write
    /// it would protect never reached the drive files.
    pub fn read<P: AsRef<Path>>(dir: P) -> DiskResult<Option<JournalContents>> {
        let path = dir.as_ref().join(JOURNAL_FILE);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let header = JOURNAL_MAGIC.len() + 4 + 8 + 4;
        if bytes.len() < header || &bytes[..8] != JOURNAL_MAGIC {
            return Ok(None);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let epoch = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
        if version != CHECKPOINT_VERSION || crc32(&bytes[8..20]) != crc {
            return Ok(None);
        }
        let mut records = Vec::new();
        let mut at = header;
        while bytes.len() - at >= 4 + 8 + 4 + 4 {
            let disk = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
            let track =
                u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes")) as usize;
            let len =
                u32::from_le_bytes(bytes[at + 12..at + 16].try_into().expect("4 bytes")) as usize;
            let end = at + 16 + len;
            if bytes.len() < end + 4 {
                break; // torn tail record
            }
            let crc = u32::from_le_bytes(bytes[end..end + 4].try_into().expect("4 bytes"));
            if crc32(&bytes[at..end]) != crc {
                break; // torn tail record
            }
            records.push((disk, track, bytes[at + 16..end].to_vec()));
            at = end + 4;
        }
        Ok(Some(JournalContents { epoch, records }))
    }
}

/// The readable contents of a pre-image journal: the epoch (superstep
/// attempt) it protects plus every complete record in append order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalContents {
    /// The superstep-attempt epoch the records belong to.
    pub epoch: u64,
    /// `(disk, track, pre-image bytes)` in the order they were captured.
    /// Undo applies them in reverse.
    pub records: Vec<(usize, usize, Vec<u8>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("em-disk-ckpt-{tag}-{}", std::process::id()))
    }

    #[test]
    fn manifest_round_trips_and_prunes() {
        let dir = tmp("roundtrip");
        let store = CheckpointStore::attach(&dir).unwrap();
        assert!(store.latest_manifest().unwrap().is_none());
        store.commit_manifest(0, b"zero").unwrap();
        store.commit_manifest(1, b"one").unwrap();
        store.commit_manifest(2, b"two").unwrap();
        assert_eq!(store.list_manifest_steps().unwrap(), vec![1, 2], "only two retained");
        assert_eq!(store.latest_manifest().unwrap(), Some((2, b"two".to_vec())));
        assert_eq!(store.load_manifest(1).unwrap(), Some(b"one".to_vec()));
        assert_eq!(store.load_manifest(0).unwrap(), None, "pruned manifest is gone");
        store.clear().unwrap();
        assert!(store.latest_manifest().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_loses_to_the_previous_committed_one() {
        let dir = tmp("torn");
        let store = CheckpointStore::attach(&dir).unwrap();
        store.commit_manifest(4, b"committed").unwrap();
        for keep in [0, 8, 20, 30] {
            store.write_torn_manifest(5, b"torn-payload", keep).unwrap();
            assert_eq!(
                store.latest_manifest().unwrap(),
                Some((4, b"committed".to_vec())),
                "torn manifest with {keep} bytes must be rejected"
            );
        }
        // A fully committed 5 then wins.
        store.commit_manifest(5, b"now-good").unwrap();
        assert_eq!(store.latest_manifest().unwrap(), Some((5, b"now-good".to_vec())));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_framed_with_another_version_is_not_loaded() {
        let dir = tmp("version");
        let store = CheckpointStore::attach(&dir).unwrap();
        store.commit_manifest(4, b"committed").unwrap();
        store.commit_manifest(5, b"old-layout").unwrap();
        // Restamp manifest 5 as the previous format, CRC and all: only the
        // version check can tell it apart.
        let path = store.manifest_path(5);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(CHECKPOINT_VERSION - 1).to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[8..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load_manifest(5).unwrap(), None);
        assert_eq!(store.latest_manifest().unwrap(), Some((4, b"committed".to_vec())));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_with_wrong_internal_step_is_rejected() {
        let dir = tmp("misnamed");
        let store = CheckpointStore::attach(&dir).unwrap();
        store.commit_manifest(3, b"payload").unwrap();
        // Rename 3 to 7: the internal step no longer matches the name.
        std::fs::rename(store.manifest_path(3), store.manifest_path(7)).unwrap();
        assert_eq!(store.load_manifest(7).unwrap(), None);
        assert!(store.latest_manifest().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_round_trips_and_drops_torn_tail() {
        let dir = tmp("journal");
        std::fs::create_dir_all(&dir).unwrap();
        let mut j = JournalFile::attach(&dir).unwrap();
        assert!(JournalFile::read(&dir).unwrap().is_none(), "no journal yet");
        j.begin_epoch(7).unwrap();
        j.append(0, 3, &[1u8; 16]).unwrap();
        j.append(2, 9, &[2u8; 16]).unwrap();
        let contents = JournalFile::read(&dir).unwrap().unwrap();
        assert_eq!(contents.epoch, 7);
        assert_eq!(contents.records, vec![(0, 3, vec![1u8; 16]), (2, 9, vec![2u8; 16])]);
        // Tear the last record: it is dropped, earlier ones survive.
        let path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let contents = JournalFile::read(&dir).unwrap().unwrap();
        assert_eq!(contents.records, vec![(0, 3, vec![1u8; 16])]);
        // A fresh epoch truncates; clear empties the file entirely.
        j.begin_epoch(8).unwrap();
        let contents = JournalFile::read(&dir).unwrap().unwrap();
        assert_eq!((contents.epoch, contents.records.len()), (8, 0));
        j.clear().unwrap();
        assert!(JournalFile::read(&dir).unwrap().is_none(), "cleared journal reads as absent");
        std::fs::remove_dir_all(&dir).ok();
    }
}
