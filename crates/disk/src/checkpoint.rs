//! Durable barrier checkpoints: CRC-framed manifests.
//!
//! The EM-BSP barrier is the natural consistency point — at `sync()` every
//! live byte of the simulation is on disk, contexts in consecutive format
//! and messages in their final region — so crash durability needs one
//! small piece of machinery next to the drive files:
//!
//! * **Manifests** (`manifest-<step>.ckpt`): a versioned, CRC-framed
//!   snapshot of the simulator's replay state, committed *atomically* at
//!   each barrier. The payload is opaque to this crate — the simulator
//!   serializes whatever it needs (allocator state, group counts,
//!   ledgers, counters). The last two manifests are retained, so a
//!   manifest torn by a mid-write crash is detected by its CRC and the
//!   previous committed one wins.
//!
//! Nothing is journaled. The simulator places every write of a superstep
//! on tracks its starting barrier left free, so the drive bytes a
//! committed manifest names stay intact until a later manifest is
//! durable. The commit protocol at barrier `s` is: fsync the drives →
//! write `manifest-<s>.ckpt.tmp` and fsync it → rename it into place →
//! fsync the directory. Whatever prefix of that sequence a crash permits,
//! recovery resumes at barrier `s` or barrier `s − 1`, and either one's
//! drive bytes are still on disk.

use crate::block::crc32;
use crate::DiskResult;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of a manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"EMCKPT01";
/// On-disk format version written into every manifest frame. Versions 4
/// and 5 frame payloads laid out as version 3's. Version 4 changed the
/// number because a version 3 directory may hold contexts overwritten in
/// place, which only its undo journal could restore. Version 5 changed it
/// because the final region's second word became its height, the sum of
/// per-bucket strides, where version 4 stored one stride for every bucket:
/// a version 4 region read as version 5 would locate the wrong tracks. A
/// reader skips a frame of any other version as it skips a torn one.
pub const CHECKPOINT_VERSION: u32 = 5;

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
    /// written to a temporary file, fsynced, then renamed into place, and
    /// the directory is fsynced so the rename itself is durable. A crash at
    /// any instant leaves either the old manifest set or the new one —
    /// never a half-written current manifest (on filesystems with atomic
    /// rename). Manifests older than the previous one are pruned.
    pub fn commit_manifest(&self, step: u64, payload: &[u8]) -> DiskResult<()> {
        let tmp = self.dir.join(format!("manifest-{step}.ckpt.tmp"));
        let frame = Self::frame(step, payload);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&frame)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.manifest_path(step))?;
        File::open(&self.dir)?.sync_all()?;
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
        // The length word is read from disk: it is compared with the bytes
        // the file holds, never added to or sized by.
        let len = bytes.len() - header - 4;
        let stored_len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        if version != CHECKPOINT_VERSION || stored_step != step || stored_len != len as u64 {
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

    /// Remove every manifest from the directory, leaving the drive files
    /// untouched.
    pub fn clear(&self) -> DiskResult<()> {
        for step in self.list_manifest_steps()? {
            let _ = std::fs::remove_file(self.manifest_path(step));
        }
        Ok(())
    }
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

    /// A frame whose length word is `u64::MAX` is torn, not a panic: the
    /// length was once added to the header size, which overflowed.
    #[test]
    fn manifest_with_an_overflowing_length_is_not_loaded() {
        let dir = tmp("overflow");
        let store = CheckpointStore::attach(&dir).unwrap();
        let mut bytes = MANIFEST_MAGIC.to_vec();
        bytes.extend(CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend(1u64.to_le_bytes());
        bytes.extend(u64::MAX.to_le_bytes());
        let crc = crc32(&bytes[8..]);
        bytes.extend(crc.to_le_bytes());
        assert_eq!(bytes.len(), 32);
        std::fs::write(store.manifest_path(1), &bytes).unwrap();
        assert_eq!(store.load_manifest(1).unwrap(), None);
        assert!(store.latest_manifest().unwrap().is_none());
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
}
