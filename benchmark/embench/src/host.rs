//! Where the benchmark ran and where it keeps its files.

use crate::json::Json;
use std::path::{Path, PathBuf};

pub const CAVEAT: &str =
    "sandbox numbers: reads are page-cache served; fsync is the sandbox's, not a device's";

/// Scratch directory `embench-<pid>` under `parent`, removed on drop —
/// whether the run succeeded, failed or counted failed jobs.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Sweeps `embench-*` directories whose process is gone, then creates ours.
    pub fn create(parent: &Path) -> Result<ScratchDir, String> {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        sweep_stale(parent);
        let path = parent.join(format!("embench-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Remove what killed runs left behind; a directory whose pid is alive stays.
fn sweep_stale(parent: &Path) {
    let Ok(entries) = std::fs::read_dir(parent) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| n.strip_prefix("embench-")) else { continue };
        let is_ours = pid.parse::<u32>().is_ok();
        if is_ours && !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    fs_type_in(&mounts, &path)
}

fn fs_type_in(mounts: &str, path: &Path) -> String {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The header every result carries.
pub fn provenance(dir: &Path, seed: u64, seconds: f64, smoke: bool) -> Json {
    let kernel = std::fs::read_to_string("/proc/version").unwrap_or_default();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("kernel", Json::str(kernel.trim())),
        ("dir_fs", Json::str(fs_type(dir))),
        ("uring_available", Json::Bool(em_disk::uring_available())),
        ("seed", Json::str(format!("{seed:#x}"))),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("debug_build", Json::Bool(cfg!(debug_assertions))),
        (
            "offline_stand_ins",
            Json::str(
                "rand (published stream), crossbeam-channel, parking_lot: see benchmark/README.md",
            ),
        ),
        ("caveat", Json::str(CAVEAT)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_mount_prefix_wins() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(fs_type_in(mounts, Path::new("/tmp/embench-1")), "tmpfs");
        assert_eq!(fs_type_in(mounts, Path::new("/root/x")), "ext4");
        assert_eq!(fs_type_in("", Path::new("/root/x")), "unknown");
    }

    #[test]
    fn scratch_dir_is_removed_and_stale_ones_swept() {
        let parent = std::env::temp_dir().join(format!("embench-test-{}", std::process::id()));
        // No live process has pid 4294967294; "embench-keep" is not ours to touch.
        let stale = parent.join("embench-4294967294");
        let foreign = parent.join("embench-keep");
        std::fs::create_dir_all(&stale).unwrap();
        std::fs::create_dir_all(&foreign).unwrap();
        let scratch = ScratchDir::create(&parent).unwrap();
        let path = scratch.path().to_path_buf();
        assert!(path.is_dir() && !stale.exists() && foreign.is_dir());
        drop(scratch);
        assert!(!path.exists());
        std::fs::remove_dir_all(&parent).unwrap();
    }
}
