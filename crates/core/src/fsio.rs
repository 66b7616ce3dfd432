//! The store's filesystem seam.
//!
//! Every file stat, read or write the corpus store and the lint cache
//! perform goes through the [`StoreFs`] trait so that tests can
//! interpose faults deterministically. Production code uses [`RealFs`]
//! (plain `std::fs` plus fsync on durable writes); the `fault-inject`
//! feature adds `FaultFs`, a shim that injects `Interrupted` errors,
//! short writes and torn renames on a seeded schedule. Directory walks
//! (`read_dir`) are deliberately *not* interposed: they enumerate names
//! only, and a failed walk surfaces as an ordinary `io::Error` with
//! nothing on disk to corrupt.

use std::fs;
use std::io;
use std::path::Path;

/// What a stat says about a file: its size, and its modification and
/// status-change times in ns since the epoch. The change time (0 off
/// unix) moves on every write, even one whose mtime is put back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FileStat {
    pub len: u64,
    pub mtime_ns: u64,
    pub ctime_ns: u64,
}

impl From<&fs::Metadata> for FileStat {
    fn from(meta: &fs::Metadata) -> Self {
        let mtime_ns = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos() as u64);
        #[cfg(unix)]
        let ctime_ns = {
            use std::os::unix::fs::MetadataExt;
            (meta.ctime() as u64)
                .wrapping_mul(1_000_000_000)
                .wrapping_add(meta.ctime_nsec() as u64)
        };
        #[cfg(not(unix))]
        let ctime_ns = 0;
        FileStat {
            len: meta.len(),
            mtime_ns,
            ctime_ns,
        }
    }
}

/// Filesystem operations the corpus store depends on. `Sync` because the
/// parallel ingestion workers share one instance across scoped threads.
pub trait StoreFs: Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Durable write: create/truncate, write all bytes, fsync. Callers
    /// that need crash atomicity use [`StoreFs::write_atomic`].
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Atomically replace `to` with `from` (POSIX rename semantics).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Delete a file. Absence is not an error for callers that use this
    /// for cleanup; they ignore the result.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Size and times of a file (following symlinks).
    fn stat(&self, path: &Path) -> io::Result<FileStat>;

    /// Create `path` exclusively (advisory lock). Fails with
    /// [`io::ErrorKind::AlreadyExists`] when another process holds it.
    fn create_lock(&self, path: &Path) -> io::Result<()>;

    /// Crash-safe publish: write everything to `tmp` (fsynced), then
    /// atomically rename it over `dest`; on failure remove `tmp`. A
    /// crash or fault at any point leaves either the old `dest` or
    /// litter at `tmp` — never a torn `dest` (and a torn `dest` from a
    /// non-atomic filesystem fails its checksum on the next read).
    fn write_atomic(&self, tmp: &Path, dest: &Path, data: &[u8]) -> io::Result<()> {
        let result = self.write(tmp, data).and_then(|()| self.rename(tmp, dest));
        if result.is_err() {
            let _ = self.remove_file(tmp);
        }
        result
    }
}

/// The real filesystem. Durable writes fsync before returning so that a
/// rename afterwards publishes fully-written bytes or nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealFs;

/// Shared default instance for [`crate::store::StoreOptions::default`].
pub static REAL_FS: RealFs = RealFs;

impl StoreFs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use io::Write;
        let mut f = fs::File::create(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn stat(&self, path: &Path) -> io::Result<FileStat> {
        fs::metadata(path).map(|m| FileStat::from(&m))
    }

    fn create_lock(&self, path: &Path) -> io::Result<()> {
        fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map(|_| ())
    }
}

#[cfg(feature = "fault-inject")]
pub use fault::{FaultFs, FaultKind};

#[cfg(feature = "fault-inject")]
mod fault {
    use super::{FileStat, RealFs, StoreFs};
    use crate::FaultPlan;
    use std::io;
    use std::path::Path;

    /// What kind of fault to inject at a chosen operation.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultKind {
        /// A read fails with `ErrorKind::Interrupted`.
        ReadError,
        /// Any operation fails with `ErrorKind::Interrupted` before it
        /// touches the disk.
        Interrupted,
        /// A write persists only a prefix of the bytes, then errors —
        /// the on-disk file is silently truncated, as after a crash
        /// mid-write.
        ShortWrite,
        /// A rename leaves a *partial* copy at the destination and
        /// removes the source — the worst case on a non-atomic
        /// filesystem interrupted mid-move.
        TornRename,
    }

    /// A [`StoreFs`] that wraps [`RealFs`] and injects faults per its
    /// plan. Operation counting is global across all methods, so a plan
    /// index addresses "the k-th thing the store did to the disk".
    #[derive(Debug)]
    pub struct FaultFs {
        inner: RealFs,
        plan: FaultPlan<FaultKind>,
    }

    impl FaultFs {
        /// Fault exactly the `op`-th operation with `kind`.
        pub fn fail_nth(kind: FaultKind, op: usize) -> Self {
            FaultFs {
                inner: RealFs,
                plan: FaultPlan::nth(kind, op),
            }
        }

        /// Seeded random schedule; roughly one in `rate` operations
        /// faults.
        pub fn seeded(seed: u64, rate: u64) -> Self {
            FaultFs {
                inner: RealFs,
                plan: FaultPlan::seeded(seed, rate),
            }
        }

        /// Total filesystem operations attempted so far.
        pub fn ops(&self) -> usize {
            self.plan.ops()
        }

        /// Faults actually injected so far.
        pub fn injected(&self) -> usize {
            self.plan.injected()
        }

        /// Decide whether the current operation faults, and how.
        fn fault(&self) -> Option<FaultKind> {
            self.plan.next(|draw| match (draw >> 32) % 4 {
                0 => FaultKind::ReadError,
                1 => FaultKind::Interrupted,
                2 => FaultKind::ShortWrite,
                _ => FaultKind::TornRename,
            })
        }
    }

    fn interrupted(what: &str, path: &Path) -> io::Error {
        io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected fault: {what} {} interrupted", path.display()),
        )
    }

    impl StoreFs for FaultFs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            match self.fault() {
                Some(_) => Err(interrupted("read of", path)),
                None => self.inner.read(path),
            }
        }

        fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            match self.fault() {
                Some(FaultKind::ShortWrite) => {
                    // Persist half the bytes, then fail: a torn write.
                    let _ = self.inner.write(path, &data[..data.len() / 2]);
                    Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        format!("injected fault: short write to {}", path.display()),
                    ))
                }
                Some(_) => Err(interrupted("write to", path)),
                None => self.inner.write(path, data),
            }
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            match self.fault() {
                Some(FaultKind::TornRename) => {
                    // Leave a partial destination and no source — the
                    // worst a non-atomic move can do.
                    if let Ok(bytes) = self.inner.read(from) {
                        let _ = self.inner.write(to, &bytes[..bytes.len() / 2]);
                    }
                    let _ = self.inner.remove_file(from);
                    Err(interrupted("rename of", from))
                }
                Some(_) => Err(interrupted("rename of", from)),
                None => self.inner.rename(from, to),
            }
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            match self.fault() {
                Some(_) => Err(interrupted("remove of", path)),
                None => self.inner.remove_file(path),
            }
        }

        fn stat(&self, path: &Path) -> io::Result<FileStat> {
            match self.fault() {
                Some(_) => Err(interrupted("stat of", path)),
                None => self.inner.stat(path),
            }
        }

        fn create_lock(&self, path: &Path) -> io::Result<()> {
            match self.fault() {
                Some(_) => Err(interrupted("lock of", path)),
                None => self.inner.create_lock(path),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_fs_roundtrip_and_lock() {
        let dir = std::env::temp_dir().join(format!("provbench-fsio-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let f = dir.join("a.bin");
        REAL_FS.write(&f, b"hello").unwrap();
        assert_eq!(REAL_FS.read(&f).unwrap(), b"hello");
        assert_eq!(REAL_FS.stat(&f).unwrap().len, 5);
        let g = dir.join("b.bin");
        REAL_FS.rename(&f, &g).unwrap();
        assert!(!f.exists() && g.exists());

        let lock = dir.join("l.lock");
        REAL_FS.create_lock(&lock).unwrap();
        let again = REAL_FS.create_lock(&lock).unwrap_err();
        assert_eq!(again.kind(), io::ErrorKind::AlreadyExists);
        REAL_FS.remove_file(&lock).unwrap();
        REAL_FS.create_lock(&lock).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
