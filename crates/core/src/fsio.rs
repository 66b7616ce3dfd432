//! The store's filesystem seam.
//!
//! Every file read or write the corpus store performs goes through the
//! [`StoreFs`] trait so that tests can interpose faults deterministically.
//! Production code uses [`RealFs`] (plain `std::fs` plus fsync on
//! durable writes); the `fault-inject` feature adds [`FaultFs`], a shim
//! that injects `Interrupted` errors, short writes and torn renames on a
//! seeded schedule. Directory walks (`read_dir`) are deliberately *not*
//! interposed: they enumerate names only, and a failed walk surfaces as
//! an ordinary `io::Error` with nothing on disk to corrupt.

use std::fs;
use std::io;
use std::path::Path;

/// Filesystem operations the corpus store depends on. `Sync` because the
/// parallel ingestion workers share one instance across scoped threads.
pub trait StoreFs: Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Read a whole file as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Durable write: create/truncate, write all bytes, fsync. Callers
    /// that need crash atomicity write to a temp path and [`StoreFs::rename`].
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Atomically replace `to` with `from` (POSIX rename semantics).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Delete a file. Absence is not an error for callers that use this
    /// for cleanup; they ignore the result.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Size of a file in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// Create `path` exclusively (advisory lock). Fails with
    /// [`io::ErrorKind::AlreadyExists`] when another process holds it.
    fn create_lock(&self, path: &Path) -> io::Result<()>;
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

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
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

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        fs::metadata(path).map(|m| m.len())
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
pub use fault::{FaultFs, FaultKind, FaultPlan};

#[cfg(feature = "fault-inject")]
mod fault {
    use super::{RealFs, StoreFs};
    use std::io;
    use std::path::Path;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

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

    /// When to inject.
    #[derive(Debug)]
    pub enum FaultPlan {
        /// Inject `kind` at exactly the `op`-th filesystem operation
        /// (0-based); all other operations pass through.
        Nth { kind: FaultKind, op: usize },
        /// Seeded pseudo-random schedule: each operation faults with
        /// probability `1/rate`, kind drawn from the same stream. Fully
        /// determined by the seed (given a deterministic op order).
        Seeded { state: Mutex<u64>, rate: u64 },
    }

    /// A [`StoreFs`] that wraps [`RealFs`] and injects faults per its
    /// plan. Operation counting is global across all methods, so a plan
    /// index addresses "the k-th thing the store did to the disk".
    #[derive(Debug)]
    pub struct FaultFs {
        inner: RealFs,
        plan: FaultPlan,
        ops: AtomicUsize,
        injected: AtomicUsize,
    }

    impl FaultFs {
        /// Fault exactly the `op`-th operation with `kind`.
        pub fn fail_nth(kind: FaultKind, op: usize) -> Self {
            FaultFs {
                inner: RealFs,
                plan: FaultPlan::Nth { kind, op },
                ops: AtomicUsize::new(0),
                injected: AtomicUsize::new(0),
            }
        }

        /// Seeded random schedule; roughly one in `rate` operations
        /// faults.
        pub fn seeded(seed: u64, rate: u64) -> Self {
            FaultFs {
                inner: RealFs,
                plan: FaultPlan::Seeded {
                    state: Mutex::new(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1),
                    rate: rate.max(1),
                },
                ops: AtomicUsize::new(0),
                injected: AtomicUsize::new(0),
            }
        }

        /// Total filesystem operations attempted so far.
        pub fn ops(&self) -> usize {
            self.ops.load(Ordering::SeqCst)
        }

        /// Faults actually injected so far.
        pub fn injected(&self) -> usize {
            self.injected.load(Ordering::SeqCst)
        }

        /// Decide whether the current operation faults, and how.
        fn fault(&self) -> Option<FaultKind> {
            let op = self.ops.fetch_add(1, Ordering::SeqCst);
            let kind = match &self.plan {
                FaultPlan::Nth { kind, op: target } => (op == *target).then_some(*kind),
                FaultPlan::Seeded { state, rate } => {
                    let draw = crate::xorshift64_star(
                        &mut state.lock().unwrap_or_else(|e| e.into_inner()),
                    );
                    draw.is_multiple_of(*rate)
                        .then_some(match (draw >> 32) % 4 {
                            0 => FaultKind::ReadError,
                            1 => FaultKind::Interrupted,
                            2 => FaultKind::ShortWrite,
                            _ => FaultKind::TornRename,
                        })
                }
            };
            if kind.is_some() {
                self.injected.fetch_add(1, Ordering::SeqCst);
            }
            kind
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

        fn read_to_string(&self, path: &Path) -> io::Result<String> {
            match self.fault() {
                Some(_) => Err(interrupted("read of", path)),
                None => self.inner.read_to_string(path),
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

        fn file_len(&self, path: &Path) -> io::Result<u64> {
            match self.fault() {
                Some(_) => Err(interrupted("stat of", path)),
                None => self.inner.file_len(path),
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
        assert_eq!(REAL_FS.read_to_string(&f).unwrap(), "hello");
        assert_eq!(REAL_FS.file_len(&f).unwrap(), 5);
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
