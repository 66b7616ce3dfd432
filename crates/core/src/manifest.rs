//! The source manifest: one record per source file — its path, its
//! stat (size, `mtime_ns`, `ctime_ns`) and the XXH64 hash of its
//! bytes ([`crate::checksum`]), as RO-Crate records a workflow run's files — and the one
//! check that decides whether a file changed since it was recorded.
//!
//! The snapshot and the lint cache each persist a manifest, and the
//! `serve` watcher keeps the store's; all three decide staleness with
//! [`Manifest::refresh`]. Like git's index, it stats every file and
//! reads only a file whose stat differs from its record, or whose mtime
//! is not older than the *stamp*, the mtime of the file holding the
//! manifest (git's racy-timestamp rule: a same-size write inside the
//! stamp's tick leaves the stat unchanged). A file whose read failed is
//! never recorded, so it is read again next time; a file read whole is,
//! even when its bytes are not UTF-8.

use crate::checksum::xxh64;
use crate::fsio::{FileStat, StoreFs};
use std::borrow::Cow;
use std::io;
use std::path::{Path, PathBuf};

/// One file a [`walk`] found.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Where the file is.
    pub path: PathBuf,
    /// Its `/`-separated path under the walked root: its record's key.
    pub rel: String,
    /// Its stat; `None` when the stat failed, so it is read.
    pub stat: Option<FileStat>,
}

impl SourceFile {
    /// This file's record, given the bytes just read from it.
    pub fn record(&self, bytes: &[u8]) -> SourceRecord {
        SourceRecord {
            path: self.rel.clone(),
            stat: self.stat.unwrap_or_default(),
            hash: xxh64(bytes),
        }
    }
}

/// One source file as recorded. A failed stat records zeros, which no
/// later stat matches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceRecord {
    pub path: String,
    pub stat: FileStat,
    pub hash: u64,
}

/// Source records in [`walk`] order, and their stamp (0 trusts no
/// stat).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    pub records: Vec<SourceRecord>,
    pub stamp_ns: u64,
}

/// How one walked file compares with its record.
#[derive(Debug)]
pub enum Fresh<'m> {
    /// Its stat matches the record and predates the stamp: not read.
    Clean(&'m SourceRecord),
    /// It was read; `old` is its record, if it has one. `text` is `Err`
    /// when the bytes are not UTF-8.
    Read {
        text: io::Result<String>,
        record: SourceRecord,
        old: Option<&'m SourceRecord>,
    },
    /// The read failed: never clean.
    Unreadable(io::Error),
}

/// Walk `root` and stat, through `fs`, each file whose relative path
/// passes `keep`, in path order; `keep` also decides which directories
/// (their paths end in `/`) the walk enters. A file root is walked as
/// itself, under its file name. With `follow`, a symlink counts as what
/// it names and only regular files are listed (a dangling link or a
/// FIFO is none); without, links are not followed and every other
/// entry is listed, so that a reader reports what it cannot read.
pub fn walk(
    root: &Path,
    fs: &dyn StoreFs,
    follow: bool,
    keep: &dyn Fn(&str) -> bool,
) -> io::Result<Vec<SourceFile>> {
    let mut found = Vec::new();
    let mut dirs = Vec::new();
    match root.file_name() {
        Some(name) if root.is_file() => {
            found.push((root.to_path_buf(), name.to_string_lossy().into_owned()))
        }
        _ => dirs.push((root.to_path_buf(), String::new())),
    }
    while let Some((dir, prefix)) = dirs.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let rel = format!("{prefix}{}", entry.file_name().to_string_lossy());
            // The type comes from the directory entry: no stat, but for
            // a link that is followed.
            let mut kind = entry.file_type()?;
            if follow && kind.is_symlink() {
                match std::fs::metadata(entry.path()) {
                    Ok(meta) => kind = meta.file_type(),
                    Err(_) => continue,
                }
            }
            if kind.is_dir() {
                let rel = rel + "/";
                if keep(&rel) {
                    dirs.push((entry.path(), rel));
                }
            } else if (kind.is_file() || !follow) && keep(&rel) {
                found.push((entry.path(), rel));
            }
        }
    }
    found.sort();
    Ok(found
        .into_iter()
        .map(|(path, rel)| SourceFile {
            stat: fs.stat(&path).ok(),
            path,
            rel,
        })
        .collect())
}

/// Read a walked file whole: its record and its text, which is `Err`
/// when the bytes are not UTF-8 — a file that is still recorded, like
/// one that does not parse. `Err` when the read failed.
pub fn read_source(
    file: &SourceFile,
    fs: &dyn StoreFs,
) -> io::Result<(SourceRecord, io::Result<String>)> {
    let bytes = fs.read(&file.path)?;
    let record = file.record(&bytes);
    let text = String::from_utf8(bytes).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    });
    Ok((record, text))
}

/// A cache file's bytes and its mtime, the stamp of the manifest
/// inside. The stat comes first: a file replaced in between only makes
/// the stamp older, and so more files racy.
pub fn read_dated(fs: &dyn StoreFs, path: &Path) -> io::Result<(Vec<u8>, u64)> {
    let stamp = fs.stat(path)?.mtime_ns;
    Ok((fs.read(path)?, stamp))
}

impl Manifest {
    /// Check a fresh [`walk`] against the records, mapping each file
    /// through `each`, in order. Files the stats clear are mapped on
    /// this thread; files to read on up to `jobs` threads. Also returns
    /// the records no file matched: the removed files.
    pub fn refresh<'m, T: Send>(
        &'m self,
        files: &[SourceFile],
        fs: &dyn StoreFs,
        jobs: usize,
        each: impl Fn(&SourceFile, Fresh<'m>) -> T + Sync,
    ) -> (Vec<T>, Vec<&'m SourceRecord>) {
        // Both sides are in walk order: merge them. A stat-clean file
        // costs no read, so a warm run spawns no thread, and what it maps
        // stays in this thread's allocator arena (mapped on two workers,
        // a warm lint left `serve` 3 MB more resident).
        let mut records = self.records.iter().peekable();
        let mut removed = Vec::new();
        let mut checked = Vec::with_capacity(files.len());
        let mut to_read = Vec::new();
        for file in files {
            let rel = Path::new(&file.rel);
            while let Some(gone) = records.next_if(|r| Path::new(&r.path) < rel) {
                removed.push(gone);
            }
            match records.next_if(|r| r.path == file.rel) {
                Some(old) if file.stat == Some(old.stat) && old.stat.mtime_ns < self.stamp_ns => {
                    checked.push(Some(each(file, Fresh::Clean(old))));
                }
                old => {
                    to_read.push((checked.len(), file, old));
                    checked.push(None);
                }
            }
        }
        removed.extend(records);
        let read = crate::par_map(&to_read, jobs, |&(_, file, old)| {
            let fresh = match read_source(file, fs) {
                Ok((record, text)) => Fresh::Read { text, record, old },
                Err(e) => Fresh::Unreadable(e),
            };
            each(file, fresh)
        });
        for (&(i, ..), mapped) in to_read.iter().zip(read) {
            checked[i] = Some(mapped);
        }
        let checked = checked
            .into_iter()
            .map(|c| c.expect("every file is mapped"));
        (checked.collect(), removed)
    }

    /// Compare the files with the records, reading only what the stats
    /// cannot clear. `Err` lists one `added P`, `changed P`, `cannot
    /// read P: E` or `removed P` per file that differs from its record;
    /// a file `unreadable` names that still cannot be read does not
    /// differ. When none differs but a stat moved (a touch, a copy, a
    /// `chmod`), `Ok(Some)` holds the records as the files stand, which
    /// a newer stamp turns stat-clean again.
    pub fn check(
        &self,
        files: &[SourceFile],
        fs: &dyn StoreFs,
        unreadable: &[String],
    ) -> Result<Option<Vec<SourceRecord>>, Vec<String>> {
        let (checked, removed) = self.refresh(files, fs, 1, |file, fresh| match fresh {
            Fresh::Clean(old) => Ok(Some(Cow::Borrowed(old))),
            Fresh::Read {
                record,
                old: Some(old),
                ..
            } if old.hash == record.hash => Ok(Some(Cow::Owned(record))),
            Fresh::Read { old: None, .. } => Err(format!("added {}", file.rel)),
            Fresh::Read { .. } => Err(format!("changed {}", file.rel)),
            Fresh::Unreadable(_) if unreadable.contains(&file.rel) => Ok(None),
            Fresh::Unreadable(e) => Err(format!("cannot read {}: {e}", file.rel)),
        });
        let mut records = Vec::with_capacity(checked.len());
        let mut changes = Vec::new();
        for checked in checked {
            match checked {
                Ok(record) => records.extend(record),
                Err(change) => changes.push(change),
            }
        }
        changes.extend(removed.iter().map(|r| format!("removed {}", r.path)));
        if !changes.is_empty() {
            return Err(changes);
        }
        let moved = records.iter().map(|r| &**r).ne(&self.records);
        Ok(moved.then(|| records.into_iter().map(Cow::into_owned).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::REAL_FS;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("provbench-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        dir
    }

    /// A manifest of `dir` as a cache written now would hold it.
    fn recorded(dir: &Path) -> Manifest {
        let files = walk(dir, &REAL_FS, true, &|_| true).unwrap();
        let records = files
            .iter()
            .map(|f| f.record(&std::fs::read(&f.path).unwrap()))
            .collect();
        Manifest {
            records,
            stamp_ns: u64::MAX,
        }
    }

    #[test]
    fn walk_lists_kept_files_in_path_order_with_stats() {
        let dir = tmpdir("walk");
        for (name, body) in [("b.ttl", "bb"), ("a.txt", "a"), ("sub/c.ttl", "ccc")] {
            std::fs::write(dir.join(name), body).unwrap();
        }
        let keep = |rel: &str| rel.ends_with(".ttl") || rel.ends_with('/');
        let rels = |follow| -> Vec<String> {
            let files = walk(&dir, &REAL_FS, follow, &keep).unwrap();
            files.into_iter().map(|f| f.rel).collect()
        };
        assert_eq!(rels(true), ["b.ttl", "sub/c.ttl"]);
        let files = walk(&dir, &REAL_FS, true, &keep).unwrap();
        assert_eq!(files[1].stat.unwrap().len, 3);
        // A file root is its own one source.
        let one = walk(&dir.join("a.txt"), &REAL_FS, true, &|_| false).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].rel, "a.txt");

        // Followed, a link is what it names: a dangling one is no file,
        // a linked directory is entered. Unfollowed, the dangling link is
        // listed and the linked directory is not entered.
        #[cfg(unix)]
        {
            std::os::unix::fs::symlink(dir.join("gone.ttl"), dir.join("dangling.ttl")).unwrap();
            std::os::unix::fs::symlink(dir.join("sub"), dir.join("linked")).unwrap();
            assert_eq!(rels(true), ["b.ttl", "linked/c.ttl", "sub/c.ttl"]);
            assert_eq!(rels(false), ["b.ttl", "dangling.ttl", "sub/c.ttl"]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_clear_files_and_reads_decide_the_rest() {
        let dir = tmpdir("refresh");
        for name in ["a", "b", "sub/c"] {
            std::fs::write(dir.join(name), name).unwrap();
        }
        let manifest = recorded(&dir);
        let files = walk(&dir, &REAL_FS, true, &|_| true).unwrap();
        // Unchanged stats before the stamp: nothing is read.
        let (fresh, removed) =
            manifest.refresh(&files, &REAL_FS, 2, |_, f| matches!(f, Fresh::Clean(_)));
        assert_eq!(fresh, [true, true, true]);
        assert!(removed.is_empty());
        assert_eq!(manifest.check(&files, &REAL_FS, &[]), Ok(None));

        // A stamp older than the files makes every one racy: all are
        // read, and all are still unchanged.
        let racy = Manifest {
            stamp_ns: 0,
            ..manifest.clone()
        };
        let (read, _) = racy.refresh(&files, &REAL_FS, 1, |_, f| {
            matches!(f, Fresh::Read { record, old: Some(old), .. } if old.hash == record.hash)
        });
        assert_eq!(read, [true, true, true]);

        // A moved stat over the same bytes is no change, but the records
        // as the files stand now come back.
        let mut touched = manifest.clone();
        touched.records[1].stat.mtime_ns += 1;
        assert_eq!(
            touched.check(&files, &REAL_FS, &[]),
            Ok(Some(manifest.records.clone()))
        );

        // Edit one, add one, remove one.
        std::fs::write(dir.join("a"), "A").unwrap();
        std::fs::write(dir.join("sub/d"), "d").unwrap();
        std::fs::remove_file(dir.join("b")).unwrap();
        let files = walk(&dir, &REAL_FS, true, &|_| true).unwrap();
        assert_eq!(
            manifest.check(&files, &REAL_FS, &[]),
            Err(vec![
                "changed a".to_owned(),
                "added sub/d".to_owned(),
                "removed b".to_owned()
            ])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bytes_that_are_not_utf8_are_recorded_and_unreadable_files_are_not() {
        let dir = tmpdir("bytes");
        std::fs::write(dir.join("a"), b"\xff\xfe").unwrap();
        let manifest = recorded(&dir);
        let files = walk(&dir, &REAL_FS, false, &|_| true).unwrap();
        let (read, _) = Manifest::default().refresh(&files, &REAL_FS, 1, |_, f| match f {
            Fresh::Read { text, .. } => text.unwrap_err().to_string(),
            _ => unreachable!(),
        });
        assert_eq!(read, ["stream did not contain valid UTF-8"]);
        assert_eq!(manifest.check(&files, &REAL_FS, &[]), Ok(None));

        // A file that cannot be read is a change, unless it is named as
        // one that could not be read before.
        #[cfg(unix)]
        {
            std::os::unix::fs::symlink(dir.join("gone"), dir.join("b")).unwrap();
            let files = walk(&dir, &REAL_FS, false, &|_| true).unwrap();
            let changes = manifest.check(&files, &REAL_FS, &[]).unwrap_err();
            assert!(changes[0].starts_with("cannot read b: "), "{changes:?}");
            assert_eq!(
                manifest.check(&files, &REAL_FS, &["b".to_owned()]),
                Ok(None)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_stat_is_read_not_trusted() {
        let dir = tmpdir("nostat");
        std::fs::write(dir.join("a"), "a").unwrap();
        let manifest = recorded(&dir);
        let mut files = walk(&dir, &REAL_FS, true, &|_| true).unwrap();
        files[0].stat = None;
        let (read, _) = manifest.refresh(&files, &REAL_FS, 1, |_, f| {
            matches!(f, Fresh::Read { record, old: Some(old), .. } if old.hash == record.hash)
        });
        assert_eq!(read, [true]);
        // Its record then carries a zero stat, which no stat matches.
        let (record, _) = manifest.refresh(&files, &REAL_FS, 1, |_, f| match f {
            Fresh::Read { record, .. } => record.stat,
            _ => unreachable!(),
        });
        assert_eq!(record, [FileStat::default()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
