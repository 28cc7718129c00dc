//! A counting, timing [`Vfs`] over [`RealVfs`], used only in traced runs.
//!
//! Every call is attributed to the class of file it touches — WAL segment,
//! manifest, run file, or the directory itself — and counts bytes, calls,
//! busy time, fsyncs and errors.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpu_lsm::{RealVfs, Vfs, VfsFile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Wal,
    Manifest,
    Run,
    Dir,
}

pub const CLASSES: [(Class, &str); 4] = [
    (Class::Wal, "wal"),
    (Class::Manifest, "manifest"),
    (Class::Run, "run"),
    (Class::Dir, "dir"),
];

fn class_of(path: &Path) -> Class {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.starts_with("wal-") {
        Class::Wal
    } else if name.starts_with("MANIFEST-") {
        Class::Manifest
    } else if name.starts_with("run-") {
        Class::Run
    } else {
        Class::Dir
    }
}

#[derive(Debug, Default)]
struct Counters {
    ops: AtomicU64,
    busy_ns: AtomicU64,
    write_bytes: AtomicU64,
    write_ns: AtomicU64,
    read_bytes: AtomicU64,
    files_written: AtomicU64,
    fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
    errors: AtomicU64,
}

/// A plain copy of one class's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassStats {
    pub ops: u64,
    pub busy_ns: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub read_bytes: u64,
    pub files_written: u64,
    pub fsyncs: u64,
    pub fsync_ns: u64,
    pub errors: u64,
}

impl ClassStats {
    pub fn minus(&self, b: &ClassStats) -> ClassStats {
        ClassStats {
            ops: self.ops - b.ops,
            busy_ns: self.busy_ns - b.busy_ns,
            write_bytes: self.write_bytes - b.write_bytes,
            write_ns: self.write_ns - b.write_ns,
            read_bytes: self.read_bytes - b.read_bytes,
            files_written: self.files_written - b.files_written,
            fsyncs: self.fsyncs - b.fsyncs,
            fsync_ns: self.fsync_ns - b.fsync_ns,
            errors: self.errors - b.errors,
        }
    }

    fn plus(&self, b: &ClassStats) -> ClassStats {
        ClassStats {
            ops: self.ops + b.ops,
            busy_ns: self.busy_ns + b.busy_ns,
            write_bytes: self.write_bytes + b.write_bytes,
            write_ns: self.write_ns + b.write_ns,
            read_bytes: self.read_bytes + b.read_bytes,
            files_written: self.files_written + b.files_written,
            fsyncs: self.fsyncs + b.fsyncs,
            fsync_ns: self.fsync_ns + b.fsync_ns,
            errors: self.errors + b.errors,
        }
    }
}

/// Per-class counters at one instant, indexed like [`CLASSES`].
#[derive(Debug, Clone, Copy, Default)]
pub struct VfsSnapshot(pub [ClassStats; 4]);

impl VfsSnapshot {
    pub fn minus(&self, b: &VfsSnapshot) -> VfsSnapshot {
        VfsSnapshot(std::array::from_fn(|i| self.0[i].minus(&b.0[i])))
    }

    pub fn plus(&self, b: &VfsSnapshot) -> VfsSnapshot {
        VfsSnapshot(std::array::from_fn(|i| self.0[i].plus(&b.0[i])))
    }

    pub fn class(&self, class: Class) -> ClassStats {
        self.0[class as usize]
    }

    pub fn total(&self) -> ClassStats {
        self.0
            .iter()
            .fold(ClassStats::default(), |acc, c| acc.plus(c))
    }
}

/// Clones share one set of counters, so the benchmark keeps reading them
/// after handing a clone to the library.
#[derive(Debug, Clone, Default)]
pub struct CountingVfs {
    counters: Arc<[Counters; 4]>,
}

enum Kind {
    Write(u64),
    Read(u64),
    Sync,
    Other,
}

impl CountingVfs {
    pub fn snapshot(&self) -> VfsSnapshot {
        VfsSnapshot(std::array::from_fn(|i| {
            let c = &self.counters[i];
            let l = |a: &AtomicU64| a.load(Ordering::Relaxed);
            ClassStats {
                ops: l(&c.ops),
                busy_ns: l(&c.busy_ns),
                write_bytes: l(&c.write_bytes),
                write_ns: l(&c.write_ns),
                read_bytes: l(&c.read_bytes),
                files_written: l(&c.files_written),
                fsyncs: l(&c.fsyncs),
                fsync_ns: l(&c.fsync_ns),
                errors: l(&c.errors),
            }
        }))
    }

    fn record<T>(&self, class: Class, kind: Kind, start: Instant, result: &io::Result<T>) {
        let ns = start.elapsed().as_nanos() as u64;
        let c = &self.counters[class as usize];
        c.ops.fetch_add(1, Ordering::Relaxed);
        c.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if result.is_err() {
            c.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match kind {
            Kind::Write(bytes) => {
                c.write_bytes.fetch_add(bytes, Ordering::Relaxed);
                c.write_ns.fetch_add(ns, Ordering::Relaxed);
            }
            Kind::Read(bytes) => {
                c.read_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Kind::Sync => {
                c.fsyncs.fetch_add(1, Ordering::Relaxed);
                c.fsync_ns.fetch_add(ns, Ordering::Relaxed);
            }
            Kind::Other => {}
        }
    }
}

/// A file handle whose calls are charged to its path's class.
#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    class: Class,
    vfs: CountingVfs,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_all(bytes);
        self.vfs
            .record(self.class, Kind::Write(bytes.len() as u64), t, &r);
        r
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.set_len(len);
        self.vfs.record(self.class, Kind::Other, t, &r);
        r
    }
    fn seek_start(&mut self, pos: u64) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.seek_start(pos);
        self.vfs.record(self.class, Kind::Other, t, &r);
        r
    }
    fn sync_data(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync_data();
        self.vfs.record(self.class, Kind::Sync, t, &r);
        r
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync_all();
        self.vfs.record(self.class, Kind::Sync, t, &r);
        r
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let t = Instant::now();
        let r = RealVfs.read(path);
        let n = r.as_ref().map_or(0, |b| b.len() as u64);
        self.record(class_of(path), Kind::Read(n), t, &r);
        r
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = RealVfs.write(path, bytes);
        let class = class_of(path);
        self.record(class, Kind::Write(bytes.len() as u64), t, &r);
        if r.is_ok() {
            self.counters[class as usize]
                .files_written
                .fetch_add(1, Ordering::Relaxed);
        }
        r
    }
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        let t = Instant::now();
        let class = class_of(path);
        let r = RealVfs.open_write(path, truncate);
        self.record(class, Kind::Other, t, &r);
        let inner = r?;
        Ok(Box::new(CountingFile {
            inner,
            class,
            vfs: self.clone(),
        }))
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = RealVfs.sync_file(path);
        self.record(class_of(path), Kind::Sync, t, &r);
        r
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = RealVfs.rename(from, to);
        self.record(class_of(to), Kind::Other, t, &r);
        r
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = RealVfs.remove_file(path);
        self.record(class_of(path), Kind::Other, t, &r);
        r
    }
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let t = Instant::now();
        let r = RealVfs.read_dir_names(dir);
        self.record(Class::Dir, Kind::Other, t, &r);
        r
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = RealVfs.sync_dir(dir);
        self.record(Class::Dir, Kind::Sync, t, &r);
        r
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = RealVfs.create_dir_all(dir);
        self.record(Class::Dir, Kind::Other, t, &r);
        r
    }
}
