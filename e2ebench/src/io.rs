//! The benchmark's timing `Vfs`: real file-system calls through
//! [`StdVfs`], with every write and fsync counted and timed.
//!
//! Counting is always on (a relaxed atomic next to a syscall). While
//! tracing is on, each write and fsync is also kept as an [`IoSpan`]
//! tagged with the group-commit batch it belongs to, read from the
//! engine's `group_commit.batches` counter, which the applier bumps before
//! it starts a batch's I/O.

use dbpl_obs::Counter;
use dbpl_persist::vfs::VfsFile;
use dbpl_persist::{StdVfs, Vfs};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed write or fsync.
#[derive(Debug, Clone, Copy)]
pub struct IoSpan {
    /// `"fsync"` or `"write"`.
    pub op: &'static str,
    /// The group-commit batch in flight when the call was made.
    pub batch: u64,
    /// Start, in nanoseconds since the run's clock origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Bytes written (0 for fsync).
    pub bytes: u64,
}

/// Totals since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTotals {
    /// fsyncs of files and directories.
    pub fsyncs: u64,
    /// Bytes written by appends and whole-file writes.
    pub bytes: u64,
}

impl IoTotals {
    /// The operations between `earlier` and `self`.
    pub fn since(&self, earlier: &IoTotals) -> IoTotals {
        IoTotals {
            fsyncs: self.fsyncs - earlier.fsyncs,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// Both windows' operations.
    pub fn plus(&self, other: &IoTotals) -> IoTotals {
        IoTotals {
            fsyncs: self.fsyncs + other.fsyncs,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// The shared counters and span buffer behind a [`TimingVfs`].
#[derive(Debug)]
pub struct IoStats {
    fsyncs: AtomicU64,
    bytes: AtomicU64,
    tracing: AtomicBool,
    spans: Mutex<Vec<IoSpan>>,
    batches: Arc<Counter>,
    origin: Instant,
}

impl IoStats {
    fn new(origin: Instant) -> IoStats {
        IoStats {
            fsyncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            tracing: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            batches: dbpl_obs::global().counter("group_commit.batches"),
            origin,
        }
    }

    /// The totals so far.
    pub fn totals(&self) -> IoTotals {
        IoTotals {
            fsyncs: self.fsyncs.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
        }
    }

    /// Keep (or stop keeping) a span per operation.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Relaxed);
    }

    /// The spans kept so far, leaving the buffer empty.
    pub fn take_spans(&self) -> Vec<IoSpan> {
        std::mem::take(&mut *self.spans.lock().expect("io span buffer poisoned"))
    }

    fn record<T>(
        &self,
        op: &'static str,
        bytes: u64,
        f: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        if op == "fsync" {
            self.fsyncs.fetch_add(1, Relaxed);
        } else {
            self.bytes.fetch_add(bytes, Relaxed);
        }
        if self.tracing.load(Relaxed) {
            let span = IoSpan {
                op,
                batch: self.batches.get(),
                start_ns: t0.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
                bytes,
            };
            self.spans
                .lock()
                .expect("io span buffer poisoned")
                .push(span);
        }
        out
    }
}

/// A [`Vfs`] over [`StdVfs`] that times writes and fsyncs into an
/// [`IoStats`]. Durability is exactly `StdVfs`'s: every call is passed
/// through unchanged.
#[derive(Debug, Clone)]
pub struct TimingVfs {
    stats: Arc<IoStats>,
}

impl TimingVfs {
    /// A fresh timing layer; span start times count from `origin`.
    pub fn new(origin: Instant) -> TimingVfs {
        TimingVfs {
            stats: Arc::new(IoStats::new(origin)),
        }
    }

    /// The counters and spans this layer records into.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    stats: Arc<IoStats>,
}

impl VfsFile for TimedFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.stats
            .record("write", data.len() as u64, || inner.write_all(data))
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.stats.record("fsync", 0, || inner.sync_data())
    }
}

impl Vfs for TimingVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(TimedFile {
            inner: StdVfs.open_append(path)?,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.stats
            .record("write", data.len() as u64, || StdVfs.write(path, data))
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.stats.record("fsync", 0, || StdVfs.sync_file(path))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.stats.record("fsync", 0, || StdVfs.sync_dir(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        StdVfs.set_len(path, len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        StdVfs.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        StdVfs.len(path)
    }
}
