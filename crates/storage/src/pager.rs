//! Page-granular storage backends.
//!
//! A [`Pager`] reads and writes fixed-size pages by page number. Two backends
//! are provided: an in-memory pager (tests, experiments that only need I/O
//! *accounting*) and a file-backed pager (durability tests, examples).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use parking_lot::Mutex;

use crate::govern::CancelToken;

/// Default page size; the paper's experiments use 1 KB pages (§5.1).
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Plain page format: the whole page is payload (format generation 1).
pub const PAGE_FORMAT_PLAIN: u32 = 1;

/// Errors raised by pagers.
#[derive(Debug)]
pub enum PagerError {
    /// Page number beyond the allocated range.
    OutOfRange { page: u64, pages: u64 },
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A transient fault: the operation failed but a retry may succeed
    /// (interrupted syscalls, injected EIO, controller hiccups).
    Transient { page: u64, op: &'static str },
    /// The page's stored checksum does not match its contents, or its
    /// trailer is malformed: the bytes cannot be trusted.
    Corrupt { page: u64, reason: &'static str },
    /// The caller's buffer does not match the pager's page size.
    FrameSize { expected: usize, got: usize },
}

impl PagerError {
    /// Whether a retry of the same operation may succeed (the fault is in
    /// the I/O path, not in the stored bytes).
    pub fn is_transient(&self) -> bool {
        match self {
            PagerError::Transient { .. } => true,
            PagerError::Io(e) => e.kind() == std::io::ErrorKind::Interrupted,
            _ => false,
        }
    }

    /// Whether the error means the stored bytes are damaged.
    pub fn is_corruption(&self) -> bool {
        matches!(self, PagerError::Corrupt { .. })
    }
}

impl std::fmt::Display for PagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagerError::OutOfRange { page, pages } => {
                write!(f, "page {page} out of range (file has {pages})")
            }
            PagerError::Io(e) => write!(f, "pager I/O error: {e}"),
            PagerError::Transient { page, op } => {
                write!(f, "transient I/O fault during {op} of page {page}")
            }
            PagerError::Corrupt { page, reason } => {
                write!(f, "page {page} is corrupt: {reason}")
            }
            PagerError::FrameSize { expected, got } => {
                write!(f, "buffer of {got} bytes for {expected}-byte pages")
            }
        }
    }
}

impl std::error::Error for PagerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PagerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PagerError {
    fn from(e: std::io::Error) -> Self {
        PagerError::Io(e)
    }
}

/// A fixed-page-size storage backend.
pub trait Pager: Send {
    /// Page size in bytes. Constant over the pager's lifetime.
    fn page_size(&self) -> usize;
    /// Number of allocated pages.
    fn page_count(&self) -> u64;
    /// Appends a zeroed page, returning its number.
    fn allocate(&mut self) -> Result<u64, PagerError>;
    /// Reads page `page` into `out` (`out.len() == page_size()`).
    fn read_page(&self, page: u64, out: &mut [u8]) -> Result<(), PagerError>;
    /// Overwrites page `page` with `data` (`data.len() == page_size()`).
    fn write_page(&mut self, page: u64, data: &[u8]) -> Result<(), PagerError>;
    /// Flushes buffered writes to stable storage.
    fn sync(&mut self) -> Result<(), PagerError>;
    /// Generation of the on-page byte format this pager reads and writes.
    /// Plain pagers expose the whole page ([`PAGE_FORMAT_PLAIN`]); the
    /// checksumming decorator reserves a verified trailer
    /// ([`crate::checksum::PAGE_FORMAT_CRC`]).
    fn page_format_version(&self) -> u32 {
        PAGE_FORMAT_PLAIN
    }
    /// Number of page reads re-issued after a checksum (corruption) failure
    /// anywhere in the pager stack. Plain pagers never retry; the retry
    /// decorator overrides this, and every other decorator forwards it so
    /// the count survives arbitrary stacking.
    fn checksum_retries(&self) -> u64 {
        0
    }
    /// Installs a cooperative-cancellation governor consulted by decorators
    /// that sleep or retry (the retry layer caps each backoff by the token's
    /// remaining deadline and stops retrying once it cancels). Plain pagers
    /// ignore it; decorators store and/or forward it down the stack. Install
    /// [`CancelToken::unlimited`] to clear a previous governor.
    fn set_governor(&self, _token: &CancelToken) {}
}

/// Boxed pagers are pagers: lets call sites pick a pager stack at runtime
/// (plain vs checksummed files) behind one store type.
// Forwarding for any boxed pager, including trait objects (`Box<dyn Pager>`
// and the shareable `Box<dyn Pager + Sync>` used by concurrent readers).
impl<P: Pager + ?Sized> Pager for Box<P> {
    fn page_size(&self) -> usize {
        (**self).page_size()
    }
    fn page_count(&self) -> u64 {
        (**self).page_count()
    }
    fn allocate(&mut self) -> Result<u64, PagerError> {
        (**self).allocate()
    }
    fn read_page(&self, page: u64, out: &mut [u8]) -> Result<(), PagerError> {
        (**self).read_page(page, out)
    }
    fn write_page(&mut self, page: u64, data: &[u8]) -> Result<(), PagerError> {
        (**self).write_page(page, data)
    }
    fn sync(&mut self) -> Result<(), PagerError> {
        (**self).sync()
    }
    fn page_format_version(&self) -> u32 {
        (**self).page_format_version()
    }
    fn checksum_retries(&self) -> u64 {
        (**self).checksum_retries()
    }
    fn set_governor(&self, token: &CancelToken) {
        (**self).set_governor(token)
    }
}

/// Rejects a frame buffer whose size does not match the page size.
pub(crate) fn check_frame(expected: usize, got: usize) -> Result<(), PagerError> {
    if expected == got {
        Ok(())
    } else {
        Err(PagerError::FrameSize { expected, got })
    }
}

/// An in-memory pager.
#[derive(Debug, Default)]
pub struct MemPager {
    page_size: usize,
    pages: Vec<Box<[u8]>>,
}

impl MemPager {
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size {page_size} unreasonably small");
        Self {
            page_size,
            pages: Vec::new(),
        }
    }
}

impl Pager for MemPager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    fn allocate(&mut self) -> Result<u64, PagerError> {
        self.pages
            .push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(self.pages.len() as u64 - 1)
    }

    fn read_page(&self, page: u64, out: &mut [u8]) -> Result<(), PagerError> {
        check_frame(self.page_size, out.len())?;
        let slot = self
            .pages
            .get(page as usize)
            .ok_or(PagerError::OutOfRange {
                page,
                pages: self.page_count(),
            })?;
        out.copy_from_slice(slot);
        Ok(())
    }

    fn write_page(&mut self, page: u64, data: &[u8]) -> Result<(), PagerError> {
        check_frame(self.page_size, data.len())?;
        let pages = self.page_count();
        let slot = self
            .pages
            .get_mut(page as usize)
            .ok_or(PagerError::OutOfRange { page, pages })?;
        slot.copy_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), PagerError> {
        Ok(())
    }
}

/// A file-backed pager. Reads take `&self`, so the file handle sits behind a
/// mutex; page-level concurrency control belongs to the buffer pool above.
#[derive(Debug)]
pub struct FilePager {
    file: Mutex<File>,
    page_size: usize,
    pages: u64,
}

impl FilePager {
    /// Creates (truncating) a new paged file.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self, PagerError> {
        assert!(page_size >= 64, "page size {page_size} unreasonably small");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file: Mutex::new(file),
            page_size,
            pages: 0,
        })
    }

    /// Opens an existing paged file.
    ///
    /// # Errors
    /// Fails when the file length is not a whole number of pages.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self, PagerError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(PagerError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("file length {len} not a multiple of page size {page_size}"),
            )));
        }
        Ok(Self {
            file: Mutex::new(file),
            page_size,
            pages: len / page_size as u64,
        })
    }

    /// Opens an existing paged file, truncating a trailing partial page.
    ///
    /// Recovery entry point: a writer killed mid-`write_page` can leave the
    /// file with a ragged tail. [`FilePager::open`] refuses such files; this
    /// constructor chops the incomplete page (it was never acknowledged by a
    /// `sync`, so no durable data is lost) and reports how many bytes went.
    pub fn open_trimmed<P: AsRef<Path>>(
        path: P,
        page_size: usize,
    ) -> Result<(Self, u64), PagerError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let trimmed = len % page_size as u64;
        if trimmed != 0 {
            file.set_len(len - trimmed)?;
            file.sync_all()?;
        }
        Ok((
            Self {
                file: Mutex::new(file),
                page_size,
                pages: (len - trimmed) / page_size as u64,
            },
            trimmed,
        ))
    }
}

impl Pager for FilePager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn page_count(&self) -> u64 {
        self.pages
    }

    fn allocate(&mut self) -> Result<u64, PagerError> {
        let page = self.pages;
        let zeros = vec![0u8; self.page_size];
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(page * self.page_size as u64))?;
            f.write_all(&zeros)?;
        }
        self.pages += 1;
        Ok(page)
    }

    fn read_page(&self, page: u64, out: &mut [u8]) -> Result<(), PagerError> {
        check_frame(self.page_size, out.len())?;
        if page >= self.pages {
            return Err(PagerError::OutOfRange {
                page,
                pages: self.pages,
            });
        }
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(page * self.page_size as u64))?;
        f.read_exact(out)?;
        Ok(())
    }

    fn write_page(&mut self, page: u64, data: &[u8]) -> Result<(), PagerError> {
        check_frame(self.page_size, data.len())?;
        if page >= self.pages {
            return Err(PagerError::OutOfRange {
                page,
                pages: self.pages,
            });
        }
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(page * self.page_size as u64))?;
        f.write_all(data)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), PagerError> {
        self.file.lock().sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(pager: &mut dyn Pager) {
        let ps = pager.page_size();
        let p0 = pager.allocate().expect("alloc");
        let p1 = pager.allocate().expect("alloc");
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(pager.page_count(), 2);

        let mut buf = vec![0u8; ps];
        pager.read_page(0, &mut buf).expect("read zeroed");
        assert!(buf.iter().all(|&b| b == 0));

        let data: Vec<u8> = (0..ps).map(|i| (i % 251) as u8).collect();
        pager.write_page(1, &data).expect("write");
        pager.read_page(1, &mut buf).expect("read back");
        assert_eq!(buf, data);

        assert!(matches!(
            pager.read_page(5, &mut buf),
            Err(PagerError::OutOfRange { page: 5, .. })
        ));
        assert!(matches!(
            pager.write_page(5, &data),
            Err(PagerError::OutOfRange { .. })
        ));
        pager.sync().expect("sync");
    }

    #[test]
    fn mem_pager_basics() {
        let mut p = MemPager::new(256);
        exercise(&mut p);
    }

    #[test]
    fn file_pager_basics() {
        let dir = std::env::temp_dir().join(format!("twpager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("basic.pages");
        let mut p = FilePager::create(&path, 256).expect("create");
        exercise(&mut p);
        drop(p);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_pager_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("twpager-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist.pages");
        let data: Vec<u8> = (0..512).map(|i| (i % 7) as u8).collect();
        {
            let mut p = FilePager::create(&path, 512).expect("create");
            p.allocate().unwrap();
            p.write_page(0, &data).unwrap();
            p.sync().unwrap();
        }
        {
            let p = FilePager::open(&path, 512).expect("open");
            assert_eq!(p.page_count(), 1);
            let mut buf = vec![0u8; 512];
            p.read_page(0, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_pager_rejects_misaligned_file() {
        let dir = std::env::temp_dir().join(format!("twpager-mis-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("misaligned.pages");
        std::fs::write(&path, vec![0u8; 300]).unwrap();
        assert!(FilePager::open(&path, 256).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "unreasonably small")]
    fn tiny_page_size_rejected() {
        let _ = MemPager::new(16);
    }

    #[test]
    fn wrong_frame_size_is_a_typed_error() {
        let mut p = MemPager::new(256);
        p.allocate().unwrap();
        let mut small = vec![0u8; 100];
        assert!(matches!(
            p.read_page(0, &mut small),
            Err(PagerError::FrameSize {
                expected: 256,
                got: 100
            })
        ));
        assert!(matches!(
            p.write_page(0, &small),
            Err(PagerError::FrameSize { .. })
        ));
    }

    #[test]
    fn open_trimmed_drops_partial_tail() {
        let dir = std::env::temp_dir().join(format!("twpager-trim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.pages");
        // Two whole pages plus 100 bytes of torn tail.
        std::fs::write(&path, vec![7u8; 2 * 256 + 100]).unwrap();
        let (p, trimmed) = FilePager::open_trimmed(&path, 256).expect("open trimmed");
        assert_eq!(trimmed, 100);
        assert_eq!(p.page_count(), 2);
        drop(p);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 512);
        // An already-aligned file is untouched.
        let (p, trimmed) = FilePager::open_trimmed(&path, 256).expect("reopen");
        assert_eq!(trimmed, 0);
        assert_eq!(p.page_count(), 2);
        drop(p);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_classification() {
        assert!(PagerError::Transient {
            page: 3,
            op: "read"
        }
        .is_transient());
        let interrupted = PagerError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "EINTR",
        ));
        assert!(interrupted.is_transient());
        assert!(!PagerError::Corrupt {
            page: 0,
            reason: "crc"
        }
        .is_transient());
        assert!(PagerError::Corrupt {
            page: 0,
            reason: "crc"
        }
        .is_corruption());
    }
}
