//! LRU buffer pool.
//!
//! Sits between a [`Pager`] and the sequence store, caching hot pages and
//! counting hits/misses. The miss counts are what the cost model prices: a
//! page served from the pool costs no modeled I/O, mirroring how the paper's
//! R-tree root and upper levels stay resident across queries.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::pager::{check_frame, Pager, PagerError};

/// Hit/miss counters for the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
}

impl BufferStats {
    /// Fraction of accesses served from memory; 0 when no accesses happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    data: Box<[u8]>,
    dirty: bool,
    /// Monotonic last-use stamp for LRU choice.
    last_used: u64,
}

struct PoolInner {
    frames: HashMap<u64, Frame>,
    clock: u64,
    stats: BufferStats,
    /// The buffer of the last evicted frame, kept for the next miss to fill.
    spare: Option<Box<[u8]>>,
}

/// An LRU page cache over a pager.
pub struct BufferPool<P: Pager> {
    pager: Mutex<P>,
    inner: Mutex<PoolInner>,
    governor: Mutex<crate::govern::CancelToken>,
    capacity: usize,
    page_size: usize,
}

impl<P: Pager> BufferPool<P> {
    /// Creates a pool caching up to `capacity` pages.
    pub fn new(pager: P, capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let page_size = pager.page_size();
        Self {
            pager: Mutex::new(pager),
            inner: Mutex::new(PoolInner {
                frames: HashMap::with_capacity(capacity),
                clock: 0,
                stats: BufferStats::default(),
                spare: None,
            }),
            governor: Mutex::new(crate::govern::CancelToken::unlimited()),
            capacity,
            page_size,
        }
    }

    /// Page size of the underlying pager.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Page format generation of the underlying pager.
    pub fn page_format_version(&self) -> u32 {
        self.pager.lock().page_format_version()
    }

    /// Checksum-triggered read retries absorbed by the pager stack (see
    /// [`Pager::checksum_retries`]); 0 for stacks without a retry layer.
    pub fn checksum_retries(&self) -> u64 {
        self.pager.lock().checksum_retries()
    }

    /// Installs a cancellation governor: each cache miss charges one pager
    /// read against the token, and the pager stack underneath (retry layers
    /// in particular) caps its sleeps by the token's remaining deadline.
    /// Cache hits stay free — only misses touch real I/O. Charging trips
    /// the token but never fails the read: cancellation is observed
    /// cooperatively by the query loop above, not by poisoning I/O.
    pub fn set_governor(&self, token: &crate::govern::CancelToken) {
        *self.governor.lock() = token.clone();
        self.pager.lock().set_governor(token)
    }

    /// Number of pages in the underlying pager.
    pub fn page_count(&self) -> u64 {
        self.pager.lock().page_count()
    }

    /// Current counters.
    pub fn stats(&self) -> BufferStats {
        self.inner.lock().stats
    }

    /// Resets the counters (e.g., between measured queries).
    pub fn reset_stats(&self) {
        self.inner.lock().stats = BufferStats::default();
    }

    /// Allocates a fresh page in the underlying pager.
    pub fn allocate(&self) -> Result<u64, PagerError> {
        self.pager.lock().allocate()
    }

    /// Runs `f` over the cached bytes of `page`, loading it on a miss, and
    /// returns what `f` returns. This is the pool's one read path: a hit
    /// lends the resident frame, a miss reads the page straight into the
    /// buffer the previous eviction freed and lends that — no copy either
    /// way.
    ///
    /// The frame table stays locked while `f` runs, so `f` must not call
    /// back into this pool. That is what keeps the borrowed bytes from being
    /// evicted under it; callers keep `f` to a copy or a decode.
    pub fn with_page<T>(&self, page: u64, f: impl FnOnce(&[u8]) -> T) -> Result<T, PagerError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        if let Some(frame) = inner.frames.get_mut(&page) {
            frame.last_used = inner.clock;
            inner.stats.hits += 1;
            return Ok(f(&frame.data));
        }
        inner.stats.misses += 1;
        let _ = self.governor.lock().charge_pager_reads(1);
        let mut data = self.spare_buffer(inner);
        // tw-allow(lock-hygiene): miss fill pins the frame table so a page loads exactly once
        if let Err(e) = self.pager.lock().read_page(page, &mut data) {
            inner.spare = Some(data);
            return Err(e);
        }
        self.insert_frame(inner, page, data, false).map(f)
    }

    /// Reads a page through the cache into `out`.
    pub fn read(&self, page: u64, out: &mut [u8]) -> Result<(), PagerError> {
        check_frame(self.page_size, out.len())?;
        self.with_page(page, |bytes| out.copy_from_slice(bytes))
    }

    /// Writes a page through the cache (write-back on eviction).
    pub fn write(&self, page: u64, data: &[u8]) -> Result<(), PagerError> {
        check_frame(self.page_size, data.len())?;
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        if let Some(frame) = inner.frames.get_mut(&page) {
            frame.data.copy_from_slice(data);
            frame.dirty = true;
            frame.last_used = inner.clock;
            inner.stats.hits += 1;
            return Ok(());
        }
        inner.stats.misses += 1;
        let mut frame = self.spare_buffer(inner);
        frame.copy_from_slice(data);
        self.insert_frame(inner, page, frame, true)?;
        Ok(())
    }

    /// A page-sized buffer for an incoming frame: the one the last eviction
    /// freed, or a fresh one while the pool is still filling.
    fn spare_buffer(&self, inner: &mut PoolInner) -> Box<[u8]> {
        inner
            .spare
            .take()
            .unwrap_or_else(|| vec![0u8; self.page_size].into_boxed_slice())
    }

    /// Makes `data` the most recently used frame for `page` and returns its
    /// bytes, first evicting the least recently used frame (written back if
    /// dirty) when the pool is full. The victim's buffer becomes the spare.
    fn insert_frame<'a>(
        &self,
        inner: &'a mut PoolInner,
        page: u64,
        data: Box<[u8]>,
        dirty: bool,
    ) -> Result<&'a [u8], PagerError> {
        if inner.frames.len() >= self.capacity {
            let victim = inner
                .frames
                .iter()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(&p, _)| p);
            if let Some((victim, frame)) =
                victim.and_then(|v| inner.frames.remove(&v).map(|f| (v, f)))
            {
                inner.stats.evictions += 1;
                if frame.dirty {
                    inner.stats.writebacks += 1;
                    self.pager.lock().write_page(victim, &frame.data)?;
                }
                inner.spare = Some(frame.data);
            }
        }
        let frame = Frame {
            data,
            dirty,
            last_used: inner.clock,
        };
        Ok(&inner.frames.entry(page).or_insert(frame).data)
    }

    /// Writes every dirty frame back and syncs the pager.
    pub fn flush(&self) -> Result<(), PagerError> {
        let mut inner = self.inner.lock();
        let mut pager = self.pager.lock();
        for (&page, frame) in inner.frames.iter_mut() {
            if frame.dirty {
                // tw-allow(lock-hygiene): write-back must walk the frame table it locks
                pager.write_page(page, &frame.data)?;
                frame.dirty = false;
            }
        }
        // tw-allow(lock-hygiene, lock-blocking): dirty flags above and device order must agree
        pager.sync()
    }

    /// Consumes the pool, flushing and returning the pager.
    pub fn into_pager(self) -> Result<P, PagerError> {
        self.flush()?;
        Ok(self.pager.into_inner())
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn pool(cap: usize) -> BufferPool<MemPager> {
        let mut pager = MemPager::new(64);
        for _ in 0..8 {
            pager.allocate().unwrap();
        }
        BufferPool::new(pager, cap)
    }

    #[test]
    fn read_caches_page() {
        let pool = pool(4);
        let mut buf = vec![0u8; 64];
        pool.read(0, &mut buf).unwrap();
        pool.read(0, &mut buf).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.hit_ratio(), 0.5);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let pool = pool(2);
        let mut buf = vec![0u8; 64];
        pool.read(0, &mut buf).unwrap(); // miss
        pool.read(1, &mut buf).unwrap(); // miss
        pool.read(0, &mut buf).unwrap(); // hit, freshens 0
        pool.read(2, &mut buf).unwrap(); // miss, evicts 1
        pool.read(0, &mut buf).unwrap(); // still a hit
        pool.read(1, &mut buf).unwrap(); // miss again
        let s = pool.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 2);
        assert!(s.evictions >= 2);
    }

    #[test]
    fn with_page_lends_the_frame_and_counts_like_read() {
        let mut pager = MemPager::new(64);
        for i in 0..3u8 {
            let p = pager.allocate().unwrap();
            pager.write_page(p, &[i + 1; 64]).unwrap();
        }
        let pool = BufferPool::new(pager, 1);
        // Miss, hit, then a miss that recycles the only frame's buffer.
        assert_eq!(pool.with_page(0, |b| (b.len(), b[63])).unwrap(), (64, 1));
        assert_eq!(pool.with_page(0, |b| b[0]).unwrap(), 1);
        assert_eq!(pool.with_page(2, |b| b[0]).unwrap(), 3);
        assert_eq!(pool.with_page(0, |b| b[0]).unwrap(), 1);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 2));
    }

    #[test]
    fn failed_miss_changes_nothing_but_the_miss_count() {
        let pool = pool(1);
        let mut buf = vec![0u8; 64];
        pool.write(0, &[5u8; 64]).unwrap(); // dirty, and the only frame
        assert!(matches!(
            pool.with_page(99, |_| ()),
            Err(PagerError::OutOfRange { page: 99, .. })
        ));
        let s = pool.stats();
        assert_eq!((s.evictions, s.writebacks), (0, 0), "victim untouched");
        pool.read(0, &mut buf).unwrap();
        assert_eq!(buf, vec![5u8; 64]);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn writes_are_written_back_on_flush() {
        let mut pager = MemPager::new(64);
        pager.allocate().unwrap();
        let pool = BufferPool::new(pager, 2);
        let data = vec![9u8; 64];
        pool.write(0, &data).unwrap();
        let pager = pool.into_pager().unwrap();
        let mut buf = vec![0u8; 64];
        pager.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut pager = MemPager::new(64);
        for _ in 0..3 {
            pager.allocate().unwrap();
        }
        let pool = BufferPool::new(pager, 1);
        pool.write(0, &[7u8; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        pool.read(1, &mut buf).unwrap(); // evicts dirty page 0
        assert_eq!(pool.stats().writebacks, 1);
        pool.read(0, &mut buf).unwrap(); // re-read from pager
        assert_eq!(buf, vec![7u8; 64]);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let pool = pool(2);
        let mut buf = vec![0u8; 64];
        pool.read(0, &mut buf).unwrap();
        pool.reset_stats();
        assert_eq!(pool.stats(), BufferStats::default());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let _ = BufferPool::new(MemPager::new(64), 0);
    }
}
