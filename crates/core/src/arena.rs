//! Slab arena for level storage: one growable arena per [`crate::GpuLsm`]
//! holds every level's key and value array as a reserved region of a large
//! pre-allocated chunk, so the steady-state carry chain never touches the
//! system allocator (paper §III-A: the GPU implementation pre-allocates the
//! full structure as one slab and merges write into reserved offsets).
//!
//! ## Shape
//!
//! * [`Arena`] owns a list of raw chunks (`alloc_zeroed`'d `u32` slabs,
//!   default [`DEFAULT_CHUNK_WORDS`] words, grown on demand) plus a
//!   free-list of released regions keyed by exact length.
//! * [`Arena::reserve`] hands out an [`ArenaRegion`]: an owning handle to a
//!   disjoint span of one chunk.  Reservation first consults the free list
//!   — level sizes are always `b·2^i`, so the same size classes recur and a
//!   region released by a consumed level is picked up by the next merge
//!   producing that size (this is the double-buffering: while level `i` is
//!   live in one region, its predecessor's region waits in the free list
//!   for the next level-`i` output).
//! * Dropping an [`ArenaRegion`] returns its span to the free list; chunk
//!   memory is only released when the arena itself drops.
//!
//! Region data accesses are unsynchronized — safety comes from ownership:
//! every span is addressed by exactly one live region handle, so
//! `&mut [u32]` access through the handle is exclusive.  The arena mutex
//! only guards reservation metadata.
//!
//! [`ArenaStats`] (bytes resident, high-water mark, recycle count) is
//! surfaced through [`crate::LsmStats`] / [`crate::ShardedStats`];
//! `validate` checks the no-overlap / no-aliasing invariants via
//! [`Arena::free_spans`] and [`ArenaRegion::span`].

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::collections::HashMap;
use std::ptr::NonNull;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default chunk size in `u32` words (1 MiB); the first level reservation
/// larger than this gets a dedicated chunk of exactly its size.
/// Overridable per structure via `LSM_ARENA_CHUNK` /
/// [`crate::LsmConfig::arena_chunk_words`].
pub const DEFAULT_CHUNK_WORDS: usize = 1 << 18;

/// One raw slab of `u32` storage.  Zero-initialized at allocation so every
/// region handed out over it is readable from the start.
struct Chunk {
    ptr: NonNull<u32>,
    words: usize,
}

// SAFETY: the chunk is a plain allocation; all access synchronization is
// the region handles' exclusive ownership of disjoint spans.
unsafe impl Send for Chunk {}
unsafe impl Sync for Chunk {}

impl Chunk {
    fn new(words: usize) -> Self {
        debug_assert!(words > 0);
        let layout = Layout::array::<u32>(words).expect("chunk layout overflow");
        // SAFETY: `words > 0`, so the layout is non-zero-sized.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<u32>()) else {
            handle_alloc_error(layout)
        };
        Chunk { ptr, words }
    }

    /// Stable identity of the chunk for span bookkeeping (the allocation
    /// address; unique among live chunks).
    fn id(&self) -> usize {
        self.ptr.as_ptr() as usize
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        let layout = Layout::array::<u32>(self.words).expect("chunk layout overflow");
        // SAFETY: allocated in `Chunk::new` with this exact layout.
        unsafe { dealloc(self.ptr.as_ptr().cast(), layout) };
    }
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk")
            .field("id", &self.id())
            .field("words", &self.words)
            .finish()
    }
}

/// The identity of one reserved or free span: which chunk, where, how long
/// (in `u32` words).  Used by the `validate` invariant checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSpan {
    /// Identity of the owning chunk (opaque; equal iff same chunk).
    pub chunk: usize,
    /// Word offset of the span within its chunk.
    pub offset: usize,
    /// Span length in words.
    pub len: usize,
}

impl RegionSpan {
    /// Whether two spans share at least one word of the same chunk.
    pub fn overlaps(&self, other: &RegionSpan) -> bool {
        self.chunk == other.chunk
            && self.len > 0
            && other.len > 0
            && self.offset < other.offset + other.len
            && other.offset < self.offset + self.len
    }
}

/// A point-in-time snapshot of one arena's occupancy counters, embedded in
/// [`crate::LsmStats`] and aggregated by [`crate::ShardedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes currently held by live regions.
    pub resident_bytes: usize,
    /// Largest `resident_bytes` ever observed.
    pub high_water_bytes: usize,
    /// Bytes sitting in the free list, ready for reuse.
    pub free_bytes: usize,
    /// Total bytes of allocated chunks (resident + free + bump headroom).
    pub chunk_bytes: usize,
    /// Number of chunks allocated.
    pub chunks: usize,
    /// Lifetime count of regions handed out.
    pub reserved_regions: u64,
    /// Lifetime count of reservations served from the free list instead of
    /// fresh chunk space — the steady-state carry chain recycles every
    /// region, so this tracks `reserved_regions` once warm.
    pub recycled_regions: u64,
}

impl ArenaStats {
    /// Element-wise sum (used by the sharded aggregation).
    pub(crate) fn add(&mut self, other: &ArenaStats) {
        self.resident_bytes += other.resident_bytes;
        self.high_water_bytes += other.high_water_bytes;
        self.free_bytes += other.free_bytes;
        self.chunk_bytes += other.chunk_bytes;
        self.chunks += other.chunks;
        self.reserved_regions += other.reserved_regions;
        self.recycled_regions += other.recycled_regions;
    }
}

/// Reservation metadata, guarded by the arena mutex.
#[derive(Debug, Default)]
struct ArenaInner {
    chunks: Vec<Arc<Chunk>>,
    /// Words used in the last chunk (the bump cursor).
    tail_used: usize,
    /// Released spans keyed by exact length: level sizes are `b·2^i`, so
    /// exact-size matching recycles perfectly and never splits spans.
    free: HashMap<usize, Vec<(Arc<Chunk>, usize)>>,
    resident_words: usize,
    high_water_words: usize,
    free_words: usize,
    reserved_regions: u64,
    recycled_regions: u64,
}

/// A growable slab arena handing out exact-size regions of `u32` storage.
#[derive(Debug)]
pub struct Arena {
    inner: Mutex<ArenaInner>,
    pub(crate) min_chunk_words: usize,
}

impl Arena {
    /// Create an empty arena whose chunks hold at least `min_chunk_words`
    /// words (0 falls back to [`DEFAULT_CHUNK_WORDS`]).  No memory is
    /// allocated until the first reservation.
    pub fn new(min_chunk_words: usize) -> Arc<Self> {
        Arc::new(Arena {
            inner: Mutex::new(ArenaInner::default()),
            min_chunk_words: if min_chunk_words == 0 {
                DEFAULT_CHUNK_WORDS
            } else {
                min_chunk_words
            },
        })
    }

    /// Lock the metadata, tolerating poison: the metadata is a free list
    /// plus counters, consistent after every individual mutation, so a
    /// panicking thread elsewhere must not wedge reservation (mirrors the
    /// admission path's panic-safety policy).
    fn lock(&self) -> MutexGuard<'_, ArenaInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Reserve a region of exactly `len` words, recycling a free span of
    /// the same length when one exists, bumping the tail chunk otherwise,
    /// and growing the arena by a fresh chunk when the tail is full.
    pub fn reserve(self: &Arc<Self>, len: usize) -> ArenaRegion {
        if len == 0 {
            return ArenaRegion {
                arena: Arc::clone(self),
                chunk: None,
                offset: 0,
                len: 0,
            };
        }
        let mut inner = self.lock();
        inner.reserved_regions += 1;
        let (chunk, offset) = match inner.free.get_mut(&len).and_then(Vec::pop) {
            Some((chunk, offset)) => {
                inner.recycled_regions += 1;
                inner.free_words -= len;
                (chunk, offset)
            }
            None => {
                let fits_tail = inner
                    .chunks
                    .last()
                    .is_some_and(|c| c.words - inner.tail_used >= len);
                if !fits_tail {
                    // The bump remainder of the old tail is abandoned (it is
                    // smaller than any reservation that will recur at this
                    // point); chunk sizes are maxed with the request so a
                    // giant level gets a dedicated chunk.
                    inner
                        .chunks
                        .push(Arc::new(Chunk::new(len.max(self.min_chunk_words))));
                    inner.tail_used = 0;
                }
                let offset = inner.tail_used;
                inner.tail_used += len;
                (Arc::clone(inner.chunks.last().expect("tail chunk")), offset)
            }
        };
        inner.resident_words += len;
        inner.high_water_words = inner.high_water_words.max(inner.resident_words);
        drop(inner);
        ArenaRegion {
            arena: Arc::clone(self),
            chunk: Some(chunk),
            offset,
            len,
        }
    }

    /// Return a span to the free list (region drop).
    fn release(&self, chunk: Arc<Chunk>, offset: usize, len: usize) {
        let mut inner = self.lock();
        inner.resident_words -= len;
        inner.free_words += len;
        inner.free.entry(len).or_default().push((chunk, offset));
    }

    /// A snapshot of the occupancy counters.
    pub fn stats(&self) -> ArenaStats {
        let inner = self.lock();
        const W: usize = std::mem::size_of::<u32>();
        ArenaStats {
            resident_bytes: inner.resident_words * W,
            high_water_bytes: inner.high_water_words * W,
            free_bytes: inner.free_words * W,
            chunk_bytes: inner.chunks.iter().map(|c| c.words * W).sum(),
            chunks: inner.chunks.len(),
            reserved_regions: inner.reserved_regions,
            recycled_regions: inner.recycled_regions,
        }
    }

    /// The spans currently sitting in the free list (for the validate
    /// invariant: no live level may alias a recycled span).
    pub fn free_spans(&self) -> Vec<RegionSpan> {
        let inner = self.lock();
        inner
            .free
            .iter()
            .flat_map(|(&len, spans)| {
                spans.iter().map(move |(chunk, offset)| RegionSpan {
                    chunk: chunk.id(),
                    offset: *offset,
                    len,
                })
            })
            .collect()
    }
}

/// An owning handle to a reserved span of arena storage.  Exactly one live
/// handle addresses any span, so `&mut` access through it is exclusive;
/// dropping the handle recycles the span.
pub struct ArenaRegion {
    arena: Arc<Arena>,
    /// `None` only for zero-length regions.
    chunk: Option<Arc<Chunk>>,
    offset: usize,
    len: usize,
}

impl ArenaRegion {
    /// Length of the region in words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The region's contents.
    pub fn as_slice(&self) -> &[u32] {
        match &self.chunk {
            // SAFETY: the span [offset, offset + len) lies inside the
            // zero-initialized chunk allocation and no other handle
            // addresses it; `&self` keeps writes out for the borrow.
            Some(chunk) => unsafe {
                std::slice::from_raw_parts(chunk.ptr.as_ptr().add(self.offset), self.len)
            },
            None => &[],
        }
    }

    /// The region's contents, writable.
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        match &self.chunk {
            // SAFETY: as in `as_slice`, plus `&mut self` makes this handle
            // — the span's only addressor — exclusively borrowed.
            Some(chunk) => unsafe {
                std::slice::from_raw_parts_mut(chunk.ptr.as_ptr().add(self.offset), self.len)
            },
            None => &mut [],
        }
    }

    /// The span this region occupies (`None` for zero-length regions).
    pub fn span(&self) -> Option<RegionSpan> {
        self.chunk.as_ref().map(|chunk| RegionSpan {
            chunk: chunk.id(),
            offset: self.offset,
            len: self.len,
        })
    }

    /// The arena this region belongs to.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }
}

// SAFETY: the handle owns its span exclusively; the underlying chunk and
// arena are themselves Send + Sync.
unsafe impl Send for ArenaRegion {}
unsafe impl Sync for ArenaRegion {}

impl Drop for ArenaRegion {
    fn drop(&mut self) {
        if let Some(chunk) = self.chunk.take() {
            self.arena.release(chunk, self.offset, self.len);
        }
    }
}

impl std::fmt::Debug for ArenaRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaRegion")
            .field("span", &self.span())
            .finish()
    }
}

/// Backing storage of one level array: a plain vector (bulk builds,
/// recovery, arena-off operation) or an arena region (carry-chain outputs).
/// Derefs to `&[u32]` either way, so every query path is storage-agnostic.
#[derive(Debug)]
pub(crate) enum Storage {
    /// Heap-owned storage.
    Owned(Vec<u32>),
    /// A reserved span of the structure's slab arena.
    Arena(ArenaRegion),
}

impl Default for Storage {
    fn default() -> Self {
        Storage::Owned(Vec::new())
    }
}

impl Clone for Storage {
    /// Cloning deep-copies to owned storage: a clone must not alias the
    /// original's arena span (exactly one handle per span), and cloned
    /// structures (snapshots, shard splits) are long-lived anyway.
    fn clone(&self) -> Self {
        Storage::Owned(self.as_slice().to_vec())
    }
}

impl Storage {
    /// The stored words.
    pub(crate) fn as_slice(&self) -> &[u32] {
        match self {
            Storage::Owned(v) => v,
            Storage::Arena(r) => r.as_slice(),
        }
    }

    /// Convert into an owned vector (copies when arena-backed; the cold
    /// paths — cleanup, recovery snapshots — are the only consumers).
    pub(crate) fn into_vec(self) -> Vec<u32> {
        match self {
            Storage::Owned(v) => v,
            Storage::Arena(r) => r.as_slice().to_vec(),
        }
    }

    /// The arena span backing this storage, if any.
    pub(crate) fn arena_span(&self) -> Option<RegionSpan> {
        match self {
            Storage::Owned(_) => None,
            Storage::Arena(r) => r.span(),
        }
    }
}

impl From<Vec<u32>> for Storage {
    fn from(v: Vec<u32>) -> Self {
        Storage::Owned(v)
    }
}

impl From<ArenaRegion> for Storage {
    fn from(r: ArenaRegion) -> Self {
        Storage::Arena(r)
    }
}

impl std::ops::Deref for Storage {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_bump_allocates_disjoint_spans() {
        let arena = Arena::new(64);
        let mut a = arena.reserve(16);
        let mut b = arena.reserve(16);
        a.as_mut_slice().fill(1);
        b.as_mut_slice().fill(2);
        assert!(a.as_slice().iter().all(|&w| w == 1));
        assert!(b.as_slice().iter().all(|&w| w == 2));
        assert!(!a.span().unwrap().overlaps(&b.span().unwrap()));
        let stats = arena.stats();
        assert_eq!(stats.resident_bytes, 32 * 4);
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.reserved_regions, 2);
        assert_eq!(stats.recycled_regions, 0);
    }

    #[test]
    fn regions_are_zeroed_on_first_use() {
        let arena = Arena::new(8);
        let r = arena.reserve(8);
        assert_eq!(r.as_slice(), &[0u32; 8]);
    }

    #[test]
    fn drop_recycles_the_exact_size_class() {
        let arena = Arena::new(1024);
        let span = {
            let r = arena.reserve(32);
            r.span().unwrap()
        };
        assert_eq!(arena.free_spans(), vec![span]);
        // Same-size reservation reuses the span; a different size does not.
        let other = arena.reserve(16);
        assert_ne!(other.span().unwrap(), span);
        let reused = arena.reserve(32);
        assert_eq!(reused.span().unwrap(), span);
        let stats = arena.stats();
        assert_eq!(stats.recycled_regions, 1);
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.high_water_bytes, (32 + 16) * 4);
    }

    #[test]
    fn arena_grows_and_oversized_requests_get_dedicated_chunks() {
        let arena = Arena::new(16);
        let _a = arena.reserve(12);
        let _b = arena.reserve(12); // does not fit the tail remainder
        let _c = arena.reserve(100); // larger than min chunk
        let stats = arena.stats();
        assert_eq!(stats.chunks, 3);
        assert_eq!(stats.chunk_bytes, (16 + 16 + 100) * 4);
        assert_eq!(stats.resident_bytes, (12 + 12 + 100) * 4);
    }

    #[test]
    fn zero_length_regions_are_inert() {
        let arena = Arena::new(16);
        let mut r = arena.reserve(0);
        assert!(r.is_empty());
        assert!(r.as_slice().is_empty());
        assert!(r.as_mut_slice().is_empty());
        assert_eq!(r.span(), None);
        drop(r);
        let stats = arena.stats();
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.free_bytes, 0);
    }

    #[test]
    fn storage_clone_deep_copies_out_of_the_arena() {
        let arena = Arena::new(16);
        let mut r = arena.reserve(4);
        r.as_mut_slice().copy_from_slice(&[1, 2, 3, 4]);
        let storage = Storage::from(r);
        let clone = storage.clone();
        assert!(matches!(clone, Storage::Owned(_)));
        assert_eq!(clone.as_slice(), storage.as_slice());
        assert_eq!(storage.arena_span().map(|s| s.len), Some(4));
        assert_eq!(clone.arena_span(), None);
        assert_eq!(storage.into_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn span_overlap_is_chunk_scoped() {
        let a = RegionSpan {
            chunk: 1,
            offset: 0,
            len: 8,
        };
        let b = RegionSpan {
            chunk: 1,
            offset: 8,
            len: 8,
        };
        let c = RegionSpan {
            chunk: 1,
            offset: 4,
            len: 8,
        };
        let d = RegionSpan {
            chunk: 2,
            offset: 4,
            len: 8,
        };
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(!c.overlaps(&d));
    }

    #[test]
    fn steady_state_reservation_cycle_stops_growing() {
        // Simulate the carry chain: alternating reserve/release of the same
        // power-of-two size classes must stop allocating chunks once every
        // class has a free span.
        let arena = Arena::new(256);
        for _ in 0..3 {
            for class in [16usize, 32, 64] {
                let _keys = arena.reserve(class);
                let _vals = arena.reserve(class);
            }
        }
        let stats = arena.stats();
        assert_eq!(stats.chunks, 1);
        // Warm-up reserves each (class, keys/vals) pair once; the remaining
        // two rounds recycle.
        assert_eq!(stats.reserved_regions, 18);
        assert_eq!(stats.recycled_regions, 12);
        assert_eq!(stats.resident_bytes, 0);
    }
}
