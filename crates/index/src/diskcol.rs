//! Disk-resident column access (paper §III-B, §V).
//!
//! The paper stores the inverted lists "directly on the disk" and runs on
//! a hot cache; crucially, Algorithm 1 "does not read the whole JDewey
//! sequences from the disk at once" — it touches one column at a time,
//! starting from `l_0 = min l_m^i`, and within a column the index join
//! touches only the blocks the sparse index points at.
//!
//! [`DiskColumnStore`] provides exactly that access pattern over the file
//! written by [`crate::disk::write_index`]: per term and level it exposes
//! a [`DiskColumn`] whose `find` decodes **at most one block** (located
//! via the sparse keys and, on format v2, the per-block footers) and
//! whose `scan` decodes blocks lazily in order.
//!
//! Decoded blocks live in a shared, thread-safe [`BlockCache`]
//! (see [`crate::cache`]): by default an unbounded one per store — the
//! paper's hot-cache regime — but [`DiskColumnStore::open_with_cache`]
//! lets several stores and all `Parallelism` workers share one bounded
//! LRU.  The store itself is `Sync`: the file image is an immutable
//! [`ColumnBytes`] sliced zero-copy per block (no seeks, no per-block
//! read buffer), cold decodes run through the per-thread
//! [`DecodeScratch`](crate::codec::DecodeScratch) arena behind a small
//! decode lock that keeps the decode-once discipline, and the counters
//! are atomic — so parallel executors can probe one store from many
//! workers without duplicating decodes.
//!
//! The directory the store parses at open time is flat: one term table
//! (term text as a byte range of the file image, found through a
//! hash table of term indices), one column table, and one store-wide
//! arena each for block entries, present rows, footer row prefixes and
//! footer last values.  A column is a set of ranges into those arenas,
//! so opening a store costs a handful of growing buffers rather than
//! several allocations per column, and dropping it frees only those
//! buffers.  A [`DiskColumn`] is a view over the column's slices.

use crate::bytes::ColumnBytes;
use crate::cache::{Block, BlockCache, CacheStats, ShardedLruCache};
use crate::codec::{decode_block_into, with_decode_scratch, BlockLayout, Scheme};
use crate::columnar::Run;
use crate::disk::{ByteReader, MAGIC_V1, MAGIC_V2, MAGIC_V3};
use std::hash::{BuildHasher, RandomState};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt index file: {what}"))
}

/// Recovers from mutex poisoning: the guarded state (the decode ticket /
/// the cache maps) stays internally consistent between operations, and
/// the panic that poisoned it has already been propagated by the pool.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Slot value of an empty entry in [`Directory::slots`].
const EMPTY_SLOT: u32 = u32::MAX;

/// `r` as a `usize` range, for slicing an arena.
fn span(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// An arena length as a `u32` range bound (a directory whose arenas
/// outgrow `u32` is rejected rather than wrapped).
fn arena_len<T>(arena: &[T]) -> io::Result<u32> {
    u32::try_from(arena.len()).map_err(|_| bad("directory too large"))
}

/// One term of the directory.
#[derive(Debug, Clone)]
struct TermEntry {
    /// Byte range of the term text in the file image (checked UTF-8).
    text: Range<usize>,
    /// The term's columns in [`Directory::columns`], level 1 first.
    columns: Range<u32>,
}

/// One column of the directory: ranges into the store-wide arenas.
#[derive(Debug, Clone)]
struct ColumnEntry {
    scheme: Scheme,
    /// The column's blocks in [`Directory::blocks`] — and, on v2/v3, the
    /// same indices in [`Directory::row_prefix`] and [`Directory::lasts`].
    blocks: Range<u32>,
    /// Its present rows in [`Directory::present_rows`].
    rows: Range<u32>,
    /// One past the last payload byte of the column.
    end: u64,
}

/// The parsed store directory: every term's and column's metadata in a
/// few flat tables.
#[derive(Debug, Default)]
struct Directory {
    /// Footer arenas are filled (format v2/v3).
    has_footers: bool,
    terms: Vec<TermEntry>,
    /// Open-addressed (linear probing) index of `terms` by text hash; a
    /// power-of-two length at least twice the term count, so a probe
    /// always reaches an [`EMPTY_SLOT`].
    slots: Box<[u32]>,
    /// Keyed per store, like `HashMap`'s, so term texts crafted to
    /// collide cannot make opening quadratic.
    hasher: RandomState,
    /// Distinct term texts (a repeated text replaces the earlier entry).
    distinct: usize,
    columns: Vec<ColumnEntry>,
    /// `(file offset, first value)` per block.
    blocks: Vec<(u64, u32)>,
    /// Rows present at each column's level (global row ids), needed to
    /// reconstruct run coordinates: 4 bytes per present row, the same
    /// information the lengths array encodes.
    present_rows: Vec<u32>,
    /// Per block: present rows in the column's preceding blocks.
    row_prefix: Vec<u32>,
    /// Per block: the largest value stored (`first` is in `blocks`).
    lasts: Vec<u32>,
}

impl Directory {
    /// Parses the directory of a store file image in one sequential pass.
    /// The payload bytes are skipped over (and later sliced per block,
    /// never copied).  All reads are bounds-checked and every count is
    /// checked against the bytes left, so corrupt files fail with
    /// `InvalidData` instead of panicking or over-allocating.
    fn parse(bytes: &[u8]) -> io::Result<(BlockLayout, Directory)> {
        let mut r = ByteReader::new(bytes);
        let magic = r.varint("magic")?;
        let (has_footers, layout) = match magic {
            MAGIC_V1 => (false, BlockLayout::Varint),
            MAGIC_V2 => (true, BlockLayout::Varint),
            MAGIC_V3 => (true, BlockLayout::Packed),
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad index magic")),
        };
        let n_terms = r.varint("term count")? as usize;
        let with_scores = r.byte("score flag")? != 0;
        // A term record holds at least its text length, posting count
        // and column count; a v1 block entry at least an offset and a
        // first value, a v2/v3 one also a row count and a last delta.
        r.check_count(n_terms, 3, "term count")?;
        let block_bytes = if has_footers { 4 } else { 2 };
        let slot_count = n_terms.saturating_mul(2).max(1).next_power_of_two();
        let mut dir = Directory {
            has_footers,
            terms: Vec::with_capacity(n_terms),
            slots: vec![EMPTY_SLOT; slot_count].into_boxed_slice(),
            ..Directory::default()
        };
        // The term's lengths array, reused across terms.
        let mut depths: Vec<u16> = Vec::new();
        for _ in 0..n_terms {
            let tlen = r.varint("term length")? as usize;
            let text_start = r.offset();
            std::str::from_utf8(r.take(tlen, "term text")?)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let n_postings = r.varint("posting count")? as usize;
            r.check_count(n_postings, 1, "posting count")?;
            depths.clear();
            depths.reserve(n_postings);
            for _ in 0..n_postings {
                depths.push(r.varint("depth")? as u16);
            }
            if with_scores {
                let n = n_postings.checked_mul(4).ok_or_else(|| bad("scores"))?;
                r.take(n, "scores")?;
            }
            let n_cols = r.varint("column count")? as usize;
            if n_cols > u16::MAX as usize {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "column count"));
            }
            // Scheme byte, block count and payload length at least.
            r.check_count(n_cols, 3, "column count")?;
            let first_col = arena_len(&dir.columns)?;
            for level in 1..=n_cols as u16 {
                let scheme = match r.byte("scheme")? {
                    0 => Scheme::Delta,
                    1 => Scheme::Rle,
                    _ => return Err(bad("bad scheme byte")),
                };
                let n_blocks = r.varint("block count")? as usize;
                r.check_count(n_blocks, block_bytes, "block count")?;
                let rows_start = arena_len(&dir.present_rows)?;
                dir.present_rows.extend(
                    depths.iter().enumerate().filter(|(_, &d)| d >= level).map(|(i, _)| i as u32),
                );
                let rows = rows_start..arena_len(&dir.present_rows)?;
                let n_rows = u64::from(rows.end - rows.start);
                let blocks_start = arena_len(&dir.blocks)?;
                dir.blocks.reserve(n_blocks);
                let mut acc = 0u64;
                for _ in 0..n_blocks {
                    let off = r.varint("block offset")?;
                    let first = r.varint("block first value")?;
                    dir.blocks.push((u64::from(off), first));
                    if has_footers {
                        // Prefix-sum the row counts; reject footers that
                        // disagree with the lengths array so a corrupt
                        // directory cannot misplace rows silently.
                        dir.row_prefix.push(acc as u32);
                        acc += u64::from(r.varint("block row count")?);
                        if acc > n_rows {
                            return Err(bad("block row counts exceed lengths array"));
                        }
                        let span = r.varint("block last-value delta")?;
                        dir.lasts.push(
                            first.checked_add(span).ok_or_else(|| bad("block last overflow"))?,
                        );
                    }
                }
                if has_footers && acc != n_rows {
                    return Err(bad("block row counts disagree with lengths array"));
                }
                let payload_len = r.varint("payload length")? as usize;
                let payload_base = r.offset() as u64;
                r.take(payload_len, "payload")?;
                let blocks = blocks_start..arena_len(&dir.blocks)?;
                let column_blocks = dir.blocks.get_mut(span(&blocks)).unwrap_or_default();
                if let Some(&(last, _)) = column_blocks.last() {
                    if last as usize >= payload_len.max(1) {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "block offset beyond payload",
                        ));
                    }
                }
                for (off, _) in column_blocks {
                    *off += payload_base;
                }
                let end = payload_base + payload_len as u64;
                dir.columns.push(ColumnEntry { scheme, blocks, rows, end });
            }
            let columns = first_col..arena_len(&dir.columns)?;
            dir.insert(bytes, TermEntry { text: text_start..text_start + tlen, columns })?;
        }
        Ok((layout, dir))
    }

    /// Adds `entry` to the term table and its hash index; a text already
    /// present is re-pointed at the new entry.
    fn insert(&mut self, bytes: &[u8], entry: TermEntry) -> io::Result<()> {
        let id = arena_len(&self.terms)?;
        let text = bytes.get(entry.text.clone()).unwrap_or_default();
        let mask = self.slots.len().saturating_sub(1);
        let mut i = self.hasher.hash_one(text) as usize & mask;
        loop {
            let slot = self.slots.get_mut(i).ok_or_else(|| bad("term table"))?;
            let same = self
                .terms
                .get(*slot as usize)
                .is_some_and(|t| bytes.get(t.text.clone()) == Some(text));
            if *slot == EMPTY_SLOT || same {
                self.distinct += usize::from(*slot == EMPTY_SLOT);
                *slot = id;
                break;
            }
            i = (i + 1) & mask;
        }
        self.terms.push(entry);
        Ok(())
    }

    /// The entry of `term`, if the store holds it.
    fn term(&self, bytes: &[u8], term: &str) -> Option<&TermEntry> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = self.hasher.hash_one(term.as_bytes()) as usize & mask;
        loop {
            let t = self.terms.get(*self.slots.get(i)? as usize)?;
            if bytes.get(t.text.clone()) == Some(term.as_bytes()) {
                return Some(t);
            }
            i = (i + 1) & mask;
        }
    }

    /// The view of one column entry (its ranges were checked against the
    /// arenas as they were filled, so every slice is in bounds).
    fn view(&self, c: &ColumnEntry) -> ColumnView<'_> {
        let blocks = span(&c.blocks);
        let footers = self.has_footers.then(|| Footers {
            row_prefix: self.row_prefix.get(blocks.clone()).unwrap_or_default(),
            lasts: self.lasts.get(blocks.clone()).unwrap_or_default(),
        });
        ColumnView {
            scheme: c.scheme,
            blocks: self.blocks.get(blocks).unwrap_or_default(),
            end: c.end,
            present_rows: self.present_rows.get(span(&c.rows)).unwrap_or_default(),
            footers,
        }
    }

    /// Views of the columns of `term`, level 1 first.
    fn columns_of(&self, term: &TermEntry) -> impl Iterator<Item = ColumnView<'_>> {
        let entries = self.columns.get(span(&term.columns)).unwrap_or_default();
        entries.iter().map(|c| self.view(c))
    }
}

/// Format-v2 per-block footers of one column.
#[derive(Debug, Clone, Copy)]
struct Footers<'a> {
    /// `row_prefix[b]` = number of present rows in blocks `0..b`.
    row_prefix: &'a [u32],
    /// Largest value stored in each block (`first` is in the directory).
    lasts: &'a [u32],
}

/// One column's slices of the directory arenas.
#[derive(Debug, Clone, Copy)]
struct ColumnView<'a> {
    scheme: Scheme,
    /// `(file offset, first value)` per block.
    blocks: &'a [(u64, u32)],
    /// One past the last payload byte of the column.
    end: u64,
    /// Rows present at this level (global row ids).
    present_rows: &'a [u32],
    /// Present on format v2/v3; `None` forces the legacy prefix-decode
    /// path.
    footers: Option<Footers<'a>>,
}

/// Distinguishes stores sharing one cache (see `block_key`).
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// Per-store I/O accounting, attributed to *this* store even when the
/// block cache is shared across stores (the shared [`CacheStats`]
/// conflates every store touching the cache; these counters do not).
///
/// One logical block access counts exactly once: a lookup that finds the
/// block — on the first probe or on the double-checked probe under the
/// decode lock — is a `hit`, anything else is a `miss` followed by one
/// decode, so `misses == decodes` always.  Under an unbounded cache the
/// counts are parallelism-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreIoStats {
    /// Block lookups served from the cache.
    pub hits: u64,
    /// Block lookups that required a decode (`== decodes`).
    pub misses: u64,
    /// Blocks decoded from disk by this store.
    pub decodes: u64,
}

impl StoreIoStats {
    /// Component-wise `self - earlier`, for per-query deltas.
    pub fn since(&self, earlier: &StoreIoStats) -> StoreIoStats {
        StoreIoStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            decodes: self.decodes.saturating_sub(earlier.decodes),
        }
    }

    /// Publishes the counters into a [`MetricsRegistry`](xtk_obs::MetricsRegistry)
    /// under the `store.*` names (add-semantics).
    pub fn publish(&self, metrics: &xtk_obs::MetricsRegistry) {
        metrics.add("store.cache_hits", self.hits);
        metrics.add("store.cache_misses", self.misses);
        metrics.add("store.decodes", self.decodes);
    }
}

/// A per-query I/O counting scope.
///
/// The store's own counters are process-lifetime totals; a "per-query
/// delta" read off them (`io_stats` before/after) silently absorbs the
/// accesses of every *other* query running on the store in the same
/// window — exactly what happens when a batch executes distinct queries
/// in parallel.  A session is instead handed to the column handles of
/// one query ([`DiskColumn::scoped`]) and counts only the accesses made
/// through them, so concurrent queries cannot contaminate each other's
/// numbers.  The counters are atomics: within one query, parallel probe
/// workers share the session and their counts still land in it.
///
/// Under serial execution a session counts the same increments as the
/// global delta did, bit for bit.
#[derive(Debug, Default)]
pub struct IoSession {
    hits: AtomicU64,
    misses: AtomicU64,
    decodes: AtomicU64,
}

impl IoSession {
    /// Snapshot of the accesses counted by this session so far.
    pub fn stats(&self) -> StoreIoStats {
        StoreIoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            decodes: self.decodes.load(Ordering::Relaxed),
        }
    }
}

/// A read-only, block-granular, thread-safe view of a columnar index file.
#[derive(Debug)]
pub struct DiskColumnStore {
    /// Resident file image; every cold block decode slices it zero-copy.
    bytes: ColumnBytes,
    /// Serializes cold decodes so concurrent workers missing on the same
    /// block decode it exactly once (the double-checked `peek` below).
    /// It guards the decode-once *discipline*, not the bytes — those are
    /// immutable and read without locking.
    decode_lock: Mutex<()>,
    /// Physical block layout of the file (varint for v1/v2, packed v3).
    layout: BlockLayout,
    /// Term and column metadata, parsed once at open.
    dir: Directory,
    cache: Arc<dyn BlockCache>,
    /// Cache-missing block decodes performed by this store.
    decodes: AtomicU64,
    /// Block lookups served from the cache for this store.
    hits: AtomicU64,
    /// Block lookups that required a decode by this store.
    misses: AtomicU64,
    /// Disambiguates cache keys when several stores share one cache.
    store_id: u64,
}

impl DiskColumnStore {
    /// Opens an index file with a private unbounded cache — the paper's
    /// hot-cache regime, where every block decodes at most once.
    pub fn open(path: &Path) -> io::Result<Self> {
        Self::open_with_cache(path, Arc::new(ShardedLruCache::unbounded()))
    }

    /// Opens an index file backed by the given block cache.  Pass the same
    /// `Arc` to several stores (or executors) to share one bounded budget;
    /// keys never collide across stores.
    pub fn open_with_cache(path: &Path, cache: Arc<dyn BlockCache>) -> io::Result<Self> {
        Self::open_bytes(ColumnBytes::from_file(path)?, cache)
    }

    /// Opens a store over an already-resident file image — the zero-copy
    /// entry point: the same [`ColumnBytes::Shared`] buffer can back any
    /// number of stores without duplicating the payload.
    pub fn open_bytes(bytes: ColumnBytes, cache: Arc<dyn BlockCache>) -> io::Result<Self> {
        let (layout, dir) = Directory::parse(bytes.as_slice())?;
        Ok(Self {
            bytes,
            decode_lock: Mutex::new(()),
            layout,
            dir,
            cache,
            decodes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store_id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The terms available in the store, in sorted order.
    pub fn term_names(&self) -> Vec<&str> {
        let bytes = self.bytes.as_slice();
        let mut names: Vec<&str> = (self.dir.slots.iter())
            .filter_map(|&id| self.dir.terms.get(id as usize))
            .filter_map(|t| std::str::from_utf8(bytes.get(t.text.clone())?).ok())
            .collect();
        names.sort_unstable();
        names
    }

    /// Number of distinct terms in the store (no listing, no sort).
    pub fn term_count(&self) -> usize {
        self.dir.distinct
    }

    /// Number of levels stored for `term` (0 when absent).
    pub fn levels_of(&self, term: &str) -> u16 {
        self.term(term).map(|t| (t.columns.end - t.columns.start) as u16).unwrap_or(0)
    }

    /// A lazy view over one term's column.
    pub fn column(&self, term: &str, level: u16) -> Option<DiskColumn<'_>> {
        let columns = self.dir.columns.get(span(&self.term(term)?.columns))?;
        let entry = columns.get(usize::from(level.checked_sub(1)?))?;
        Some(DiskColumn { store: self, view: self.dir.view(entry), session: None })
    }

    /// Lazy views over every column of `term`, level 1 first (none when
    /// the term is absent): one directory lookup for all its levels.
    pub fn columns(&self, term: &str) -> impl Iterator<Item = DiskColumn<'_>> {
        let views = self.term(term).map(|t| self.dir.columns_of(t));
        views.into_iter().flatten().map(|view| DiskColumn { store: self, view, session: None })
    }

    /// The directory entry of `term`.
    fn term(&self, term: &str) -> Option<&TermEntry> {
        self.dir.term(self.bytes.as_slice(), term)
    }

    /// Total cache-missing block decodes performed by this store.
    pub fn reads(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Per-store I/O counters (see [`StoreIoStats`] for the attribution
    /// rules).  Unlike [`cache_stats`](Self::cache_stats) these never mix
    /// in accesses made by other stores sharing the cache.
    pub fn io_stats(&self) -> StoreIoStats {
        StoreIoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            decodes: self.decodes.load(Ordering::Relaxed),
        }
    }

    /// The id salting this store's cache keys; also used to label
    /// per-store trace events.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// Counters of the backing block cache (shared counters when the
    /// cache is shared).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The backing cache, for sharing with further stores.
    pub fn shared_cache(&self) -> Arc<dyn BlockCache> {
        Arc::clone(&self.cache)
    }

    /// Warms and pins every block of every level column of `term`: blocks
    /// not yet resident are decoded (counted as ordinary misses/decodes),
    /// then pinned so batch execution cannot evict its own prefetched
    /// working set.  Returns the number of blocks successfully pinned —
    /// less than the block count only when the cache policy cannot pin or
    /// a tiny capacity evicts a block between insert and pin.  Absent
    /// terms prefetch nothing.  Balance with
    /// [`DiskColumnStore::unpin_term`].
    pub fn prefetch_term(&self, term: &str) -> io::Result<u64> {
        let mut pinned = 0u64;
        for col in self.columns(term) {
            let view = col.view;
            let mut row_base = 0u32;
            for (b, &(start, _)) in view.blocks.iter().enumerate() {
                let runs = self.decode_block(&view, b, row_base, None)?;
                row_base = row_base
                    .checked_add(runs.iter().map(|r| r.len).sum::<u32>())
                    .ok_or_else(|| bad("row count overflow"))?;
                pinned += u64::from(self.cache.pin(self.block_key(start)));
            }
        }
        Ok(pinned)
    }

    /// Releases one pin on every block of `term`'s columns (the inverse of
    /// [`DiskColumnStore::prefetch_term`]); unknown terms and never-pinned
    /// blocks are no-ops.
    pub fn unpin_term(&self, term: &str) {
        for col in self.columns(term) {
            for &(start, _) in col.view.blocks {
                self.cache.unpin(self.block_key(start));
            }
        }
    }

    /// Distinct blocks currently pinned in the backing cache (shared
    /// counter when the cache is shared across stores).
    pub fn pinned_blocks(&self) -> u64 {
        self.cache.pinned_blocks()
    }

    /// Cache key for the block starting at file offset `start`: offsets
    /// identify blocks within a file, the store id separates files.
    fn block_key(&self, start: u64) -> u64 {
        (self.store_id << 48) ^ start
    }

    /// One cache-served block lookup: counted in the store totals and,
    /// when the access happens inside a query scope, in its session.
    fn count_hit(&self, session: Option<&IoSession>) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = session {
            s.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One cold block lookup (miss + decode), same dual attribution.
    fn count_miss(&self, session: Option<&IoSession>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.decodes.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = session {
            s.misses.fetch_add(1, Ordering::Relaxed);
            s.decodes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decodes the runs of one block (cache-aware).  `row_base` is the
    /// number of present rows in all preceding blocks of the column; the
    /// caller obtains it in O(1) from the v2/v3 footers or by decoding
    /// the prefix on v1 files.
    ///
    /// The block bytes are a zero-copy slice of the resident file image,
    /// decoded through the per-thread scratch arena and frozen into the
    /// cached `Arc<[Run]>` only once finished.  The decode lock is held
    /// across decode + insert, so concurrent workers missing on the same
    /// block decode it exactly once — `reads()` stays deterministic under
    /// an unbounded cache no matter the worker count.
    fn decode_block(
        &self,
        col: &ColumnView<'_>,
        b: usize,
        row_base: u32,
        session: Option<&IoSession>,
    ) -> io::Result<Block> {
        let Some(&(start, _)) = col.blocks.get(b) else {
            return Err(bad("block index out of range"));
        };
        let key = self.block_key(start);
        if let Some(runs) = self.cache.get(key) {
            self.count_hit(session);
            return Ok(runs);
        }
        let _decode = relock(&self.decode_lock);
        // Double-check: another worker may have decoded this block while
        // we waited for the decode lock.  `peek` so the shared cache does
        // not count the same logical access twice.
        if let Some(runs) = self.cache.peek(key) {
            self.count_hit(session);
            return Ok(runs);
        }
        self.count_miss(session);
        let end = match col.blocks.get(b + 1) {
            Some(&(next, _)) => next,
            None => col.end,
        };
        let len = end.checked_sub(start).ok_or_else(|| bad("block offsets not ascending"))?;
        let len = usize::try_from(len).map_err(|_| bad("block length overflow"))?;
        let block_bytes = self.bytes.slice(start, len).ok_or_else(|| bad("block beyond file"))?;
        let present = col
            .present_rows
            .get(row_base as usize..)
            .ok_or_else(|| bad("row base beyond lengths array"))?;
        let block: Block = with_decode_scratch(|scratch| {
            scratch.runs.clear();
            decode_block_into(col.scheme, self.layout, block_bytes, present, scratch)
                .map(|_| Block::from(scratch.runs.as_slice()))
        })
        .ok_or_else(|| bad("inconsistent block payload"))?;
        self.cache.insert(key, Arc::clone(&block));
        Ok(block)
    }
}

/// Lazy view over one on-disk column.
pub struct DiskColumn<'a> {
    store: &'a DiskColumnStore,
    view: ColumnView<'a>,
    /// Query scope the accesses through this handle are attributed to
    /// (besides the store totals); `None` outside query execution.
    session: Option<&'a IoSession>,
}

impl<'a> DiskColumn<'a> {
    /// Attributes every access through this handle to `session` (in
    /// addition to the store totals) — one session per query execution
    /// keeps per-query I/O deltas exact even when several queries run on
    /// the store concurrently.
    pub fn scoped(mut self, session: &'a IoSession) -> DiskColumn<'a> {
        self.session = Some(session);
        self
    }
}

impl DiskColumn<'_> {
    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.view.blocks.len()
    }

    /// Compression scheme of this column (delta vs RLE), for workload
    /// labeling in benches and tests.
    pub fn scheme(&self) -> Scheme {
        self.view.scheme
    }

    /// Rows present at this level.
    pub fn row_count(&self) -> usize {
        self.view.present_rows.len()
    }

    /// The `[first, last]` JDewey value range this column covers, read
    /// from the directory first values and the v2/v3 footer last values
    /// without decoding anything.  `None` for empty columns and for v1
    /// files (no footers), where the span would require a decode.
    pub fn value_span(&self) -> Option<(u32, u32)> {
        let &(_, first) = self.view.blocks.first()?;
        let &last = self.view.footers?.lasts.last()?;
        Some((first, last))
    }

    /// Decodes the whole column in block order (the merge-join access
    /// pattern).  Corrupt blocks surface as `InvalidData` errors.
    pub fn scan(&self) -> io::Result<Vec<Run>> {
        let mut out = Vec::new();
        let mut row_base = 0u32;
        for b in 0..self.view.blocks.len() {
            let runs = self.store.decode_block(&self.view, b, row_base, self.session)?;
            row_base = row_base
                .checked_add(runs.iter().map(|r| r.len).sum::<u32>())
                .ok_or_else(|| bad("row count overflow"))?;
            out.extend_from_slice(&runs);
        }
        Ok(out)
    }

    /// Decodes only the blocks whose value range can contain one of the
    /// **ascending** probe `values`, returning their runs in block order
    /// — the merge-join access pattern with footer block skipping.
    ///
    /// A block is decoded iff some probe falls inside `[first, last]`
    /// (directory first value, footer last value), so the result is the
    /// exact subset of [`scan`](Self::scan) that can match any probe;
    /// galloping over it finds the same runs the full scan would.  The
    /// row prefix of each decoded block comes from the v2/v3 footers in
    /// O(1); files without footers (v1) fall back to the full scan.
    pub fn scan_matching(&self, values: &[u32]) -> io::Result<Vec<Run>> {
        let Some(f) = self.view.footers else {
            return self.scan();
        };
        let mut out = Vec::new();
        let mut vi = 0usize;
        for (b, &(_, first)) in self.view.blocks.iter().enumerate() {
            // Probes are ascending: ones below this block's first value
            // can no longer match here or in any later block.
            while values.get(vi).is_some_and(|&v| v < first) {
                vi += 1;
            }
            match values.get(vi) {
                Some(&v) => {
                    let Some(&last) = f.lasts.get(b) else {
                        return Err(bad("footer lasts out of range"));
                    };
                    if v > last {
                        continue; // definite miss: skip the decode
                    }
                    let row_base = *f
                        .row_prefix
                        .get(b)
                        .ok_or_else(|| bad("footer prefix out of range"))?;
                    let runs =
                        self.store.decode_block(&self.view, b, row_base, self.session)?;
                    out.extend_from_slice(&runs);
                }
                None => break, // probes exhausted
            }
        }
        Ok(out)
    }

    /// Finds the run for a JDewey `value`, decoding **at most one block**
    /// — the index-join access pattern.
    ///
    /// On format v2 the block's row prefix comes from the footers in
    /// O(1), and a probe outside the block's `[first, last]` value range
    /// returns `None` without decoding anything.  On v1 files the row
    /// prefix requires decoding the preceding blocks of this column once
    /// (they then sit in the cache) — the legacy behaviour kept for
    /// compatibility and as the bench ablation baseline.
    pub fn find(&self, value: u32) -> io::Result<Option<Run>> {
        let idx = self.view.blocks.partition_point(|&(_, first)| first <= value);
        let Some(b) = idx.checked_sub(1) else {
            return Ok(None);
        };
        let row_base = match self.view.footers {
            Some(f) => {
                // Definite miss: the probe is beyond the block's last
                // value (and below the next block's first) — skip the
                // decode outright.
                if f.lasts.get(b).is_some_and(|&last| value > last) {
                    return Ok(None);
                }
                *f.row_prefix.get(b).ok_or_else(|| bad("footer prefix out of range"))?
            }
            None => {
                // v1: decode preceding blocks (cached after first touch).
                let mut row_base = 0u32;
                for p in 0..b {
                    let prefix = self.store.decode_block(&self.view, p, row_base, self.session)?;
                    row_base = row_base
                        .checked_add(prefix.iter().map(|r| r.len).sum::<u32>())
                        .ok_or_else(|| bad("row count overflow"))?;
                }
                row_base
            }
        };
        let runs = self.store.decode_block(&self.view, b, row_base, self.session)?;
        let found = runs
            .binary_search_by_key(&value, |r| r.value)
            .ok()
            .and_then(|i| runs.get(i))
            .copied();
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::XmlIndex;
    use crate::cache::CacheCapacity;
    use crate::disk::{write_index, FormatVersion, WriteIndexOptions};
    use xtk_xml::parse;
    use xtk_xml::testutil::TempPath;

    fn corpus() -> XmlIndex {
        let mut xml = String::from("<r>");
        for i in 0..500 {
            xml.push_str(&format!("<p><t>w{} shared</t></p>", i % 37));
        }
        xml.push_str("</r>");
        XmlIndex::build(parse(&xml).unwrap())
    }

    fn store_v(tag: &str, format: FormatVersion) -> (XmlIndex, DiskColumnStore, TempPath) {
        let ix = corpus();
        let path = TempPath::new(&format!("diskcol_{tag}"));
        write_index(&ix, &path, WriteIndexOptions { include_scores: true, format }).unwrap();
        let store = DiskColumnStore::open(&path).unwrap();
        (ix, store, path)
    }

    fn store(tag: &str) -> (XmlIndex, DiskColumnStore, TempPath) {
        store_v(tag, FormatVersion::V2)
    }

    #[test]
    fn store_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<DiskColumnStore>();
    }

    #[test]
    fn scan_matches_in_memory_columns() {
        for format in [FormatVersion::V1, FormatVersion::V2, FormatVersion::V3] {
            let (ix, store, _path) = store_v("scan", format);
            for (_, term) in ix.terms() {
                for (li, col) in term.columns.iter().enumerate() {
                    let dc = store.column(&term.term, (li + 1) as u16).unwrap();
                    assert_eq!(
                        dc.scan().unwrap(),
                        col.runs,
                        "term {} level {} {format:?}",
                        term.term,
                        li + 1
                    );
                }
            }
        }
    }

    #[test]
    fn scan_matching_skips_blocks_but_keeps_probed_runs() {
        for format in [FormatVersion::V1, FormatVersion::V2, FormatVersion::V3] {
            let (ix, store, _path) = store_v("scanmatch", format);
            let term = ix.term_by_str("shared").unwrap();
            let col = &term.columns[2];
            let dc = store.column("shared", 3).unwrap();
            // Probe a sparse ascending subset (every 7th distinct value,
            // plus misses between them).
            let mut probes: Vec<u32> = col.runs.iter().step_by(7).map(|r| r.value).collect();
            probes.extend(col.runs.iter().step_by(11).map(|r| r.value + 1));
            probes.sort_unstable();
            probes.dedup();
            let sub = dc.scan_matching(&probes).unwrap();
            let full = dc.scan().unwrap();
            // Subset of the full scan, in order.
            let mut fi = 0usize;
            for r in &sub {
                while fi < full.len() && full[fi] != *r {
                    fi += 1;
                }
                assert!(fi < full.len(), "{format:?}: run {r:?} not in scan order");
            }
            // Every probed value that exists in the column is present.
            for r in &col.runs {
                if probes.binary_search(&r.value).is_ok() {
                    assert!(sub.contains(r), "{format:?}: probed run {r:?} missing");
                }
            }
            // Footer formats skip at least the blocks past the last probe
            // when the probe set is empty.
            assert!(dc.scan_matching(&[]).unwrap().is_empty() || format == FormatVersion::V1);
        }
    }

    #[test]
    fn find_matches_in_memory_find() {
        for format in [FormatVersion::V1, FormatVersion::V2, FormatVersion::V3] {
            let (ix, store, _path) = store_v("find", format);
            let term = ix.term_by_str("shared").unwrap();
            let dc = store.column("shared", 3).unwrap();
            for run in &term.columns[2].runs {
                assert_eq!(dc.find(run.value).unwrap(), Some(*run), "{format:?}");
            }
            assert_eq!(dc.find(999_999).unwrap(), None);
        }
    }

    #[test]
    fn prefetch_pins_all_blocks_and_later_probes_decode_nothing() {
        let (_ix, store, _path) = store("prefetch");
        let total_blocks: usize = (1..=store.levels_of("shared"))
            .filter_map(|l| store.column("shared", l))
            .map(|dc| dc.block_count())
            .sum();
        let pinned = store.prefetch_term("shared").unwrap();
        assert_eq!(pinned as usize, total_blocks, "every block warmed and pinned");
        assert_eq!(store.pinned_blocks(), pinned);
        let decodes = store.reads();
        // Every subsequent access is a cache hit: zero further decodes.
        let dc = store.column("shared", 3).unwrap();
        dc.scan().unwrap();
        dc.find(1).unwrap();
        assert_eq!(store.reads(), decodes, "prefetched column never re-decodes");
        // Re-prefetching a warm term decodes nothing and nests pins.
        let again = store.prefetch_term("shared").unwrap();
        assert_eq!(again, pinned);
        assert_eq!(store.reads(), decodes);
        store.unpin_term("shared");
        store.unpin_term("shared");
        assert_eq!(store.pinned_blocks(), 0);
        // Absent terms are a no-op on both sides.
        assert_eq!(store.prefetch_term("no-such-term").unwrap(), 0);
        store.unpin_term("no-such-term");
    }

    #[test]
    fn block_reads_are_counted_and_cached() {
        let (_ix, store, _path) = store("counted");
        let dc = store.column("shared", 3).unwrap();
        dc.scan().unwrap();
        let first = store.reads();
        assert!(first >= 1);
        dc.scan().unwrap();
        assert_eq!(store.reads(), first, "second scan served from cache");
        let stats = store.cache_stats();
        assert!(stats.hits >= first, "{stats:?}");
    }

    #[test]
    fn cold_find_decodes_at_most_one_block() {
        // The satellite regression: a v2 probe must not decode the
        // preceding blocks of the column to locate its row prefix.
        let mut xml = String::from("<r>");
        for i in 0..6000 {
            xml.push_str(&format!("<p><t>dense x{i}</t></p>"));
        }
        xml.push_str("</r>");
        let ix = XmlIndex::build(parse(&xml).unwrap());
        let path = TempPath::new("diskcol_cold");
        write_index(&ix, &path, WriteIndexOptions::default()).unwrap();

        let store = DiskColumnStore::open(&path).unwrap();
        let dc = store.column("dense", 2).unwrap();
        assert!(dc.block_count() > 1, "corpus must span several blocks");
        // Probe a value that lives in the LAST block of a cold store.
        let target = ix.term_by_str("dense").unwrap().columns[1].runs.last().unwrap().value;
        assert!(dc.find(target).unwrap().is_some());
        assert_eq!(store.reads(), 1, "cold probe decodes exactly one block");
        // A probe beyond every stored value decodes nothing: the footers
        // prove the last block cannot contain it.
        let reads = store.reads();
        assert_eq!(dc.find(target + 1).unwrap(), None);
        assert_eq!(store.reads(), reads, "out-of-range probe is free");

        // The v1 ablation: same probe decodes the whole prefix.
        let path1 = TempPath::new("diskcol_cold_v1");
        write_index(
            &ix,
            &path1,
            WriteIndexOptions { include_scores: false, format: FormatVersion::V1 },
        )
        .unwrap();
        let store1 = DiskColumnStore::open(&path1).unwrap();
        let dc1 = store1.column("dense", 2).unwrap();
        assert!(dc1.find(target).unwrap().is_some());
        assert_eq!(
            store1.reads(),
            dc1.block_count() as u64,
            "v1 pays the whole prefix for a last-block probe"
        );
    }

    #[test]
    fn value_gap_probe_skips_decode() {
        // A probe that falls between a block's last value and the next
        // block's first value must return None with zero decodes.
        let mut xml = String::from("<r>");
        for i in 0..6000 {
            // Even node numbers only, so odd probes can miss.
            xml.push_str(&format!("<p><t>gap g{i}</t></p>"));
        }
        xml.push_str("</r>");
        let ix = XmlIndex::build(parse(&xml).unwrap());
        let path = TempPath::new("diskcol_gap");
        write_index(&ix, &path, WriteIndexOptions::default()).unwrap();
        let store = DiskColumnStore::open(&path).unwrap();
        // Level 1 of "gap" is a single highly-duplicated run; use the
        // leaf level, where block boundaries leave value gaps.
        let levels = store.levels_of("gap");
        let dc = store.column("gap", levels).unwrap();
        let col = &ix.term_by_str("gap").unwrap().columns[levels as usize - 1];
        // Find a value absent from the column.
        let absent = (0..u32::MAX).find(|v| col.find(*v).is_none()).unwrap();
        let before = store.reads();
        let r = dc.find(absent).unwrap();
        assert_eq!(r, None);
        // Either skipped via footers (0 decodes) or decoded exactly one
        // block (when the absent value falls inside a block's range).
        assert!(store.reads() - before <= 1);
    }

    #[test]
    fn shared_cache_and_parallel_probes_decode_once() {
        let (ix, _unused, path) = store("parprobe");
        let cache: Arc<dyn BlockCache> = Arc::new(ShardedLruCache::new(CacheCapacity::Unbounded));
        let store = DiskColumnStore::open_with_cache(&path, Arc::clone(&cache)).unwrap();
        let term = ix.term_by_str("shared").unwrap();
        let values: Vec<u32> = term.columns[2].runs.iter().map(|r| r.value).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = &store;
                let values = &values;
                s.spawn(move || {
                    let dc = store.column("shared", 3).unwrap();
                    for &v in values {
                        assert!(dc.find(v).unwrap().is_some());
                    }
                });
            }
        });
        let dc = store.column("shared", 3).unwrap();
        assert!(
            store.reads() <= dc.block_count() as u64,
            "4 workers probing every value decode each block at most once: {} reads, {} blocks",
            store.reads(),
            dc.block_count()
        );
    }

    #[test]
    fn bounded_cache_still_returns_exact_results() {
        let (ix, _unused, path) = store("bounded");
        for cache in [
            Arc::new(ShardedLruCache::with_block_capacity(1)) as Arc<dyn BlockCache>,
            Arc::new(ShardedLruCache::with_byte_capacity(1 << 14)) as Arc<dyn BlockCache>,
        ] {
            let store = DiskColumnStore::open_with_cache(&path, cache).unwrap();
            for (_, term) in ix.terms() {
                for (li, col) in term.columns.iter().enumerate() {
                    let dc = store.column(&term.term, (li + 1) as u16).unwrap();
                    assert_eq!(dc.scan().unwrap(), col.runs);
                    for run in col.runs.iter().take(8) {
                        assert_eq!(dc.find(run.value).unwrap(), Some(*run));
                    }
                }
            }
            let stats = store.cache_stats();
            assert!(stats.evictions > 0, "tiny cache must evict: {stats:?}");
        }
    }

    #[test]
    fn one_logical_access_counts_once() {
        // Regression for the PR-4 satellite bugfix: the double-checked
        // lookup under the file lock used to record a *second* miss per
        // decode, so a serial cold scan reported misses == 2 * decodes.
        let (_ix, store, _path) = store("misscount");
        let dc = store.column("shared", 3).unwrap();
        dc.scan().unwrap();
        let io = store.io_stats();
        assert_eq!(io.misses, io.decodes, "misses must equal decodes: {io:?}");
        assert_eq!(io.hits, 0, "cold scan has no hits: {io:?}");
        let cs = store.cache_stats();
        assert_eq!(cs.misses, io.misses, "shared-cache misses match per-store: {cs:?}");
        dc.scan().unwrap();
        let io2 = store.io_stats();
        assert_eq!(io2.decodes, io.decodes, "warm scan decodes nothing");
        assert!(io2.hits > 0);
        assert_eq!(io2.since(&io).misses, 0);
    }

    #[test]
    fn per_store_attribution_with_shared_cache() {
        // Two stores over the same file sharing one cache: the shared
        // CacheStats conflates them (salted keys), io_stats() does not.
        let (_ix, first, path) = store("attrib");
        let second =
            DiskColumnStore::open_with_cache(&path, first.shared_cache()).unwrap();
        first.column("shared", 3).unwrap().scan().unwrap();
        second.column("shared", 3).unwrap().scan().unwrap();
        let a = first.io_stats();
        let b = second.io_stats();
        assert_eq!(a.decodes, b.decodes, "same column, same block count");
        assert!(a.decodes > 0);
        let shared = first.cache_stats();
        assert_eq!(shared.misses, a.misses + b.misses, "{shared:?}");
        let reg = xtk_obs::MetricsRegistry::new();
        a.publish(&reg);
        b.publish(&reg);
        assert_eq!(reg.snapshot().get("store.decodes"), a.decodes + b.decodes);
    }

    #[test]
    fn shared_file_image_backs_many_stores() {
        // Zero-copy open: two stores over one Arc'd file image, no
        // per-store copy of the payload, identical results.
        let (ix, _unused, path) = store("sharedbytes");
        let image: Arc<[u8]> = std::fs::read(&path).unwrap().into();
        let cache: Arc<dyn BlockCache> = Arc::new(ShardedLruCache::unbounded());
        let a = DiskColumnStore::open_bytes(ColumnBytes::from(image.clone()), Arc::clone(&cache))
            .unwrap();
        let b = DiskColumnStore::open_bytes(ColumnBytes::from(image), cache).unwrap();
        let col = &ix.term_by_str("shared").unwrap().columns[2];
        assert_eq!(a.column("shared", 3).unwrap().scan().unwrap(), col.runs);
        assert_eq!(b.column("shared", 3).unwrap().scan().unwrap(), col.runs);
        assert_ne!(a.store_id(), b.store_id(), "cache keys stay disjoint");
    }

    /// A seeded random corpus: a long tail of singleton words, a few
    /// frequent ones, nested sections of varying depth, and one term in
    /// every paragraph so its deep columns span several blocks.
    fn random_corpus(seed: u64) -> XmlIndex {
        let mut rng = xtk_xml::testutil::Rng::seed_from_u64(seed);
        let mut xml = String::from("<r>");
        for i in 0..5000u32 {
            xml.push_str("<p><t>dense");
            for _ in 0..rng.gen_range(0..4usize) {
                match rng.gen_range(0..4u32) {
                    0 => xml.push_str(&format!(" common{}", rng.gen_range(0..5u32))),
                    _ => xml.push_str(&format!(" w{}", rng.gen_range(0..20_000u32))),
                }
            }
            xml.push_str("</t>");
            if i % 7 == 0 {
                xml.push_str(&format!("<s><u>deep common{} dense</u></s>", i % 3));
            }
            xml.push_str("</p>");
        }
        xml.push_str("</r>");
        XmlIndex::build(parse(&xml).unwrap())
    }

    #[test]
    fn directory_matches_the_index_in_every_format() {
        for format in [FormatVersion::V1, FormatVersion::V2, FormatVersion::V3] {
            let ix = random_corpus(0x5EED);
            let path = TempPath::new(&format!("diskcol_equiv_{format:?}"));
            let opts = WriteIndexOptions { include_scores: true, format };
            write_index(&ix, &path, opts).unwrap();
            let store = DiskColumnStore::open(&path).unwrap();
            assert_eq!(store.term_count(), ix.vocab_size(), "{format:?}");
            assert_eq!(store.term_names().len(), ix.vocab_size(), "{format:?}");
            // Varint blocks hold a few thousand rows, so this column spans
            // several (packed lanes fit all of its rows in one block).
            let dense = store.column("dense", 3).unwrap();
            if format.layout() == BlockLayout::Varint {
                assert!(dense.block_count() > 1, "{format:?}: a multi-block column");
            }
            for (_, term) in ix.terms() {
                let name = &*term.term;
                assert_eq!(store.levels_of(name) as usize, term.columns.len(), "{name}");
                assert_eq!(store.columns(name).count(), term.columns.len(), "{name}");
                for (li, col) in term.columns.iter().enumerate() {
                    let level = (li + 1) as u16;
                    let dc = store.column(name, level).unwrap();
                    let cc = crate::codec::ColumnEncoder::default()
                        .encode(col, crate::codec::choose_scheme(col), format.layout())
                        .clone();
                    let what = format!("{format:?} {name} level {level}");
                    assert_eq!(dc.row_count() as u64, col.row_count(), "{what}");
                    assert_eq!(dc.block_count(), cc.block_count(), "{what}");
                    assert_eq!(dc.scheme(), cc.scheme, "{what}");
                    let span = (col.runs.first().zip(col.runs.last()))
                        .map(|(f, l)| (f.value, l.value))
                        .filter(|_| format.has_footers());
                    assert_eq!(dc.value_span(), span, "{what}");
                    // Probe before scanning: a cold `find` places its
                    // block through the footer row prefixes, a scan does
                    // not (and would leave every block cached).
                    for run in &col.runs {
                        assert_eq!(dc.find(run.value).unwrap(), Some(*run), "{what}");
                    }
                    assert_eq!(dc.scan().unwrap(), col.runs, "{what}");
                }
                assert!(store.column(name, term.columns.len() as u16 + 1).is_none());
            }
        }
    }

    #[test]
    fn missing_term_or_level() {
        let (_ix, store, _path) = store("missing");
        assert!(store.column("zzz_nope", 1).is_none());
        assert!(store.column("shared", 99).is_none());
        assert_eq!(store.levels_of("zzz_nope"), 0);
        assert!(store.column("shared", 0).is_none());
        assert_eq!(store.columns("zzz_nope").count(), 0);
    }
}
