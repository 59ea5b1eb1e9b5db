//! On-disk persistence of the columnar JDewey index.
//!
//! The paper stores inverted lists "directly on the disk" rather than in a
//! column store, because the vocabulary is huge and most lists are short.
//! This module implements that file: one vocabulary section and, per term,
//! the posting depths (lengths array), optional local scores, and each
//! column as self-contained compressed blocks (see [`crate::codec`]) with
//! their sparse keys.  Reading decodes back to exact [`Column`]s.
//!
//! Experiments run on the in-memory mirror (the paper's hot-cache setup);
//! the file exists to prove the format and to give Table I honest byte
//! counts.

use crate::codec::{
    choose_scheme, decode_column, try_read_varint, write_varint, BlockLayout, ColumnEncoder,
    CompressedColumn, Scheme,
};

/// Bounded reader over the raw file bytes: every primitive read reports
/// truncation as `io::Error` instead of panicking, so corrupted files are
/// rejected cleanly.
pub(crate) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn bad(what: &str) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, format!("corrupt index file: {what}"))
    }

    pub(crate) fn varint(&mut self, what: &str) -> io::Result<u32> {
        try_read_varint(self.bytes, &mut self.pos).ok_or_else(|| Self::bad(what))
    }

    pub(crate) fn byte(&mut self, what: &str) -> io::Result<u8> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| Self::bad(what))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| Self::bad(what))?;
        if end > self.bytes.len() {
            return Err(Self::bad(what));
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Fails unless `n` entries of at least `min_bytes` each fit in the
    /// bytes left: bounds a count read from the file before a buffer is
    /// sized from it, so a corrupt count cannot reserve memory the file
    /// could not possibly describe.
    pub(crate) fn check_count(&self, n: usize, min_bytes: usize, what: &str) -> io::Result<()> {
        match n.checked_mul(min_bytes) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(Self::bad(what)),
        }
    }
}
use crate::columnar::Column;
use crate::builder::{TermData, TermId, XmlIndex};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;
use xtk_xml::tree::{NodeId, XmlTree};

/// File magic: "XTK" + format version 1 (no per-block footers).
pub(crate) const MAGIC_V1: u32 = 0x58544B01;
/// File magic: "XTK" + format version 2 (per-block row-count and
/// last-value footers in the directory).
pub(crate) const MAGIC_V2: u32 = 0x58544B02;
/// File magic: "XTK" + format version 3 (v2 directory + bit-packed block
/// payloads).
pub(crate) const MAGIC_V3: u32 = 0x58544B03;

/// On-disk format version.
///
/// * [`V1`](FormatVersion::V1) — the original directory: per block
///   `(offset, first value)`.  Computing the global-row prefix of block
///   `b` requires decoding blocks `0..b`.
/// * [`V2`](FormatVersion::V2) — adds per-block `(row count,
///   last value)` footers, so a reader locates any probe in O(1)
///   directory work and skips blocks whose `[first, last]` range cannot
///   contain the probe.
/// * [`V3`](FormatVersion::V3) — same directory as v2, but block
///   payloads are fixed-width bit-packed lanes
///   ([`BlockLayout::Packed`]) decoded branchlessly instead of LEB128
///   varints.  Readers accept all three versions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FormatVersion {
    /// Original format, kept writable for compatibility tests.
    V1,
    /// Varint payloads with block footers (the default).
    #[default]
    V2,
    /// Bit-packed payloads with block footers.
    V3,
}

impl FormatVersion {
    /// The physical block layout this format stores.
    pub fn layout(self) -> BlockLayout {
        match self {
            FormatVersion::V1 | FormatVersion::V2 => BlockLayout::Varint,
            FormatVersion::V3 => BlockLayout::Packed,
        }
    }

    /// Whether the directory carries per-block row/last-value footers.
    pub fn has_footers(self) -> bool {
        !matches!(self, FormatVersion::V1)
    }
}

/// Options for writing.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteIndexOptions {
    /// Include per-posting local scores (the top-K flavor of the index).
    pub include_scores: bool,
    /// File format version to emit (defaults to the current one).
    pub format: FormatVersion,
}

/// One term as read back from disk.
#[derive(Debug, Clone)]
pub struct PersistedTerm {
    /// Posting depths (the lengths array).
    pub depths: Vec<u16>,
    /// Local scores, when written with `include_scores`.
    pub scores: Option<Vec<f32>>,
    /// Decoded columns (level 1 first), identical to the in-memory ones.
    pub columns: Vec<Column>,
}

/// A reloaded columnar index (postings resolve to `(level, number)` pairs,
/// not node ids — the tree is persisted separately as XML).
#[derive(Debug, Default)]
pub struct PersistedIndex {
    /// Terms by text.
    pub terms: HashMap<String, PersistedTerm>,
}

/// Encodes the file header of a store holding `n_terms` term records
/// into `buf`.
fn encode_header(n_terms: usize, opts: WriteIndexOptions, buf: &mut Vec<u8>) {
    let magic = match opts.format {
        FormatVersion::V1 => MAGIC_V1,
        FormatVersion::V2 => MAGIC_V2,
        FormatVersion::V3 => MAGIC_V3,
    };
    write_varint(magic, buf);
    write_varint(n_terms as u32, buf);
    buf.push(opts.include_scores as u8);
}

/// What one term record stores: the term text, its postings (for the
/// lengths array), one score per posting, and its columns with rows
/// numbered from 0 at the first posting — a whole [`TermData`], or a
/// row range of one with its columns clipped to those rows.
struct TermView<'a> {
    term: &'a str,
    postings: &'a [NodeId],
    scores: &'a [f32],
    columns: Cow<'a, [Column]>,
}

impl<'a> From<&'a TermData> for TermView<'a> {
    fn from(t: &'a TermData) -> Self {
        let columns = Cow::Borrowed(t.columns.as_slice());
        Self { term: &t.term, postings: &t.postings, scores: &t.scores, columns }
    }
}

/// Encodes one term record (vocabulary entry, lengths array, optional
/// scores, and every column's directory + payload) into `buf`; `tree`
/// gives the posting depths, and `enc` is reused for every column.
/// Shared by [`write_terms`] and [`persisted_file_bytes`] so size
/// accounting can never drift from the real writer.
fn encode_term_record(
    tree: &XmlTree,
    term: &TermView<'_>,
    opts: WriteIndexOptions,
    enc: &mut ColumnEncoder,
    buf: &mut Vec<u8>,
) {
    write_varint(term.term.len() as u32, buf);
    buf.extend_from_slice(term.term.as_bytes());
    write_varint(term.postings.len() as u32, buf);
    // Lengths array.
    for &n in term.postings {
        write_varint(tree.depth(n) as u32, buf);
    }
    if opts.include_scores {
        for &s in term.scores {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }
    write_varint(term.columns.len() as u32, buf);
    for col in term.columns.iter() {
        let scheme = choose_scheme(col);
        let cc = enc.encode(col, scheme, opts.format.layout());
        buf.push(match scheme {
            Scheme::Delta => 0,
            Scheme::Rle => 1,
        });
        write_varint(cc.block_offsets.len() as u32, buf);
        for b in 0..cc.block_offsets.len() {
            let off = cc.block_offsets.get(b).copied().unwrap_or(0);
            let first = cc.block_first_values.get(b).copied().unwrap_or(0);
            write_varint(off, buf);
            write_varint(first, buf);
            if opts.format.has_footers() {
                // Footer: row count + last value as a delta from the
                // first (values inside a block are non-decreasing, so
                // the delta is small and varints stay short).
                let rows = cc.block_rows.get(b).copied().unwrap_or(0);
                let last = cc.block_last_values.get(b).copied().unwrap_or(first);
                write_varint(rows, buf);
                write_varint(last.saturating_sub(first), buf);
            }
        }
        write_varint(cc.bytes.len() as u32, buf);
        buf.extend_from_slice(&cc.bytes);
    }
}

/// Serializes the columnar part of `ix` to `path`.  Returns bytes written.
pub fn write_index(ix: &XmlIndex, path: &Path, opts: WriteIndexOptions) -> io::Result<u64> {
    write_terms(ix.tree(), ix.vocab_size(), ix.terms().map(|(_, t)| t.into()), path, opts)
}

/// Writes a store of a row range of every term of `ix` (`rows[t]` for
/// `TermId(t)`): for each term with rows in its range, the depths and
/// scores of those rows and the term's columns clipped to them — rows
/// counted from the range start, level-`l` values from `bases[l - 1]`,
/// levels no row reaches left out.  Records come in the order an index
/// of just those rows numbers its terms (by first posting, terms first
/// met in one node in its token order).  For the rows of a document
/// range (a shard) and the bases of a dense JDewey numbering, this is
/// byte for byte what [`write_index`] writes for an index of just those
/// documents.
pub fn write_row_ranges(
    ix: &XmlIndex,
    path: &Path,
    opts: WriteIndexOptions,
    rows: &[Range<u32>],
    bases: &[u32],
) -> io::Result<u64> {
    let ids = (0u32..).map(TermId);
    let mut ranges: Vec<(TermId, Range<u32>)> = ids
        .zip(rows.iter().cloned())
        .filter(|(id, r)| !r.is_empty() && ix.get_term(*id).is_some())
        .collect();
    ix.sort_by_first_occurrence(&mut ranges);
    let views = ranges.iter().filter_map(|(id, rows)| {
        let t = ix.get_term(*id)?;
        let span = rows.start as usize..rows.end as usize;
        let clipped = t.columns.iter().zip(bases).map(|(c, &b)| c.clip(rows.clone(), b));
        Some(TermView {
            term: &t.term,
            postings: t.postings.get(span.clone()).unwrap_or(&[]),
            scores: t.scores.get(span).unwrap_or(&[]),
            columns: Cow::Owned(clipped.take_while(|c| !c.runs.is_empty()).collect()),
        })
    });
    write_terms(ix.tree(), ranges.len(), views, path, opts)
}

/// Streams `n_terms` term `records` to a new store file at `path`.
fn write_terms<'a>(
    tree: &XmlTree,
    n_terms: usize,
    records: impl Iterator<Item = TermView<'a>>,
    path: &Path,
    opts: WriteIndexOptions,
) -> io::Result<u64> {
    let file = File::create(path)?;
    let mut w = CountingWriter { inner: BufWriter::new(file), written: 0 };
    let mut buf = Vec::new();
    let mut enc = ColumnEncoder::default();
    encode_header(n_terms, opts, &mut buf);
    w.write_all(&buf)?;
    for term in records {
        buf.clear();
        encode_term_record(tree, &term, opts, &mut enc, &mut buf);
        w.write_all(&buf)?;
    }
    w.inner.flush()?;
    Ok(w.written)
}

/// [`write_index`] plus observability: records `disk.write_bytes` and
/// `disk.write_terms` into the registry so index-build runs report
/// through the same substrate as the query path.
pub fn write_index_obs(
    ix: &XmlIndex,
    path: &Path,
    opts: WriteIndexOptions,
    metrics: &xtk_obs::MetricsRegistry,
) -> io::Result<u64> {
    let written = write_index(ix, path, opts)?;
    metrics.add("disk.write_bytes", written);
    metrics.add("disk.write_terms", ix.vocab_size() as u64);
    Ok(written)
}

/// Exact size in bytes of the file [`write_index`] would produce, without
/// touching the filesystem.  Built on the same encoders as the writer,
/// so the Table I accounting in [`crate::sizes`] can be checked against
/// the genuine article.
pub fn persisted_file_bytes(ix: &XmlIndex, opts: WriteIndexOptions) -> u64 {
    let mut total = 0u64;
    let mut buf = Vec::new();
    let mut enc = ColumnEncoder::default();
    encode_header(ix.vocab_size(), opts, &mut buf);
    total += buf.len() as u64;
    for (_, term) in ix.terms() {
        buf.clear();
        encode_term_record(ix.tree(), &term.into(), opts, &mut enc, &mut buf);
        total += buf.len() as u64;
    }
    total
}

/// Reads an index file back into memory.
///
/// Malformed or truncated files are rejected with
/// [`io::ErrorKind::InvalidData`] — no panics on corrupt input.
pub fn read_index(path: &Path) -> io::Result<PersistedIndex> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut r = ByteReader::new(&bytes);
    let magic = r.varint("magic")?;
    let format = match magic {
        MAGIC_V1 => FormatVersion::V1,
        MAGIC_V2 => FormatVersion::V2,
        MAGIC_V3 => FormatVersion::V3,
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad index magic")),
    };
    let n_terms = r.varint("term count")? as usize;
    let with_scores = r.byte("score flag")? != 0;

    // The same count bounds as the disk column store's directory parse.
    r.check_count(n_terms, 3, "term count")?;
    let mut out = PersistedIndex::default();
    // One directory + payload buffer and one present-rows buffer, reused
    // for every column.
    let mut cc = CompressedColumn::empty(Scheme::Delta, format.layout());
    let mut present: Vec<u32> = Vec::new();
    for _ in 0..n_terms {
        let tlen = r.varint("term length")? as usize;
        let term = std::str::from_utf8(r.take(tlen, "term text")?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .to_string();
        let n_postings = r.varint("posting count")? as usize;
        r.check_count(n_postings, 1, "posting count")?;
        let mut depths = Vec::with_capacity(n_postings);
        for _ in 0..n_postings {
            let d = r.varint("depth")?;
            if d == 0 || d > u16::MAX as u32 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "bad depth"));
            }
            depths.push(d as u16);
        }
        let scores = if with_scores {
            let raw = r.take(4 * n_postings, "scores")?;
            let mut s = Vec::with_capacity(n_postings);
            for c in raw.chunks_exact(4) {
                let mut le = [0u8; 4];
                le.copy_from_slice(c);
                s.push(f32::from_le_bytes(le));
            }
            Some(s)
        } else {
            None
        };
        let n_cols = r.varint("column count")? as usize;
        let max_depth = depths.iter().copied().max().unwrap_or(0) as usize;
        if n_cols != max_depth {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "column count inconsistent with posting depths",
            ));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for level in 1..=n_cols as u16 {
            let scheme = match r.byte("scheme")? {
                0 => Scheme::Delta,
                1 => Scheme::Rle,
                _ => return Err(ByteReader::bad("bad scheme byte")),
            };
            cc.reset(scheme, format.layout());
            let n_blocks = r.varint("block count")? as usize;
            r.check_count(n_blocks, if format.has_footers() { 4 } else { 2 }, "block count")?;
            for _ in 0..n_blocks {
                cc.block_offsets.push(r.varint("block offset")?);
                let first = r.varint("block first value")?;
                cc.block_first_values.push(first);
                if format.has_footers() {
                    cc.block_rows.push(r.varint("block row count")?);
                    let span = r.varint("block last-value delta")?;
                    cc.block_last_values.push(first.checked_add(span).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "block last value overflow")
                    })?);
                }
            }
            let payload_len = r.varint("payload length")? as usize;
            cc.bytes.extend_from_slice(r.take(payload_len, "payload")?);
            if let Some(&last) = cc.block_offsets.last() {
                if last as usize >= payload_len.max(1) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "block offset beyond payload",
                    ));
                }
            }
            // Present rows at level l: postings with depth >= l.
            present.clear();
            present.extend(
                depths.iter().enumerate().filter(|(_, &d)| d >= level).map(|(i, _)| i as u32),
            );
            columns.push(try_decode(&cc, &present)?);
        }
        out.terms.insert(term, PersistedTerm { depths, scores, columns });
    }
    Ok(out)
}

/// Decode with corruption mapped to an error (a block whose contents do
/// not line up with the lengths array indicates a damaged file).
fn try_decode(cc: &CompressedColumn, present: &[u32]) -> io::Result<crate::columnar::Column> {
    decode_column(cc, present)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "inconsistent column payload"))
}

struct CountingWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::parse;
    use xtk_xml::testutil::TempPath;

    fn tmp(name: &str) -> TempPath {
        TempPath::new(&format!("disk_test_{name}"))
    }

    #[test]
    fn roundtrip_columns_and_scores() {
        let ix = XmlIndex::build(
            parse("<r><a><p>xml data</p><q>xml</q></a><b><s>data xml</s></b></r>").unwrap(),
        );
        let path = tmp("roundtrip");
        let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
        let bytes = write_index(&ix, &path, opts).unwrap();
        assert!(bytes > 0);
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(bytes, persisted_file_bytes(&ix, opts));
        let loaded = read_index(&path).unwrap();
        assert_eq!(loaded.terms.len(), ix.vocab_size());
        for (_, term) in ix.terms() {
            let lt = &loaded.terms[&*term.term];
            assert_eq!(lt.columns, term.columns, "columns must round-trip for {}", term.term);
            assert_eq!(lt.scores.as_ref().unwrap(), &term.scores);
            let depths: Vec<u16> =
                term.postings.iter().map(|&n| ix.tree().depth(n)).collect();
            assert_eq!(lt.depths, depths);
        }
    }

    #[test]
    fn roundtrip_without_scores() {
        let ix = XmlIndex::build(parse("<r><a>w w w</a><b>w</b></r>").unwrap());
        let path = tmp("noscores");
        write_index(&ix, &path, WriteIndexOptions::default()).unwrap();
        let loaded = read_index(&path).unwrap();
        assert!(loaded.terms["w"].scores.is_none());
        assert_eq!(loaded.terms["w"].columns, ix.term_by_str("w").unwrap().columns);
    }

    #[test]
    fn v1_files_still_read_identically() {
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!("<p><t>old format{} data</t></p>", i % 13));
        }
        xml.push_str("</r>");
        let ix = XmlIndex::build(parse(&xml).unwrap());
        let p1 = tmp("v1compat");
        let p2 = tmp("v2compat");
        let b1 = write_index(
            &ix,
            &p1,
            WriteIndexOptions { include_scores: true, format: FormatVersion::V1 },
        )
        .unwrap();
        let b2 = write_index(
            &ix,
            &p2,
            WriteIndexOptions { include_scores: true, format: FormatVersion::V2 },
        )
        .unwrap();
        // Footers cost bytes; v1 must stay strictly smaller.
        assert!(b1 < b2, "v1 {b1} vs v2 {b2}");
        let l1 = read_index(&p1).unwrap();
        let l2 = read_index(&p2).unwrap();
        assert_eq!(l1.terms.len(), l2.terms.len());
        for (term, t1) in &l1.terms {
            let t2 = &l2.terms[term.as_str()];
            assert_eq!(t1.columns, t2.columns, "columns differ for {term}");
            assert_eq!(t1.depths, t2.depths);
        }
    }

    #[test]
    fn v3_files_read_identically_to_v2() {
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!("<p><t>packed format{} data</t></p>", i % 13));
        }
        xml.push_str("</r>");
        let ix = XmlIndex::build(parse(&xml).unwrap());
        let p2 = tmp("v2packed");
        let p3 = tmp("v3packed");
        write_index(
            &ix,
            &p2,
            WriteIndexOptions { include_scores: true, format: FormatVersion::V2 },
        )
        .unwrap();
        write_index(
            &ix,
            &p3,
            WriteIndexOptions { include_scores: true, format: FormatVersion::V3 },
        )
        .unwrap();
        let l2 = read_index(&p2).unwrap();
        let l3 = read_index(&p3).unwrap();
        assert_eq!(l2.terms.len(), l3.terms.len());
        for (term, t2) in &l2.terms {
            let t3 = &l3.terms[term.as_str()];
            assert_eq!(t2.columns, t3.columns, "columns differ for {term}");
            assert_eq!(t2.depths, t3.depths);
            assert_eq!(t2.scores, t3.scores);
        }
    }

    #[test]
    fn persisted_file_bytes_matches_writer_for_both_formats() {
        let ix = XmlIndex::build(
            parse("<r><a><p>exact size</p></a><b>size accounting exact</b></r>").unwrap(),
        );
        for format in [FormatVersion::V1, FormatVersion::V2, FormatVersion::V3] {
            for include_scores in [false, true] {
                let opts = WriteIndexOptions { include_scores, format };
                let path = tmp(&format!("sz_{format:?}_{include_scores}"));
                let written = write_index(&ix, &path, opts).unwrap();
                assert_eq!(written, std::fs::metadata(&path).unwrap().len());
                assert_eq!(written, persisted_file_bytes(&ix, opts), "{opts:?}");
            }
        }
    }

    #[test]
    fn full_row_ranges_write_the_index_file() {
        // Every term's whole list, unshifted, in first-occurrence order:
        // the same records in the same order as the index's own file.
        let ix = XmlIndex::build(
            parse("<r><a>beta alpha</a><b><c>alpha gamma beta</c></b>gamma</r>").unwrap(),
        );
        let rows: Vec<Range<u32>> = ix.terms().map(|(_, t)| 0..t.len() as u32).collect();
        let bases = vec![0; ix.jd().num_levels() as usize];
        for format in [FormatVersion::V2, FormatVersion::V3] {
            let opts = WriteIndexOptions { include_scores: true, format };
            let (whole, ranged) = (tmp("whole"), tmp("ranged"));
            write_index(&ix, &whole, opts).unwrap();
            write_row_ranges(&ix, &ranged, opts, &rows, &bases).unwrap();
            assert_eq!(std::fs::read(&whole).unwrap(), std::fs::read(&ranged).unwrap());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, [1, 2, 3, 4, 5]).unwrap();
        assert!(read_index(&path).is_err());
    }
}
