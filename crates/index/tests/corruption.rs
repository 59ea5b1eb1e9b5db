//! Failure injection for the on-disk index format: truncations and random
//! byte mutations of a valid file must produce a clean `InvalidData`
//! error or — when the mutation happens to keep the file well-formed — a
//! successful parse.  Never a panic.

use xtk_index::codec::write_varint;
use xtk_index::disk::{read_index, write_index, FormatVersion, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_xml::parse;
use xtk_xml::testutil::{prop_check, TempPath};
use xtk_xml::prop_assert_eq;

/// Both lazily-decoded formats: varint (v2) and bit-packed (v3) block
/// payloads.  Every injection below runs against each, so truncated and
/// bit-flipped packed lanes get the same coverage as varint payloads.
const FORMATS: [FormatVersion; 2] = [FormatVersion::V2, FormatVersion::V3];

fn valid_index_bytes(format: FormatVersion) -> Vec<u8> {
    let mut xml = String::from("<r>");
    for i in 0..120 {
        xml.push_str(&format!("<p><t>alpha beta{} gamma</t></p>", i % 11));
    }
    xml.push_str("</r>");
    let ix = XmlIndex::build(parse(&xml).unwrap());
    let path = TempPath::new("corrupt_base");
    write_index(&ix, &path, WriteIndexOptions { include_scores: true, format }).unwrap();
    std::fs::read(&path).unwrap()
}

fn write_temp(bytes: &[u8], tag: &str) -> TempPath {
    let path = TempPath::new(&format!("corrupt_{tag}"));
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn every_truncation_point_is_handled() {
    for format in FORMATS {
        let bytes = valid_index_bytes(format);
        // Truncating at every prefix is O(n^2) in file size; sample
        // prefixes densely at the start (header/directory) and sparsely
        // later.
        let mut cuts: Vec<usize> = (0..bytes.len().min(200)).collect();
        cuts.extend((200..bytes.len()).step_by(97));
        for cut in cuts {
            let path = write_temp(&bytes[..cut], "trunc");
            // Must not panic; Err expected for almost every cut.
            let _ = read_index(&path);
            let _ = DiskColumnStore::open(&path);
        }
    }
}

#[test]
fn random_mutations_never_panic() {
    prop_check(0x41, 48, |g| {
        let format = FORMATS[g.gen_range(0..FORMATS.len())];
        let n_flips = g.gen_range(1..8usize);
        let flips: Vec<(usize, u8)> = (0..n_flips)
            .map(|_| (g.gen_range(0..1_000_000usize), g.gen_range(0..256u32) as u8))
            .collect();
        let mut bytes = valid_index_bytes(format);
        for (pos, val) in flips {
            let n = bytes.len();
            bytes[pos % n] = val;
        }
        let path = write_temp(&bytes, "flip");
        match read_index(&path) {
            Ok(loaded) => {
                // A lucky mutation may still be well-formed; walking the
                // terms must at least not panic.
                for (term, t) in &loaded.terms {
                    let _ = (term.len(), t.depths.len());
                }
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e);
            }
        }
        let _ = DiskColumnStore::open(&path);
    });
}

#[test]
fn mutated_store_scan_and_find_never_panic() {
    // The block-granular reader defers payload decoding to `scan`/`find`,
    // so a mutation the directory pass misses must surface there — as an
    // `Err` (or a well-formed `Ok`), never a panic.  Mutations are aimed
    // past the directory to stress the lazy decode paths.
    prop_check(0x42, 32, |g| {
        let format = FORMATS[g.gen_range(0..FORMATS.len())];
        let n_flips = g.gen_range(1..6usize);
        let flips: Vec<(usize, u8)> = (0..n_flips)
            .map(|_| (g.gen_range(0..1_000_000usize), g.gen_range(0..256u32) as u8))
            .collect();
        let mut bytes = valid_index_bytes(format);
        let n = bytes.len();
        for (pos, val) in flips {
            // Skip the first ~64 bytes so the open() usually succeeds and
            // the decode paths actually run.
            bytes[64 + pos % (n - 64)] = val;
        }
        let path = write_temp(&bytes, "scanflip");
        if let Ok(store) = DiskColumnStore::open(&path) {
            for term in store.term_names() {
                for level in 1..=store.levels_of(term) {
                    let Some(col) = store.column(term, level) else { continue };
                    let _ = col.scan(); // Ok or Err, never a panic
                    let _ = col.find(0);
                    let _ = col.find(u32::MAX);
                }
            }
        }
    });
}

#[test]
fn empty_and_garbage_files_rejected() {
    for content in [&b""[..], &b"\x00"[..], &b"garbage not an index"[..]] {
        let path = write_temp(content, "garbage");
        assert!(read_index(&path).is_err());
        assert!(DiskColumnStore::open(&path).is_err());
    }
}

/// A hand-built store header (`"XTK"` + version magic, term count, score
/// flag) followed by `rest`, each number a varint as the writer emits it.
fn header_then(version: u32, n_terms: u32, rest: &[u32]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_varint(0x58544B00 | version, &mut bytes);
    write_varint(n_terms, &mut bytes);
    bytes.push(0); // no scores
    for &v in rest {
        write_varint(v, &mut bytes);
    }
    bytes
}

#[test]
fn counts_beyond_the_bytes_left_are_rejected() {
    // Counts far beyond what the file could hold must be refused before
    // any buffer is sized from them, on every format and both readers.
    const HUGE: u32 = 1 << 28;
    for version in [1, 2, 3] {
        let a = u32::from(b'a');
        let cases = [
            ("terms", header_then(version, HUGE, &[])),
            // One term "a" claiming 2^28 postings.
            ("postings", header_then(version, 1, &[1, a, HUGE])),
            // One term "a", one posting at depth 1, one column (scheme
            // 0) claiming 2^28 blocks.
            ("blocks", header_then(version, 1, &[1, a, 1, 1, 1, 0, HUGE])),
        ];
        for (what, bytes) in cases {
            let path = write_temp(&bytes, "huge_count");
            let err = DiskColumnStore::open(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "v{version} {what}: {err}");
            let err = read_index(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "v{version} {what}: {err}");
        }
    }
}
