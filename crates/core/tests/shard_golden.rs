//! Golden bytes of the sharded stores: every `shard-NNNN/index.bin`
//! that `write_sharded_with` produces for three fixed corpora × {1, 2,
//! 3, 4, 8} shards × {v2, v3} must hash to the recorded FNV-64.  The
//! hashes were taken from the writer that re-indexed each shard's
//! subforest; the row-range writer must reproduce its files byte for
//! byte (dense JDewey numbering, `jdewey_gap = 0`).  The MANIFEST is not
//! covered: its format carries a corpus hash the older writer lacked.

use xtk_core::shard::{shard_dir_name, write_sharded_with, STORE_FILE};
use xtk_index::disk::{FormatVersion, WriteIndexOptions};
use xtk_index::XmlIndex;
use xtk_xml::parse;
use xtk_xml::testutil::{Rng, TempPath};

const WORDS: [&str; 20] = [
    "xml", "keyword", "search", "top", "k", "join", "query", "index", "tree", "score", "rank",
    "graph", "data", "stream", "lca", "column", "disk", "cache", "merge", "plan",
];

fn words(rng: &mut Rng, n: usize) -> String {
    let picked: Vec<&str> = (0..n).map(|_| *rng.choose(&WORDS).unwrap_or(&"xml")).collect();
    picked.join(" ")
}

/// A seeded bibliography: root text, 40 conferences of 1–3 papers with
/// titles, optional attributes and optional nested sections, so shards
/// differ in depth and in the first-occurrence order of their words.
fn papers() -> String {
    let mut rng = Rng::seed_from_u64(0x5EED_0014);
    let mut xml = String::from("<bib>catalog of xml papers");
    for c in 0..40 {
        xml.push_str("<conf>");
        for _ in 0..rng.gen_range(1..4usize) {
            if rng.gen_bool(0.3) {
                xml.push_str(&format!("<paper year=\"{}\">", 2000 + c % 7));
            } else {
                xml.push_str("<paper>");
            }
            let n = rng.gen_range(1..6usize);
            xml.push_str(&format!("<title>{}</title>", words(&mut rng, n)));
            if rng.gen_bool(0.4) {
                let n = rng.gen_range(2..8usize);
                let (body, bold) = (words(&mut rng, n), words(&mut rng, 2));
                xml.push_str(&format!("<sec><p>{body}</p><p><b>{bold}</b></p></sec>"));
            }
            xml.push_str("</paper>");
        }
        xml.push_str("</conf>");
    }
    xml.push_str("</bib>");
    xml
}

/// Three documents: fewer than the 4- and 8-shard topologies ask for.
const FEW: &str = "<bib><conf><paper><title>xml keyword search</title></paper>\
                   <paper><title>top k join</title></paper></conf>\
                   <conf><paper><title>search xml top k</title></paper></conf>\
                   <conf><paper><title>keyword top search</title></paper></conf></bib>";

/// No documents at all: one empty shard.
const EMPTY: &str = "<bib/>";

const SHARDS: [usize; 5] = [1, 2, 3, 4, 8];

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-64 of every shard store of `xml` at `shards` shards.
fn store_hashes(xml: &str, shards: usize, format: FormatVersion) -> Vec<u64> {
    let ix = XmlIndex::build(parse(xml).expect("corpus parses"));
    let dir = TempPath::new("shard_golden");
    let opts = WriteIndexOptions { include_scores: true, format };
    let written = write_sharded_with(&ix, &dir, shards, opts).expect("write shards");
    (0..written)
        .map(|id| {
            let path = dir.join(shard_dir_name(id as u32)).join(STORE_FILE);
            fnv64(&std::fs::read(path).expect("shard store"))
        })
        .collect()
}

/// `(corpus, format, shards, per-shard hashes)`.
type Golden = (&'static str, FormatVersion, usize, &'static [u64]);

const GOLDEN: &[Golden] = &[
    ("papers", FormatVersion::V2, 1, &[0xae53b8bc020102eb]),
    ("papers", FormatVersion::V2, 2, &[0x62cd3e9af342178d, 0x140b999d3fe40fdb]),
    ("papers", FormatVersion::V2, 3, &[0x5c2a40899d7cb040, 0x7cea65e147c14cf6, 0xf830bacd7093fbc3]),
    ("papers", FormatVersion::V2, 4, &[0x5413cc5a6653de6a, 0xbd8ef56537a6f754, 0xc36c99fb622115b9, 0x42d4163e9224f47b]),
    ("papers", FormatVersion::V2, 8, &[0xcab92ae0cedd5416, 0x83bf7dbc4f2c2355, 0xf5ca6875179d1c67, 0x447359e0801ce343, 0xd7c4cfe3e9dff333, 0xe3f7bdc6a9e1e422, 0xf30e51c1754604e0, 0xe5668a86788c2e6d]),
    ("papers", FormatVersion::V3, 1, &[0x3430f1aea2977f56]),
    ("papers", FormatVersion::V3, 2, &[0x485ea72190c0d29c, 0x3639a86106eb4331]),
    ("papers", FormatVersion::V3, 3, &[0x9625be3f9b7878c2, 0xb54e172771e5026d, 0xdf16a4e21b1a38d2]),
    ("papers", FormatVersion::V3, 4, &[0x149543bbbb69013a, 0x3d4e82f2d8155720, 0xda1a6af4c94e5503, 0x605e918df54aff0a]),
    ("papers", FormatVersion::V3, 8, &[0x8d70791d0c86579e, 0x826774fa68fcfffe, 0x52b75a1a8a4d9b15, 0x5c2396013cbfc96e, 0xafa5cbb3232ed8ca, 0x803586f67a46a283, 0x11f5329d5c3fb3bd, 0x4c376b94fc42f804]),
    ("few", FormatVersion::V2, 1, &[0xed1d27276772812c]),
    ("few", FormatVersion::V2, 2, &[0xae6afa89b73d8229, 0xe3852d01ed958856]),
    ("few", FormatVersion::V2, 3, &[0x7251186864d02249, 0xbc6cbbd850c331f2, 0xe3852d01ed958856]),
    ("few", FormatVersion::V2, 4, &[0x7251186864d02249, 0xbc6cbbd850c331f2, 0xe3852d01ed958856]),
    ("few", FormatVersion::V2, 8, &[0x7251186864d02249, 0xbc6cbbd850c331f2, 0xe3852d01ed958856]),
    ("few", FormatVersion::V3, 1, &[0xda1ac296c53b78bc]),
    ("few", FormatVersion::V3, 2, &[0xfc9bfc9fc5b20eb6, 0x8f5004ba3a8880d5]),
    ("few", FormatVersion::V3, 3, &[0x6edd6e8dbbf3636e, 0xcc458200fdcea8ef, 0x8f5004ba3a8880d5]),
    ("few", FormatVersion::V3, 4, &[0x6edd6e8dbbf3636e, 0xcc458200fdcea8ef, 0x8f5004ba3a8880d5]),
    ("few", FormatVersion::V3, 8, &[0x6edd6e8dbbf3636e, 0xcc458200fdcea8ef, 0x8f5004ba3a8880d5]),
    ("empty", FormatVersion::V2, 1, &[0xd3d8d350e7a626b6]),
    ("empty", FormatVersion::V2, 2, &[0xd3d8d350e7a626b6]),
    ("empty", FormatVersion::V2, 3, &[0xd3d8d350e7a626b6]),
    ("empty", FormatVersion::V2, 4, &[0xd3d8d350e7a626b6]),
    ("empty", FormatVersion::V2, 8, &[0xd3d8d350e7a626b6]),
    ("empty", FormatVersion::V3, 1, &[0xbd24159620cebc31]),
    ("empty", FormatVersion::V3, 2, &[0xbd24159620cebc31]),
    ("empty", FormatVersion::V3, 3, &[0xbd24159620cebc31]),
    ("empty", FormatVersion::V3, 4, &[0xbd24159620cebc31]),
    ("empty", FormatVersion::V3, 8, &[0xbd24159620cebc31]),
];

fn corpus(name: &str) -> String {
    match name {
        "papers" => papers(),
        "few" => FEW.to_string(),
        _ => EMPTY.to_string(),
    }
}

#[test]
fn shard_stores_match_the_golden_hashes() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for name in ["papers", "few", "empty"] {
        let xml = corpus(name);
        for format in [FormatVersion::V2, FormatVersion::V3] {
            for shards in SHARDS {
                let got = store_hashes(&xml, shards, format);
                let hex: Vec<String> = got.iter().map(|h| format!("0x{h:016x}")).collect();
                table.push_str(&format!(
                    "    (\"{name}\", FormatVersion::{format:?}, {shards}, &[{}]),\n",
                    hex.join(", ")
                ));
                let want = GOLDEN
                    .iter()
                    .find(|g| g.0 == name && g.1 == format && g.2 == shards)
                    .map(|g| g.3);
                if want != Some(got.as_slice()) {
                    mismatches.push(format!("{name} {format:?} {shards}"));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "store bytes moved for {mismatches:?}; now:\n{table}");
}

#[test]
fn the_golden_corpora_cover_the_edge_topologies() {
    let docs = |xml: &str| {
        let ix = XmlIndex::build(parse(xml).unwrap());
        ix.tree().children(ix.tree().root()).len()
    };
    assert_eq!(docs(&papers()), 40);
    assert!(docs(FEW) < 4, "fewer documents than shards");
    assert_eq!(docs(EMPTY), 0);
    for format in [FormatVersion::V2, FormatVersion::V3] {
        assert_eq!(store_hashes(FEW, 8, format).len(), 3, "one shard per document");
        assert_eq!(store_hashes(EMPTY, 4, format).len(), 1, "one empty shard");
    }
}
