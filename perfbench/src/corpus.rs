//! Seeded inputs: the DBLP-like corpus as XML text and each workload's
//! query lines.  Everything derives from the workload seed; the program
//! under test only ever sees the XML text and the query-language lines.

use xtk_bench::{band_term, correlated_groups, high_term};
use xtk_datagen::dblp::{generate, DblpConfig};
use xtk_datagen::PlantedTerm;
use xtk_xml::testutil::{splitmix64, Rng};
use xtk_xml::writer::{write_document, WriteOptions};

/// Corpus shape: conferences × years × papers per year (6 000 papers,
/// about 25 000 nodes and 0.7 MB of XML).  Small enough that a run
/// affords four set-ups and a dozen writes besides its serving time.
pub const CONFERENCES: usize = 24;
pub const YEARS_PER_CONF: usize = 10;
pub const PAPERS_PER_YEAR: usize = 25;
const PAPERS: usize = CONFERENCES * YEARS_PER_CONF * PAPERS_PER_YEAR;

/// Occurrences of each of the four high-frequency terms (`hfx0`..`hfx3`,
/// each in a fifth of the titles).
pub const HIGH_OCCURRENCES: usize = PAPERS / 5;

/// The lower bands, named by their frequency in a 24 000-paper corpus:
/// `lf{f}x{i}` occurs `f` times per 24 000 papers (at least 5 times).
pub const BANDS: [usize; 3] = [10, 100, 1_000];

/// Occurrences of a term with frequency `f` per 24 000 papers.
fn scaled(f: usize) -> usize {
    (f * PAPERS / 24_000).max(5)
}

/// Planted terms per band (`lf{f}x0` .. `lf{f}x15`).
pub const TERMS_PER_BAND: usize = 16;

/// Sub-seed `stream` of the workload seed (corpus, lines, schedule and
/// writes draw from independent streams).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// The corpus as XML text.
pub fn corpus_xml(seed: u64) -> String {
    let mut planted = Vec::new();
    for i in 0..4 {
        planted.push(PlantedTerm::new(high_term(i), HIGH_OCCURRENCES));
    }
    for &f in &BANDS {
        for i in 0..TERMS_PER_BAND {
            planted.push(PlantedTerm::new(band_term(f, i), scaled(f)));
        }
    }
    // The correlated groups at a quarter of their frequency in the
    // 100 000-paper experiment corpus.
    for (terms, freqs, rho) in correlated_groups() {
        for (j, (&t, &f)) in terms.iter().zip(&freqs).enumerate() {
            if j == 0 {
                planted.push(PlantedTerm::new(t, scaled(f / 4)));
            } else {
                planted.push(PlantedTerm::correlated(t, scaled(f / 4), terms[0], rho));
            }
        }
    }
    let cfg = DblpConfig {
        conferences: CONFERENCES,
        years_per_conf: YEARS_PER_CONF,
        papers_per_year: PAPERS_PER_YEAR,
        title_words: 6,
        authors_per_paper: 1,
        vocab_size: 8_000,
        seed: sub_seed(seed, 1),
        planted,
        ..Default::default()
    };
    write_document(&generate(&cfg).tree, WriteOptions::default())
}

/// Keyword shapes a line is drawn from.
#[derive(Clone, Copy)]
pub enum Terms {
    /// One high-frequency term plus one term of the given band.
    HighBand(usize),
    /// One high-frequency term plus one term from each of two bands.
    HighTwoBands(usize, usize),
    /// One high-frequency term plus the first two terms of a correlated group.
    HighCorrelated,
    /// Two distinct terms of two bands (equal bands give distinct terms).
    TwoBands(usize, usize),
    /// Three distinct terms of one band.
    ThreeOfBand(usize),
    /// A whole correlated group.
    Correlated,
}

/// The request part of a line.
#[derive(Clone, Copy)]
pub enum Shape {
    TopK(usize),
    Complete,
}

/// One line class: keyword shape, request shape, and semantics.
#[derive(Clone, Copy)]
pub struct Class {
    pub terms: Terms,
    pub shape: Shape,
    pub slca: bool,
}

fn band_pick(rng: &mut Rng, f: usize, avoid: &[String]) -> String {
    loop {
        let t = band_term(f, rng.gen_range(0..TERMS_PER_BAND));
        if !avoid.contains(&t) {
            return t;
        }
    }
}

fn keywords(rng: &mut Rng, terms: Terms) -> Vec<String> {
    let high = high_term(rng.gen_range(0..4));
    let groups = correlated_groups();
    let group = &groups[rng.gen_range(0..groups.len())].0;
    match terms {
        Terms::HighBand(f) => vec![high, band_pick(rng, f, &[])],
        Terms::HighTwoBands(a, b) => {
            let x = band_pick(rng, a, &[]);
            let y = band_pick(rng, b, std::slice::from_ref(&x));
            vec![high, x, y]
        }
        Terms::HighCorrelated => vec![high, group[0].to_string(), group[1].to_string()],
        Terms::TwoBands(a, b) => {
            let x = band_pick(rng, a, &[]);
            let y = band_pick(rng, b, std::slice::from_ref(&x));
            vec![x, y]
        }
        Terms::ThreeOfBand(f) => {
            let x = band_pick(rng, f, &[]);
            let y = band_pick(rng, f, std::slice::from_ref(&x));
            let z = band_pick(rng, f, &[x.clone(), y.clone()]);
            vec![x, y, z]
        }
        Terms::Correlated => group.iter().map(|s| s.to_string()).collect(),
    }
}

/// A query-language line, e.g. `hfx0 lf100x3 k=10 sem=slca`.
fn render(words: &[String], class: &Class) -> String {
    let mut line = words.join(" ");
    if let Shape::TopK(k) = class.shape {
        line.push_str(&format!(" k={k}"));
    }
    line.push_str(if class.slca { " sem=slca" } else { " sem=elca" });
    line
}

/// The generator the query lines draw from.
pub fn line_rng(seed: u64) -> Rng {
    Rng::seed_from_u64(sub_seed(seed, 2))
}

/// `n` distinct lines, cycling through `classes` so every prefix of the
/// list (and so the hot set of a skewed schedule) has the same class mix
/// whatever the seed.  A class whose combinations run out is skipped.
pub fn lines(seed: u64, classes: &[Class], n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    add_lines(&mut line_rng(seed), classes, n, &mut out);
    out
}

/// Appends `n` lines drawn as in [`lines`] to `out`, all distinct from
/// the lines already there.
pub fn add_lines(rng: &mut Rng, classes: &[Class], n: usize, out: &mut Vec<String>) {
    let target = out.len() + n;
    let mut exhausted = vec![false; classes.len()];
    let mut i = 0usize;
    while out.len() < target && exhausted.iter().any(|e| !e) {
        let c = i % classes.len();
        i += 1;
        if exhausted[c] {
            continue;
        }
        let fresh = (0..64).find_map(|_| {
            let line = render(&keywords(rng, classes[c].terms), &classes[c]);
            (!out.contains(&line)).then_some(line)
        });
        match fresh {
            Some(line) => out.push(line),
            None => exhausted[c] = true,
        }
    }
}

/// The keywords of a line (everything that is not a `knob=value`).
pub fn line_keywords(line: &str) -> Vec<String> {
    line.split_whitespace()
        .filter(|w| !w.contains('='))
        .map(str::to_string)
        .collect()
}

/// A uniform schedule: `total` draws over `distinct` lines.
pub fn uniform_schedule(distinct: usize, total: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 3));
    (0..total).map(|_| rng.gen_range(0..distinct)).collect()
}

/// The repeat-skewed serving schedule (≈80 % of arrivals on the hottest
/// fifth of the lines).
pub fn skewed_schedule(distinct: usize, total: usize, seed: u64) -> Vec<usize> {
    xtk_bench::skewed_schedule(distinct, total, sub_seed(seed, 3))
}
