//! Seeded inputs: documents as XML text, query strings, and the record
//! churn the writer turns into `EditOp`s. Everything derives from the one
//! command-line seed, so a second seed gives a second, equally valid run.

use xmldom::{write, Document, Indent};
use xmlgen::{
    generate_dblp, generate_treebank, generate_xmark, DblpConfig, TreebankConfig, XmarkConfig,
};

/// SplitMix64: a tiny, well-mixed generator; enough for draws and seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of one named input stream: independent streams for documents,
/// clients and the edit script, all fixed by the run's seed.
pub fn stream_seed(seed: u64, stream: &str) -> u64 {
    let mut h = Rng::new(seed);
    let mut acc = h.next_u64();
    for b in stream.bytes() {
        acc = Rng::new(acc ^ u64::from(b)).next_u64();
    }
    acc
}

/// Zipf(s) over ranks `0..n`, sampled by inverting the cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// How large the generated inputs are: the measured size, or a tiny one
/// that runs the same code in seconds (the self-test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// One generated document: the generator's tree (the correctness oracle's
/// input) and its XML text (the only thing the program is given).
pub struct GenDoc {
    pub name: &'static str,
    pub doc: Document,
    pub xml: String,
}

impl GenDoc {
    fn new(name: &'static str, doc: Document) -> Self {
        let xml = write(&doc, Indent::None);
        GenDoc { name, doc, xml }
    }
}

/// The DBLP document at the workload's scale: `eighths` of the Full
/// profile (28k records, 7.7 MB), or the tiny test size.
pub fn dblp(size: Size, seed: u64, eighths: usize) -> GenDoc {
    let cfg = match size {
        Size::Full => DblpConfig {
            inproceedings: 2000 * eighths,
            articles: 1500 * eighths,
            seed,
        },
        Size::Tiny => DblpConfig::tiny(seed),
    };
    GenDoc::new("DBLP", generate_dblp(&cfg))
}

/// XMark at scale 1 (1.0 MB), or tiny.
pub fn xmark(size: Size, seed: u64) -> GenDoc {
    let cfg = match size {
        Size::Full => XmarkConfig {
            seed,
            ..XmarkConfig::at_scale(1)
        },
        Size::Tiny => XmarkConfig::tiny(seed),
    };
    GenDoc::new("XMark", generate_xmark(&cfg))
}

/// TreeBank at the Full profile's 7000 sentences (3.2 MB), or tiny.
pub fn treebank(size: Size, seed: u64) -> GenDoc {
    let cfg = match size {
        Size::Full => TreebankConfig {
            sentences: 7000,
            max_depth: 36,
            seed,
        },
        Size::Tiny => TreebankConfig::tiny(seed),
    };
    GenDoc::new("TreeBank", generate_treebank(&cfg))
}

/// The catalog's members: `per_family` small documents (~900 elements
/// each) from each of the DBLP, XMark and TreeBank generators, each with
/// its own seed, in round-robin order (so both shards hold all three
/// families).
pub fn catalog_docs(size: Size, seed: u64) -> Vec<GenDoc> {
    let per_family = match size {
        Size::Full => 200,
        Size::Tiny => 6,
    };
    let mut rng = Rng::new(stream_seed(seed, "catalog-docs"));
    let mut docs = Vec::with_capacity(3 * per_family);
    for _ in 0..per_family {
        let s = rng.next_u64();
        docs.push(GenDoc::new(
            "DBLP",
            generate_dblp(&DblpConfig {
                inproceedings: 42 + rng.below(20),
                articles: 33 + rng.below(20),
                seed: s,
            }),
        ));
        docs.push(GenDoc::new(
            "XMark",
            generate_xmark(&XmarkConfig {
                scale: 1,
                base_persons: 19,
                base_open_auctions: 9,
                base_closed_auctions: 8,
                base_items_per_region: 3,
                seed: rng.next_u64(),
            }),
        ));
        docs.push(GenDoc::new(
            "TreeBank",
            generate_treebank(&TreebankConfig {
                sentences: 18 + rng.below(9),
                max_depth: 36,
                seed: rng.next_u64(),
            }),
        ));
    }
    docs
}

/// The nine Figure 15 queries, by dataset.
pub const DBLP_FIG15: [&str; 3] = [
    "//dblp/inproceedings[title]/author",
    "//dblp/article[author][.//title]//year",
    "//inproceedings[author][.//title]//booktitle",
];
pub const XMARK_FIG15: [&str; 3] = [
    "/site/open_auctions[.//bidder/personref]//reserve",
    "//people//person[.//address/zipcode]/profile/education",
    "//item[location]/description//keyword",
];
pub const TREEBANK_FIG15: [&str; 3] = [
    "//s/vp/pp[in]/np/vbn",
    "//s/vp//pp[.//np/vbn]/in",
    "//vp[dt]//prp_dollar_",
];
/// Figure 18: GTP variants of DBLP-Q1 (non-return and group-return nodes).
pub const DBLP_FIG18: [&str; 4] = [
    "//dblp/inproceedings[title]/author",
    "//dblp/inproceedings[title!]/author",
    "//dblp/inproceedings[title]/author!",
    "//dblp/inproceedings[title!]/author@",
];
/// Figure 19: GTP variants over XMark persons (non-return, optional axes).
pub const XMARK_FIG19: [&str; 5] = [
    "//people//person[.//address/zipcode]/profile/education",
    "//people//person[.//address!/zipcode!]/profile/education",
    "//people!//person![.//address!/zipcode!]/profile!/education",
    "//people//person[.//?address/zipcode]/profile/education",
    "//people//person[.//?address/zipcode]/profile/?education",
];

/// The analytic DBLP twigs of the served read mix: Figure 15 plus the
/// Figure 18 variants.
pub fn dblp_analytic() -> Vec<String> {
    DBLP_FIG15
        .iter()
        .chain(DBLP_FIG18.iter())
        .map(|q| q.to_string())
        .collect()
}

/// Distinct author names the DBLP generator emits (`Author 0` ..
/// `Author 996`).
const AUTHORS: usize = 997;

/// Shapes of the value-predicate point lookups; with every author name
/// that gives 2991 distinct query texts, far more than the 128 plans the
/// service caches by default.
const LOOKUP_SHAPES: [(&str, &str); 3] = [
    ("inproceedings", "title"),
    ("article", "title"),
    ("inproceedings", "booktitle"),
];

pub fn lookup(shape: usize, author: usize) -> String {
    let (record, field) = LOOKUP_SHAPES[shape % LOOKUP_SHAPES.len()];
    format!("//{record}[author='Author {author}']/{field}")
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    shuffle(&mut p, rng);
    p
}

/// Shuffle `v` in place (Fisher–Yates).
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// Point lookups per analytic twig in the served read mix (9 → 10% of
/// reads are analytic). A chosen share, not a measured one: no request
/// trace of this system exists. With 10% analytic, the lookups hold the
/// median and the analytic twigs hold the 99th percentile, each well
/// inside its class rather than on the boundary between them.
const LOOKUPS_PER_TWIG: usize = 9;

/// The served read mix, issued in cycles: each cycle holds every analytic
/// twig once and nine Zipf-drawn point lookups per twig, in seeded order.
/// Lookup ranks alternate between the three lookup shapes and map to
/// authors through a seeded permutation per shape. So whatever the seed,
/// the analytic share is exact, each shape gets a third of the lookups, and
/// two clients' heavy requests do not line up: a second seed changes which
/// texts are hot, not what the mix costs.
pub struct ReadMix {
    analytic: Vec<String>,
    lookups: Vec<String>,
    zipf: Zipf,
}

impl ReadMix {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(stream_seed(seed, "lookup-ranks"));
        let shapes = LOOKUP_SHAPES.len();
        let authors: Vec<Vec<usize>> = (0..shapes)
            .map(|_| permutation(AUTHORS, &mut rng))
            .collect();
        let lookups: Vec<String> = (0..shapes * AUTHORS)
            .map(|rank| lookup(rank % shapes, authors[rank % shapes][rank / shapes]))
            .collect();
        ReadMix {
            analytic: dblp_analytic(),
            zipf: Zipf::new(lookups.len(), 1.0),
            lookups,
        }
    }

    /// The next cycle of requests, to be issued from the back.
    pub fn cycle(&self, rng: &mut Rng) -> Vec<&str> {
        let mut c: Vec<&str> = self.analytic.iter().map(String::as_str).collect();
        for _ in 0..LOOKUPS_PER_TWIG * self.analytic.len() {
            c.push(&self.lookups[self.zipf.sample(rng)]);
        }
        shuffle(&mut c, rng);
        c
    }
}

/// The catalog's query mix: the nine Figure 15 queries, DBLP author
/// lookups (routed to every DBLP member, most of which hold no such
/// record), and one query over labels no member has.
pub struct CatalogMix {
    fig15: Vec<&'static str>,
    lookups: Vec<String>,
    zipf: Zipf,
}

pub const CATALOG_MISS: &str = "//auction_log[entry]/timestamp";

impl CatalogMix {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(stream_seed(seed, "catalog-lookups"));
        let lookups: Vec<String> = permutation(AUTHORS, &mut rng)[..200]
            .iter()
            .map(|&a| lookup(0, a))
            .collect();
        CatalogMix {
            fig15: DBLP_FIG15
                .iter()
                .chain(XMARK_FIG15.iter())
                .chain(TREEBANK_FIG15.iter())
                .copied()
                .collect(),
            zipf: Zipf::new(lookups.len(), 1.0),
            lookups,
        }
    }

    /// The next cycle of 26 requests, to be issued from the back: 3 miss
    /// queries, the nine Figure 15 twigs once each, and 14 Zipf-drawn
    /// lookups, in seeded order. The counts are chosen, not measured: the
    /// classes are ordered by cost, and these shares put the median inside
    /// the lookups and the 99th percentile inside the twigs, never on a
    /// boundary between classes.
    pub fn cycle(&self, rng: &mut Rng) -> Vec<&str> {
        let mut c: Vec<&str> = vec![CATALOG_MISS; 3];
        c.extend(self.fig15.iter().copied());
        for _ in 0..14 {
            c.push(&self.lookups[self.zipf.sample(rng)]);
        }
        shuffle(&mut c, rng);
        c
    }
}

/// One new DBLP record as XML text, in the generator's vocabulary, so
/// inserted records feed the same twigs and author subscriptions.
pub fn record_xml(rng: &mut Rng, key: usize) -> String {
    let authors: String = (0..1 + rng.below(4))
        .map(|_| format!("<author>Author {}</author>", rng.below(AUTHORS)))
        .collect();
    if rng.below(2) == 0 {
        format!(
            "<inproceedings key=\"conf/x/{key}\">{authors}<title>Paper {key} on twig joins</title>\
             <year>{}</year><booktitle>Conf {}</booktitle><url>db/conf/x</url></inproceedings>",
            1990 + key % 17,
            key % 53
        )
    } else {
        format!(
            "<article key=\"journals/x/{key}\">{authors}<title>Paper {key} on twig joins</title>\
             <year>{}</year><journal>Journal {}</journal></article>",
            1985 + key % 22,
            key % 31
        )
    }
}

/// The standing queries of the write workload: the three DBLP Figure 15
/// twigs plus author lookups, 32 in total.
pub fn subscriptions(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(stream_seed(seed, "subscriptions"));
    let mut subs: Vec<String> = DBLP_FIG15.iter().map(|q| q.to_string()).collect();
    while subs.len() < count {
        subs.push(lookup(0, rng.below(AUTHORS)));
    }
    subs
}
