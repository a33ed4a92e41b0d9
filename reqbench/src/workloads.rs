//! The three workloads: their corpora, query templates with model answers,
//! and traffic.
//!
//! * `lookup` — navigational PF/Core XPath over 128 small documents,
//!   (template × document) pairs drawn Zipf-skewed, 5% never-seen query
//!   texts.  Serve, catalog and plan do most of the work.
//! * `filter` — parameterised pWF/pXPath lookups with per-request bindings
//!   over 32 documents on both sides of the 512-node parallel threshold.
//!   Exec does most of the work.
//! * `edit_mix` — write-then-read cycles on 4 large documents: in-place
//!   edits, XML replacements and snapshot replacements beside analytic
//!   reads.  The only workload with live, dom and backends on the request
//!   path.

use crate::client::{Done, EditOp, Job, Request, Traffic};
use crate::model::{Answer, Auction, Edit, Ent, Item, REGIONS};
use crate::oracle::{Expect, Index};
use crate::rng::{Rng, Zipf};
use std::sync::Arc;
use xpeval_backends::PreparedSnapshot;
use xpeval_catalog::Catalog;
use xpeval_core::Bindings;
use xpeval_dom::{parse_xml, PreparedDocument};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Lookup,
    Filter,
    EditMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "filter" => Some(Workload::Filter),
            "edit_mix" => Some(Workload::EditMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Filter => "filter",
            Workload::EditMix => "edit_mix",
        }
    }

    /// The corpus a seed names: `(document name, model)` pairs.
    pub fn corpus(self, seed: u64) -> Vec<(String, Auction)> {
        let mut rng = Rng::fork(seed, 1);
        let (count, prefix) = match self {
            Workload::Lookup => (128, "lk"),
            Workload::Filter => (32, "fl"),
            Workload::EditMix => (4, "ed"),
        };
        (0..count)
            .map(|d| {
                let items = match self {
                    Workload::Lookup => rng.range(40, 80),
                    Workload::Filter if d % 3 != 2 => 25,
                    Workload::Filter => 50,
                    Workload::EditMix => EDIT_ITEMS,
                };
                let name = format!("{prefix}{d:03}");
                let model = Auction::generate(&mut rng, items, format!("{name}v0"));
                (name, model)
            })
            .collect()
    }

    /// The distinct query templates (novel `lookup` texts aside).
    pub fn templates(self) -> Vec<&'static str> {
        match self {
            Workload::Lookup => LOOKUP.iter().map(|t| t.0).collect(),
            Workload::Filter => FILTER.iter().map(|t| t.0).collect(),
            Workload::EditMix => EDIT_READS.iter().map(|t| t.0).collect(),
        }
    }

    /// Traffic over a freshly ingested catalog.
    pub fn traffic(
        self,
        seed: u64,
        corpus: &[(String, Auction)],
        catalog: &Catalog,
    ) -> Result<Box<dyn Traffic>, String> {
        let docs = corpus
            .iter()
            .map(|(name, model)| DocState::new(catalog, name, model.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let rng = Rng::fork(seed, 2);
        Ok(match self {
            Workload::Lookup => Box::new(Lookup::new(rng, docs)),
            Workload::Filter => Box::new(Filter { rng, docs }),
            Workload::EditMix => Box::new(EditMix {
                docs: docs
                    .into_iter()
                    .enumerate()
                    .map(|(d, state)| EditDoc {
                        state,
                        rng: Rng::fork(seed, 16 + d as u64),
                        phase: Phase::Idle,
                        version: 0,
                    })
                    .collect(),
                cursor: 0,
                catalog: catalog.clone(),
            }),
        })
    }
}

/// A template's model answer.
pub type AnswerFn = fn(&Auction) -> Answer;
/// A parameterised template: draws bindings, returns them with the answer.
type BoundFn = fn(&Auction, &mut Rng) -> (Bindings, Answer);

/// `lookup`: navigational PF / Core XPath, no variables.
pub const LOOKUP: [(&str, AnswerFn); 20] = [
    ("/site/regions/*/item/name", |m| m.names_where(|_| true)),
    ("//item/name", |m| m.names_where(|_| true)),
    ("//item[bid]/name", |m| {
        m.names_where(|i| !i.bids.is_empty())
    }),
    ("//item[not(bid)]/name", |m| {
        m.names_where(|i| i.bids.is_empty())
    }),
    ("/site/people/person/name", |m| {
        Answer::Nodes((0..m.people).map(Ent::PersonName).collect())
    }),
    ("//bid/../name", |m| m.names_where(|i| !i.bids.is_empty())),
    ("/site/regions/africa/item/name", |m| {
        m.names_where(|i| i.region == 0)
    }),
    ("/site/regions/europe/item[bid]/name", |m| {
        m.names_where(|i| i.region == 3 && !i.bids.is_empty())
    }),
    ("//item[seller][not(bid)]", |m| {
        m.items_where(|i| i.bids.is_empty(), Ent::Item)
    }),
    (
        "/site/regions/*/item[bid/following-sibling::bid]/name",
        |m| m.names_where(|i| i.bids.len() >= 2),
    ),
    ("//bid[not(following-sibling::bid)]", |m| {
        bids_where(m, |n, b| b + 1 == n)
    }),
    ("//item/bid[not(preceding-sibling::bid)]", |m| {
        bids_where(m, |_, b| b == 0)
    }),
    ("//seller/ancestor::*", |m| {
        let mut out = vec![Ent::Site, Ent::Regions];
        out.extend(regions_where(m, |_| true));
        out.extend((0..m.items.len()).map(Ent::Item));
        Answer::Nodes(out)
    }),
    ("/site/regions/*[item/bid]", |m| {
        Answer::Nodes(regions_where(m, |i| !i.bids.is_empty()))
    }),
    ("//item[bid and seller]/seller", |m| {
        m.items_where(|i| !i.bids.is_empty(), Ent::Seller)
    }),
    ("//item[not(bid/following-sibling::bid)]/name", |m| {
        m.names_where(|i| i.bids.len() < 2)
    }),
    ("/descendant::item[bid]/descendant::bid", |m| {
        bids_where(m, |_, _| true)
    }),
    ("/site/regions/*/item[not(bid)]/seller", |m| {
        m.items_where(|i| i.bids.is_empty(), Ent::Seller)
    }),
    ("//name/parent::person", |m| {
        Answer::Nodes((0..m.people).map(Ent::Person).collect())
    }),
    (
        "/site/people/person[not(following-sibling::person)]/name",
        |m| Answer::Nodes(vec![Ent::PersonName(m.people - 1)]),
    ),
];

/// Never-seen `lookup` texts: `{}` takes a fresh number, naming an element
/// no document has, so the answer is that of the `LOOKUP` template given.
const NOVEL: [(&str, usize); 3] = [
    ("/site/regions/*/item[not(q{})]/name", 0),
    ("//item[bid][not(q{})]/name", 2),
    ("//item[not(bid)][not(q{})]/name", 3),
];

/// `lookup` requests sent before the window opens: enough for the hot
/// (template × document) pairs to hold their artifacts.
const LOOKUP_WARMUP: usize = 20_000;

/// Share of `lookup` requests that use a never-seen query text.
pub const NOVEL_SHARE: f64 = 0.05;

/// Zipf exponent of the `lookup` (template × document) popularity.
pub const LOOKUP_ZIPF: f64 = 1.2;

fn person_binding(name: &str, rng: &mut Rng, people: usize) -> (Bindings, usize) {
    let p = rng.below(people);
    (Bindings::new().with_string(name, format!("person{p}")), p)
}

/// `filter`: parameterised pWF / pXPath, bindings drawn per request.
pub const FILTER: [(&str, BoundFn); 8] = [
    ("//item[@id = $id]/name", |m, rng| {
        let i = rng.below(m.items.len());
        let b = Bindings::new().with_string("id", format!("item{}", m.items[i].id));
        (b, Answer::Nodes(vec![Ent::ItemName(i)]))
    }),
    ("//person[@id = $id]/name", |m, rng| {
        let (b, p) = person_binding("id", rng, m.people);
        (b, Answer::Nodes(vec![Ent::PersonName(p)]))
    }),
    ("//item[bid/@increase > $x]/name", |m, rng| {
        let x = rng.range(0, crate::model::MAX_INCREASE) as u32;
        let b = Bindings::new().with_number("x", x as f64);
        (
            b,
            m.names_where(|i| i.bids.iter().any(|bid| bid.increase > x)),
        )
    }),
    ("/site/people/person[position() = $k]/name", |m, rng| {
        let k = rng.range(1, m.people);
        let b = Bindings::new().with_number("k", k as f64);
        (b, Answer::Nodes(vec![Ent::PersonName(k - 1)]))
    }),
    (
        "/site/regions/*/item[position() = last() - $k]/name",
        |m, rng| {
            let k = rng.range(0, 3);
            let b = Bindings::new().with_number("k", k as f64);
            let pick = |v: &[usize]| v.len().checked_sub(k + 1).map(|j| v[j]);
            (b, m.per_region(|_| true, pick, Ent::ItemName))
        },
    ),
    ("//item[bid/@person = $p]/name", |m, rng| {
        let (b, p) = person_binding("p", rng, m.people);
        (
            b,
            m.names_where(|i| i.bids.iter().any(|bid| bid.person == p)),
        )
    }),
    ("/site/regions/*/item[position() = $k]/name", |m, rng| {
        let k = rng.range(1, 8);
        let b = Bindings::new().with_number("k", k as f64);
        (
            b,
            m.per_region(|_| true, |v| v.get(k - 1).copied(), Ent::ItemName),
        )
    }),
    ("//bid[@increase = $x]/../name", |m, rng| {
        let x = rng.range(1, crate::model::MAX_INCREASE) as u32;
        let b = Bindings::new().with_number("x", x as f64);
        (
            b,
            m.names_where(|i| i.bids.iter().any(|bid| bid.increase == x)),
        )
    }),
];

/// `edit_mix` reads: analytic XPath and Core XPath.
pub const EDIT_READS: [(&str, AnswerFn); 8] = [
    // The first seller precedes every bid: the union of the sellers'
    // following axes holds all bids.
    ("count(/descendant::seller/following::bid)", |m| {
        Answer::Number(m.bid_count() as f64)
    }),
    // The sellers preceding some bid are those up to the last item that
    // has a bid.
    ("count(/descendant::bid/preceding::seller)", |m| {
        let last = m.items().filter(|(_, i)| !i.bids.is_empty()).last();
        Answer::Number(last.map_or(0, |(i, _)| i + 1) as f64)
    }),
    ("//person[not(@id = //seller/@person)]", |m| {
        Answer::Nodes(
            (0..m.people)
                .filter(|&p| m.items.iter().all(|i| i.seller != p))
                .map(Ent::Person)
                .collect(),
        )
    }),
    ("sum(//bid/@increase)", |m| {
        let sum: u32 = m
            .items
            .iter()
            .flat_map(|i| &i.bids)
            .map(|b| b.increase)
            .sum();
        Answer::Number(sum as f64)
    }),
    ("//item[count(bid) > 2][last()]/name", |m| {
        m.per_region(|i| i.bids.len() > 2, |v| v.last().copied(), Ent::ItemName)
    }),
    ("//item[not(bid)]/name", |m| {
        m.names_where(|i| i.bids.is_empty())
    }),
    ("count(//item[bid/@increase > 10])", |m| {
        let n = m
            .items
            .iter()
            .filter(|i| i.bids.iter().any(|b| b.increase > 10));
        Answer::Number(n.count() as f64)
    }),
    ("count(//bid[@person = //seller/@person])", |m| {
        let n = m.items.iter().flat_map(|i| &i.bids);
        let n = n.filter(|b| m.items.iter().any(|i| i.seller == b.person));
        Answer::Number(n.count() as f64)
    }),
];

/// Items per `edit_mix` document.
const EDIT_ITEMS: usize = 300;

/// Reads that follow each `edit_mix` write on the same document.
const READS_PER_WRITE: u8 = 4;

/// Relative odds of an in-place edit, an XML replacement and a snapshot
/// replacement.
const WRITE_MIX: [u32; 3] = [80, 10, 10];

/// Bids `(item, b)` for which `keep(bids of item, b)` holds.
fn bids_where(m: &Auction, keep: impl Fn(usize, usize) -> bool) -> Answer {
    let mut out = Vec::new();
    for (i, it) in m.items() {
        let n = it.bids.len();
        out.extend((0..n).filter(|&b| keep(n, b)).map(|b| Ent::Bid(i, b)));
    }
    Answer::Nodes(out)
}

/// Regions holding at least one item that satisfies `keep`.
fn regions_where(m: &Auction, keep: impl Fn(&Item) -> bool) -> Vec<Ent> {
    (0..REGIONS.len())
        .filter(|&r| m.items.iter().any(|i| i.region == r && keep(i)))
        .map(Ent::Region)
        .collect()
}

/// One document as the traffic sees it: its model and the oracle index of
/// its current snapshot.
struct DocState {
    name: Arc<str>,
    model: Auction,
    snapshot: Arc<PreparedDocument>,
    index: Index,
}

impl DocState {
    fn new(catalog: &Catalog, name: &str, model: Auction) -> Result<Self, String> {
        let snapshot = catalog
            .get(name)
            .ok_or_else(|| format!("document {name} missing from the catalog"))?;
        let index = Index::build(snapshot.document(), &model)
            .map_err(|e| format!("document {name}: {e}"))?;
        Ok(DocState {
            name: name.into(),
            model,
            snapshot,
            index,
        })
    }

    fn expect(&self, answer: &Answer) -> Expect {
        self.index.expect(self.snapshot.document(), answer)
    }

    fn read(
        &self,
        doc: usize,
        query: Arc<str>,
        bindings: Option<Bindings>,
        expect: Expect,
    ) -> Request {
        Request {
            job: Job::Read {
                doc: Arc::clone(&self.name),
                query,
                bindings,
            },
            expect,
            doc,
            parse_bytes: 0,
        }
    }
}

struct Lookup {
    rng: Rng,
    zipf: Zipf,
    /// (template, document) pairs by popularity rank.
    ranked: Vec<(usize, usize)>,
    texts: Vec<Arc<str>>,
    /// Expected answer of pair `(t, d)` at `t * docs + d`.
    answers: Vec<Expect>,
    docs: Vec<DocState>,
    novel: u64,
}

impl Lookup {
    fn new(mut rng: Rng, docs: Vec<DocState>) -> Self {
        let mut ranked: Vec<(usize, usize)> = (0..LOOKUP.len())
            .flat_map(|t| (0..docs.len()).map(move |d| (t, d)))
            .collect();
        rng.shuffle(&mut ranked);
        let answers = LOOKUP
            .iter()
            .flat_map(|(_, answer)| docs.iter().map(|d| d.expect(&answer(&d.model))))
            .collect();
        Lookup {
            zipf: Zipf::new(ranked.len(), LOOKUP_ZIPF),
            ranked,
            texts: LOOKUP.iter().map(|t| Arc::from(t.0)).collect(),
            answers,
            docs,
            novel: 0,
            rng,
        }
    }
}

impl Traffic for Lookup {
    fn next(&mut self) -> Option<Request> {
        let (query, t, d) = if self.rng.unit() < NOVEL_SHARE {
            let (pattern, base) = NOVEL[self.rng.below(NOVEL.len())];
            self.novel += 1;
            let text = pattern.replace("{}", &self.novel.to_string());
            (Arc::from(text), base, self.rng.below(self.docs.len()))
        } else {
            let (t, d) = self.ranked[self.zipf.sample(&mut self.rng)];
            (Arc::clone(&self.texts[t]), t, d)
        };
        let expect = self.answers[t * self.docs.len() + d].clone();
        Some(self.docs[d].read(d, query, None, expect))
    }

    fn done(&mut self, _: &Done) -> Result<(), String> {
        Ok(())
    }

    fn warmup(&mut self) -> Vec<Request> {
        (0..LOOKUP_WARMUP).filter_map(|_| self.next()).collect()
    }
}

struct Filter {
    rng: Rng,
    docs: Vec<DocState>,
}

impl Filter {
    fn request(&mut self, t: usize, d: usize) -> Request {
        let (text, template) = FILTER[t];
        let doc = &self.docs[d];
        let (bindings, answer) = template(&doc.model, &mut self.rng);
        doc.read(d, Arc::from(text), Some(bindings), doc.expect(&answer))
    }
}

impl Traffic for Filter {
    fn next(&mut self) -> Option<Request> {
        let t = self.rng.below(FILTER.len());
        let d = self.rng.below(self.docs.len());
        Some(self.request(t, d))
    }

    fn done(&mut self, _: &Done) -> Result<(), String> {
        Ok(())
    }

    /// Every template once, on the first small document: compiles the
    /// plans.  Artifact misses in the window cost microseconds against
    /// milliseconds of evaluation, so the documents are not covered.
    fn warmup(&mut self) -> Vec<Request> {
        (0..FILTER.len()).map(|t| self.request(t, 0)).collect()
    }
}

/// Where one `edit_mix` document is in its write-then-read cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    Writing,
    Reading { to_send: u8, outstanding: u8 },
}

struct EditDoc {
    state: DocState,
    rng: Rng,
    phase: Phase,
    version: u32,
}

struct EditMix {
    docs: Vec<EditDoc>,
    cursor: usize,
    catalog: Catalog,
}

impl EditMix {
    fn write(&mut self, d: usize) -> Request {
        let doc = &mut self.docs[d];
        doc.phase = Phase::Writing;
        let name = Arc::clone(&doc.state.name);
        let (job, parse_bytes) = match doc.rng.weighted(&WRITE_MIX) {
            0 => {
                let edit = doc.state.model.random_edit(&mut doc.rng);
                let index = &doc.state.index;
                let op = match &edit {
                    Edit::InsertBid { item, at, bid } => EditOp::Insert {
                        parent: index.item_node(*item),
                        // An item's children are name, seller, then bids.
                        index: 2 + at,
                        xml: bid.to_xml(),
                    },
                    Edit::SetIncrease {
                        item,
                        bid,
                        increase,
                    } => EditOp::SetAttribute {
                        el: index.bid_node(*item, *bid),
                        name: "increase",
                        value: increase.to_string(),
                    },
                    Edit::RemoveBid { item, bid } => EditOp::Remove {
                        node: index.bid_node(*item, *bid),
                    },
                };
                doc.state.model.apply(&edit);
                (Job::Edit { doc: name, op }, 0)
            }
            kind => {
                // Every replacement carries new content: re-inserting
                // identical content is answered by the content-hash
                // artifact share and would not measure a replacement.
                doc.version += 1;
                let label = format!("{}v{}", doc.state.name, doc.version);
                let model = Auction::generate(&mut doc.rng, EDIT_ITEMS, label);
                let xml = model.to_xml();
                doc.state.model = model;
                if kind == 1 {
                    let bytes = xml.len();
                    (Job::ReplaceXml { doc: name, xml }, bytes)
                } else {
                    let parsed = parse_xml(&xml).expect("generated XML parses");
                    let bytes = PreparedSnapshot::to_bytes(&PreparedDocument::new(parsed));
                    (Job::ReplaceSnapshot { doc: name, bytes }, 0)
                }
            }
        };
        Request {
            job,
            expect: Expect::Written,
            doc: d,
            parse_bytes,
        }
    }

    fn read(&mut self, d: usize) -> Request {
        let doc = &mut self.docs[d];
        if let Phase::Reading {
            to_send,
            outstanding,
        } = &mut doc.phase
        {
            *to_send -= 1;
            *outstanding += 1;
        }
        let t = doc.rng.below(EDIT_READS.len());
        self.read_template(d, t)
    }

    fn read_template(&self, d: usize, t: usize) -> Request {
        let (text, answer) = EDIT_READS[t];
        let state = &self.docs[d].state;
        state.read(
            d,
            Arc::from(text),
            None,
            state.expect(&answer(&state.model)),
        )
    }
}

impl Traffic for EditMix {
    fn next(&mut self) -> Option<Request> {
        let n = self.docs.len();
        for k in 0..n {
            let d = (self.cursor + k) % n;
            let request = match self.docs[d].phase {
                Phase::Reading { to_send, .. } if to_send > 0 => self.read(d),
                Phase::Idle => self.write(d),
                _ => continue,
            };
            self.cursor = (d + 1) % n;
            return Some(request);
        }
        None
    }

    fn done(&mut self, done: &Done) -> Result<(), String> {
        let doc = &mut self.docs[done.doc];
        if done.write {
            doc.phase = Phase::Reading {
                to_send: READS_PER_WRITE,
                outstanding: 0,
            };
            // Re-index the published snapshot; the walk also checks that
            // the write landed as the model says.
            let snapshot = self
                .catalog
                .get(&doc.state.name)
                .ok_or_else(|| format!("document {} vanished", doc.state.name))?;
            doc.state.index = Index::build(snapshot.document(), &doc.state.model)
                .map_err(|e| format!("after a write to {}: {e}", doc.state.name))?;
            doc.state.snapshot = snapshot;
        } else if let Phase::Reading {
            to_send,
            outstanding,
        } = &mut doc.phase
        {
            *outstanding -= 1;
            if *to_send == 0 && *outstanding == 0 {
                doc.phase = Phase::Idle;
            }
        }
        Ok(())
    }

    /// Every read template once on every document: the plans and the
    /// artifacts of the first revisions.
    fn warmup(&mut self) -> Vec<Request> {
        (0..self.docs.len())
            .flat_map(|d| (0..EDIT_READS.len()).map(move |t| (d, t)))
            .map(|(d, t)| self.read_template(d, t))
            .collect()
    }
}
