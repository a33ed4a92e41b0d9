//! The independent oracle: model answers turned into the node ids a correct
//! program must return.
//!
//! [`Index::build`] walks a document snapshot with the tree primitives of
//! `xpeval-dom` (first child, next sibling, attribute lookup) and checks
//! each element against the model on the way, so a write the program
//! dropped or misplaced fails here.  No evaluator of the program takes
//! part: the ids come from the walk, the membership from the model.

use crate::model::{Answer, Auction, Ent, REGIONS};
use std::sync::Arc;
use xpeval_core::Value;
use xpeval_dom::{Document, NodeId};

/// What the oracle accepts for one request.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Exactly these nodes, in document order.
    Nodes(Arc<[NodeId]>),
    Number(f64),
    /// A write: accepted when it returns no error; the reads after it
    /// check its effect.
    Written,
}

struct ItemNodes {
    item: NodeId,
    name: NodeId,
    seller: NodeId,
    bids: Vec<NodeId>,
}

/// Node ids of every modelled element of one document snapshot.
pub struct Index {
    site: NodeId,
    regions: NodeId,
    region: Vec<NodeId>,
    items: Vec<ItemNodes>,
    people: Vec<(NodeId, NodeId)>,
}

fn element_children(doc: &Document, n: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut c = doc.first_child(n);
    while let Some(id) = c {
        out.push(id);
        c = doc.next_sibling(id);
    }
    out
}

fn expect_element(doc: &Document, n: NodeId, name: &str) -> Result<(), String> {
    match doc.name(n) {
        Some(found) if found == name => Ok(()),
        found => Err(format!("expected <{name}>, found {found:?} at {n:?}")),
    }
}

fn expect_attr(doc: &Document, n: NodeId, name: &str, value: &str) -> Result<(), String> {
    match doc.attribute_value(n, name) {
        Some(found) if found == value => Ok(()),
        found => Err(format!(
            "expected @{name}={value:?}, found {found:?} at {n:?}"
        )),
    }
}

fn expect_len(what: &str, found: usize, want: usize) -> Result<(), String> {
    if found == want {
        Ok(())
    } else {
        Err(format!("{what}: expected {want}, found {found}"))
    }
}

impl Index {
    /// Walks `doc` against `model`; errors at the first difference.
    pub fn build(doc: &Document, model: &Auction) -> Result<Index, String> {
        let top = element_children(doc, doc.root());
        expect_len("document elements", top.len(), 1)?;
        let site = top[0];
        expect_element(doc, site, "site")?;
        let parts = element_children(doc, site);
        expect_len("site children", parts.len(), 2)?;
        let (regions, people_el) = (parts[0], parts[1]);
        expect_element(doc, regions, "regions")?;
        expect_element(doc, people_el, "people")?;

        let region = element_children(doc, regions);
        expect_len("regions", region.len(), REGIONS.len())?;
        let mut items = Vec::with_capacity(model.items.len());
        let mut next = 0;
        for (r, &region_el) in region.iter().enumerate() {
            expect_element(doc, region_el, REGIONS[r])?;
            for item_el in element_children(doc, region_el) {
                let Some(item) = model.items.get(next).filter(|it| it.region == r) else {
                    return Err(format!("unexpected item {item_el:?} in {}", REGIONS[r]));
                };
                next += 1;
                expect_element(doc, item_el, "item")?;
                expect_attr(doc, item_el, "id", &format!("item{}", item.id))?;
                let kids = element_children(doc, item_el);
                expect_len("item children", kids.len(), 2 + item.bids.len())?;
                expect_element(doc, kids[0], "name")?;
                expect_element(doc, kids[1], "seller")?;
                expect_attr(doc, kids[1], "person", &format!("person{}", item.seller))?;
                for (bid, &bid_el) in item.bids.iter().zip(&kids[2..]) {
                    expect_element(doc, bid_el, "bid")?;
                    expect_attr(doc, bid_el, "person", &format!("person{}", bid.person))?;
                    expect_attr(doc, bid_el, "increase", &bid.increase.to_string())?;
                }
                items.push(ItemNodes {
                    item: item_el,
                    name: kids[0],
                    seller: kids[1],
                    bids: kids[2..].to_vec(),
                });
            }
        }
        expect_len("items", next, model.items.len())?;

        let persons = element_children(doc, people_el);
        expect_len("people", persons.len(), model.people)?;
        let mut people = Vec::with_capacity(persons.len());
        for (p, &person) in persons.iter().enumerate() {
            expect_element(doc, person, "person")?;
            expect_attr(doc, person, "id", &format!("person{p}"))?;
            let kids = element_children(doc, person);
            expect_len("person children", kids.len(), 1)?;
            expect_element(doc, kids[0], "name")?;
            people.push((person, kids[0]));
        }
        Ok(Index {
            site,
            regions,
            region,
            items,
            people,
        })
    }

    pub fn item_node(&self, item: usize) -> NodeId {
        self.items[item].item
    }

    pub fn bid_node(&self, item: usize, bid: usize) -> NodeId {
        self.items[item].bids[bid]
    }

    fn node(&self, e: Ent) -> NodeId {
        match e {
            Ent::Site => self.site,
            Ent::Regions => self.regions,
            Ent::Region(r) => self.region[r],
            Ent::Item(i) => self.items[i].item,
            Ent::ItemName(i) => self.items[i].name,
            Ent::Seller(i) => self.items[i].seller,
            Ent::Bid(i, b) => self.items[i].bids[b],
            Ent::Person(p) => self.people[p].0,
            Ent::PersonName(p) => self.people[p].1,
        }
    }

    /// The oracle's expectation for a model answer on this snapshot.
    pub fn expect(&self, doc: &Document, answer: &Answer) -> Expect {
        match answer {
            Answer::Number(n) => Expect::Number(*n),
            Answer::Nodes(ents) => {
                let mut ids: Vec<NodeId> = ents.iter().map(|&e| self.node(e)).collect();
                ids.sort_by_key(|&n| doc.pre(n));
                ids.dedup();
                Expect::Nodes(ids.into())
            }
        }
    }
}

/// Checks a query's value against the oracle.
pub fn check(expect: &Expect, value: &Value) -> Result<(), String> {
    match (expect, value) {
        (Expect::Nodes(want), Value::NodeSet(got)) if got.as_slice() == &want[..] => Ok(()),
        (Expect::Number(want), Value::Number(got)) if got == want => Ok(()),
        (Expect::Nodes(want), got) => Err(format!(
            "expected {} nodes {:?}, got {}",
            want.len(),
            &want[..want.len().min(8)],
            summarize(got)
        )),
        (want, got) => Err(format!("expected {want:?}, got {}", summarize(got))),
    }
}

fn summarize(v: &Value) -> String {
    match v {
        Value::NodeSet(ns) => format!("{} nodes {:?}", ns.len(), &ns[..ns.len().min(8)]),
        other => format!("{other:?}"),
    }
}
