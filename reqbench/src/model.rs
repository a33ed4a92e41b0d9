//! The auction documents the benchmark sends, and the model it keeps of
//! them.
//!
//! The generator builds an [`Auction`] first and prints the XML from it, so
//! the model is exactly what the program received.  Writes edit the model
//! alongside the document, and every answer the oracle expects is derived
//! from the model alone — never from an evaluator of the program under
//! test.

use crate::rng::Rng;
use std::fmt::Write as _;

/// Region elements under `/site/regions`, in document order.
pub const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

/// People per item.  At 1.6 a 50-item document holds 130 `name` elements,
/// above the planner's 128-candidate parallel threshold, while a 25-item
/// document stays below its 512-node threshold.
const PEOPLE_PER_ITEM: f64 = 1.6;

/// Relative odds of an item carrying 0, 1, 2 or 3 bids (about one on
/// average), which puts a 25-item document near 400 nodes and a 50-item
/// one near 800.
const BID_WEIGHTS: [u32; 4] = [35, 35, 20, 10];

/// Bid increases are whole numbers in `1..=MAX_INCREASE`.
pub const MAX_INCREASE: usize = 15;

#[derive(Clone, Debug, PartialEq)]
pub struct Bid {
    pub person: usize,
    pub increase: u32,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    /// The number in the item's `id="itemN"` attribute.
    pub id: usize,
    /// Index into [`REGIONS`].
    pub region: usize,
    /// The person in `<seller person="personN"/>`.
    pub seller: usize,
    /// Bids in document order.
    pub bids: Vec<Bid>,
}

/// One auction document: items in document order (grouped by region) and
/// `people` persons with ids `person0..personN`.
#[derive(Clone, Debug, PartialEq)]
pub struct Auction {
    /// Written into every name text, so documents with distinct labels
    /// never share content.
    pub label: String,
    pub items: Vec<Item>,
    pub people: usize,
}

/// A node of an auction document, named by its place in the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ent {
    Site,
    Regions,
    Region(usize),
    Item(usize),
    ItemName(usize),
    Seller(usize),
    /// `(item, bid)`: the bid's position among its item's bids.
    Bid(usize, usize),
    Person(usize),
    PersonName(usize),
}

/// What a query must return, according to the model.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Nodes(Vec<Ent>),
    Number(f64),
}

/// An in-place write on one item's bids.
#[derive(Clone, Debug, PartialEq)]
pub enum Edit {
    InsertBid {
        item: usize,
        at: usize,
        bid: Bid,
    },
    SetIncrease {
        item: usize,
        bid: usize,
        increase: u32,
    },
    RemoveBid {
        item: usize,
        bid: usize,
    },
}

impl Auction {
    /// A random auction of `items` items.
    pub fn generate(rng: &mut Rng, items: usize, label: String) -> Self {
        let people = ((items as f64 * PEOPLE_PER_ITEM).round() as usize).max(1);
        let mut ids: Vec<usize> = (0..items).collect();
        rng.shuffle(&mut ids);
        let mut list: Vec<Item> = ids
            .into_iter()
            .map(|id| Item {
                id,
                region: rng.below(REGIONS.len()),
                seller: rng.below(people),
                bids: (0..rng.weighted(&BID_WEIGHTS))
                    .map(|_| random_bid(rng, people))
                    .collect(),
            })
            .collect();
        list.sort_by_key(|item| item.region);
        Auction {
            label,
            items: list,
            people,
        }
    }

    /// The document as compact XML (no whitespace text nodes).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(64 * self.items.len() + 48 * self.people + 128);
        out.push_str("<site><regions>");
        let mut next = 0;
        for (r, region) in REGIONS.iter().enumerate() {
            let _ = write!(out, "<{region}>");
            while next < self.items.len() && self.items[next].region == r {
                let item = &self.items[next];
                let _ = write!(
                    out,
                    "<item id=\"item{}\"><name>{} item {}</name><seller person=\"person{}\"/>",
                    item.id, self.label, item.id, item.seller
                );
                for bid in &item.bids {
                    out.push_str(&bid.to_xml());
                }
                out.push_str("</item>");
                next += 1;
            }
            let _ = write!(out, "</{region}>");
        }
        out.push_str("</regions><people>");
        for p in 0..self.people {
            let _ = write!(
                out,
                "<person id=\"person{p}\"><name>{} person {p}</name></person>",
                self.label
            );
        }
        out.push_str("</people></site>");
        out
    }

    /// Nodes of the parsed document: the root, elements, attributes and
    /// text nodes.
    pub fn node_count(&self) -> usize {
        let fixed = 1 + 1 + 1 + REGIONS.len() + 1;
        let per_item: usize = self.items.iter().map(|i| 6 + 3 * i.bids.len()).sum();
        fixed + per_item + 4 * self.people
    }

    pub fn bid_count(&self) -> usize {
        self.items.iter().map(|i| i.bids.len()).sum()
    }

    /// Items in document order, as `(index, item)`.
    pub fn items(&self) -> impl Iterator<Item = (usize, &Item)> {
        self.items.iter().enumerate()
    }

    /// `ent(i)` of every item `i` matching `keep`.
    pub fn items_where(&self, keep: impl Fn(&Item) -> bool, ent: fn(usize) -> Ent) -> Answer {
        Answer::Nodes(
            self.items()
                .filter(|(_, it)| keep(it))
                .map(|(i, _)| ent(i))
                .collect(),
        )
    }

    /// `ItemName` of every item matching `keep`.
    pub fn names_where(&self, keep: impl Fn(&Item) -> bool) -> Answer {
        self.items_where(keep, Ent::ItemName)
    }

    /// For each region, the item that `pick` chooses among the region's
    /// items matching `keep` (in document order) — the semantics of
    /// `/site/regions/*/item[keep][pick]`, whose positional predicate counts
    /// within one parent.
    pub fn per_region(
        &self,
        keep: impl Fn(&Item) -> bool,
        pick: impl Fn(&[usize]) -> Option<usize>,
        ent: fn(usize) -> Ent,
    ) -> Answer {
        let mut out = Vec::new();
        for r in 0..REGIONS.len() {
            let matching: Vec<usize> = self
                .items()
                .filter(|(_, it)| it.region == r && keep(it))
                .map(|(i, _)| i)
                .collect();
            if let Some(i) = pick(&matching) {
                out.push(ent(i));
            }
        }
        Answer::Nodes(out)
    }

    /// A random in-place edit that is valid on the current model.
    pub fn random_edit(&self, rng: &mut Rng) -> Edit {
        let item = rng.below(self.items.len());
        let bids = self.items[item].bids.len();
        match rng.below(3) {
            0 | 1 if bids == 0 => Edit::InsertBid {
                item,
                at: 0,
                bid: random_bid(rng, self.people),
            },
            0 => Edit::SetIncrease {
                item,
                bid: rng.below(bids),
                increase: rng.range(1, MAX_INCREASE) as u32,
            },
            1 => Edit::RemoveBid {
                item,
                bid: rng.below(bids),
            },
            _ => Edit::InsertBid {
                item,
                at: rng.range(0, bids),
                bid: random_bid(rng, self.people),
            },
        }
    }

    /// Applies an edit to the model.
    pub fn apply(&mut self, edit: &Edit) {
        match edit {
            Edit::InsertBid { item, at, bid } => self.items[*item].bids.insert(*at, bid.clone()),
            Edit::SetIncrease {
                item,
                bid,
                increase,
            } => self.items[*item].bids[*bid].increase = *increase,
            Edit::RemoveBid { item, bid } => {
                self.items[*item].bids.remove(*bid);
            }
        }
    }
}

impl Bid {
    pub fn to_xml(&self) -> String {
        format!(
            "<bid person=\"person{}\" increase=\"{}\"/>",
            self.person, self.increase
        )
    }
}

fn random_bid(rng: &mut Rng, people: usize) -> Bid {
    Bid {
        person: rng.below(people),
        increase: rng.range(1, MAX_INCREASE) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_matches_the_parsed_document() {
        let mut rng = Rng::new(7);
        for items in [1, 25, 50, 80] {
            let a = Auction::generate(&mut rng, items, format!("t{items}"));
            let doc = xpeval_dom::parse_xml(&a.to_xml()).expect("generated XML parses");
            assert_eq!(doc.len(), a.node_count(), "{items} items");
        }
    }

    #[test]
    fn edits_keep_the_model_consistent() {
        let mut rng = Rng::new(3);
        let mut a = Auction::generate(&mut rng, 10, "e".into());
        for _ in 0..200 {
            let before = a.bid_count();
            let edit = a.random_edit(&mut rng);
            a.apply(&edit);
            let expected = match edit {
                Edit::InsertBid { .. } => before + 1,
                Edit::SetIncrease { .. } => before,
                Edit::RemoveBid { .. } => before - 1,
            };
            assert_eq!(a.bid_count(), expected);
        }
    }
}
