//! The benchmark's own tests: deterministic inputs, model answers checked
//! by hand on a small document, and an oracle that rejects wrong answers.

use crate::model::{Answer, Auction, Bid, Ent, Item};
use crate::oracle::{check, Expect, Index};
use crate::rng::Rng;
use crate::workloads::{AnswerFn, Workload, EDIT_READS, FILTER, LOOKUP};
use std::sync::Arc;
use xpeval_catalog::Catalog;
use xpeval_core::Value;
use xpeval_dom::{parse_xml, NodeId};

/// Three items, two of the six regions used, three people.
fn small() -> Auction {
    let bid = |person, increase| Bid { person, increase };
    Auction {
        label: "t".into(),
        people: 3,
        items: vec![
            Item {
                id: 1,
                region: 0,
                seller: 2,
                bids: vec![bid(0, 5), bid(1, 12)],
            },
            Item {
                id: 0,
                region: 0,
                seller: 0,
                bids: vec![],
            },
            Item {
                id: 2,
                region: 3,
                seller: 2,
                bids: vec![bid(2, 3), bid(1, 7), bid(0, 4)],
            },
        ],
    }
}

const SMALL_XML: &str = "<site><regions>\
<africa>\
<item id=\"item1\"><name>t item 1</name><seller person=\"person2\"/>\
<bid person=\"person0\" increase=\"5\"/><bid person=\"person1\" increase=\"12\"/></item>\
<item id=\"item0\"><name>t item 0</name><seller person=\"person0\"/></item>\
</africa><asia></asia><australia></australia>\
<europe>\
<item id=\"item2\"><name>t item 2</name><seller person=\"person2\"/>\
<bid person=\"person2\" increase=\"3\"/><bid person=\"person1\" increase=\"7\"/>\
<bid person=\"person0\" increase=\"4\"/></item>\
</europe><namerica></namerica><samerica></samerica></regions>\
<people><person id=\"person0\"><name>t person 0</name></person>\
<person id=\"person1\"><name>t person 1</name></person>\
<person id=\"person2\"><name>t person 2</name></person></people></site>";

fn answer_of(templates: &[(&str, AnswerFn)], text: &str, m: &Auction) -> Answer {
    let (_, f) = templates
        .iter()
        .find(|(t, _)| *t == text)
        .unwrap_or_else(|| panic!("no template {text}"));
    f(m)
}

/// FNV-1a, to pin generated bytes without storing them.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn the_generator_is_byte_identical_for_a_seed() {
    for w in [Workload::Lookup, Workload::Filter, Workload::EditMix] {
        let a: Vec<String> = w.corpus(7).iter().map(|(_, m)| m.to_xml()).collect();
        let b: Vec<String> = w.corpus(7).iter().map(|(_, m)| m.to_xml()).collect();
        let c: Vec<String> = w.corpus(8).iter().map(|(_, m)| m.to_xml()).collect();
        assert_eq!(a, b, "{w:?}");
        assert_ne!(a, c, "{w:?}");
    }
    // Pinned, so a change to the generator shows as a change of inputs.
    let xml = Workload::Filter.corpus(7)[0].1.to_xml();
    assert_eq!(
        (xml.len(), fnv(xml.as_bytes())),
        (5260, 0x203d_a829_f749_2f28)
    );
}

#[test]
fn lookup_documents_are_pairwise_distinct() {
    let corpus = Workload::Lookup.corpus(3);
    let mut xml: Vec<String> = corpus.iter().map(|(_, m)| m.to_xml()).collect();
    xml.sort();
    xml.dedup();
    assert_eq!(xml.len(), corpus.len());
}

#[test]
fn the_small_document_prints_as_written() {
    assert_eq!(small().to_xml(), SMALL_XML);
    let doc = parse_xml(SMALL_XML).expect("parses");
    assert_eq!(doc.len(), small().node_count());
}

#[test]
fn model_answers_match_the_hand_checked_document() {
    let m = small();
    let cases: Vec<(Answer, Answer)> = vec![
        (
            answer_of(&LOOKUP, "//item[not(bid)]/name", &m),
            Answer::Nodes(vec![Ent::ItemName(1)]),
        ),
        (
            answer_of(&LOOKUP, "//bid[not(following-sibling::bid)]", &m),
            Answer::Nodes(vec![Ent::Bid(0, 1), Ent::Bid(2, 2)]),
        ),
        (
            answer_of(&LOOKUP, "//seller/ancestor::*", &m),
            Answer::Nodes(vec![
                Ent::Site,
                Ent::Regions,
                Ent::Region(0),
                Ent::Region(3),
                Ent::Item(0),
                Ent::Item(1),
                Ent::Item(2),
            ]),
        ),
        (
            answer_of(&LOOKUP, "/site/regions/*[item/bid]", &m),
            Answer::Nodes(vec![Ent::Region(0), Ent::Region(3)]),
        ),
        (
            answer_of(
                &LOOKUP,
                "/site/people/person[not(following-sibling::person)]/name",
                &m,
            ),
            Answer::Nodes(vec![Ent::PersonName(2)]),
        ),
        (
            answer_of(&EDIT_READS, "count(/descendant::seller/following::bid)", &m),
            Answer::Number(5.0),
        ),
        (
            answer_of(&EDIT_READS, "count(/descendant::bid/preceding::seller)", &m),
            Answer::Number(3.0),
        ),
        (
            answer_of(&EDIT_READS, "//person[not(@id = //seller/@person)]", &m),
            Answer::Nodes(vec![Ent::Person(1)]),
        ),
        (
            answer_of(&EDIT_READS, "sum(//bid/@increase)", &m),
            Answer::Number(31.0),
        ),
        (
            answer_of(&EDIT_READS, "//item[count(bid) > 2][last()]/name", &m),
            Answer::Nodes(vec![Ent::ItemName(2)]),
        ),
        (
            answer_of(&EDIT_READS, "count(//item[bid/@increase > 10])", &m),
            Answer::Number(1.0),
        ),
        (
            answer_of(&EDIT_READS, "count(//bid[@person = //seller/@person])", &m),
            Answer::Number(3.0),
        ),
        // `position() = last() - $k` with k = 0 and k = 1, per region.
        (
            m.per_region(
                |_| true,
                |v| v.len().checked_sub(1).map(|j| v[j]),
                Ent::ItemName,
            ),
            Answer::Nodes(vec![Ent::ItemName(1), Ent::ItemName(2)]),
        ),
        (
            m.per_region(
                |_| true,
                |v| v.len().checked_sub(2).map(|j| v[j]),
                Ent::ItemName,
            ),
            Answer::Nodes(vec![Ent::ItemName(0)]),
        ),
    ];
    for (i, (got, want)) in cases.iter().enumerate() {
        assert_eq!(got, want, "case {i}");
    }

    // The index resolves model names to the nodes they name.
    let doc = parse_xml(SMALL_XML).expect("parses");
    let index = Index::build(&doc, &m).expect("the document matches its model");
    let Expect::Nodes(ids) = index.expect(
        &doc,
        &Answer::Nodes(vec![Ent::ItemName(2), Ent::ItemName(1)]),
    ) else {
        panic!("node answer expected");
    };
    let texts: Vec<String> = ids.iter().map(|&n| doc.string_value(n)).collect();
    assert_eq!(texts, ["t item 0", "t item 2"], "document order");
}

#[test]
fn the_oracle_rejects_wrong_answers() {
    let (a, b) = (NodeId::from_index(3), NodeId::from_index(7));
    let nodes = Expect::Nodes(Arc::from(vec![a, b]));
    assert!(check(&nodes, &Value::NodeSet(vec![a, b])).is_ok());
    assert!(check(&nodes, &Value::NodeSet(vec![a])).is_err());
    assert!(check(&nodes, &Value::NodeSet(vec![b, a])).is_err());
    assert!(check(&nodes, &Value::NodeSet(vec![a, b, b])).is_err());
    assert!(check(&nodes, &Value::Number(2.0)).is_err());
    assert!(check(&Expect::Number(31.0), &Value::Number(31.0)).is_ok());
    assert!(check(&Expect::Number(31.0), &Value::Number(30.0)).is_err());
    assert!(check(&Expect::Number(31.0), &Value::Str("31".into())).is_err());
    assert!(check(&Expect::Written, &Value::Number(0.0)).is_err());
}

#[test]
fn the_index_rejects_a_document_that_differs_from_its_model() {
    let doc = parse_xml(SMALL_XML).expect("parses");
    let mut m = small();
    m.items[2].bids[1].increase = 8;
    assert!(Index::build(&doc, &m).is_err());
    let mut m = small();
    m.items[1].bids.push(Bid {
        person: 0,
        increase: 1,
    });
    assert!(Index::build(&doc, &m).is_err());
}

/// Every template's model answer agrees with the program on small
/// generated documents — the property the benchmark checks on every
/// request, here on inputs small enough for a debug build.
#[test]
fn the_program_agrees_with_the_model_on_every_template() {
    let mut rng = Rng::new(11);
    let catalog = Catalog::new();
    let mut docs = vec![("small".to_string(), small())];
    for d in 0..3 {
        docs.push((
            format!("g{d}"),
            Auction::generate(&mut rng, 12, format!("g{d}")),
        ));
    }
    for (name, m) in &docs {
        catalog
            .insert_xml(name, &m.to_xml())
            .expect("generated XML parses");
    }
    for (name, m) in &docs {
        let prepared = catalog.get(name).expect("inserted");
        let index = Index::build(prepared.document(), m).expect("document matches model");
        let verify = |text: &str, answer: &Answer, value: &Value| {
            let expect = index.expect(prepared.document(), answer);
            check(&expect, value).unwrap_or_else(|e| panic!("{name}: {text}: {e}"));
        };
        for (text, answer) in LOOKUP.iter().chain(EDIT_READS.iter()) {
            let out = catalog.evaluate_on(name, text).expect("evaluates");
            verify(text, &answer(m), &out.value);
        }
        for (text, template) in FILTER {
            for _ in 0..4 {
                let (bindings, answer) = template(m, &mut rng);
                let out = catalog
                    .evaluate_on_bound(name, text, &bindings)
                    .expect("evaluates");
                verify(text, &answer, &out.value);
            }
        }
    }
}
