//! Deterministic "shape" checks of the complexity claims, using the
//! evaluators' work counters instead of wall-clock time so they are stable
//! under CI load.
//!
//! * combined complexity: naive work grows geometrically on the blow-up
//!   family, context-value-table work grows linearly (paper Section 1 /
//!   Proposition 2.7) — experiment E2;
//! * data complexity: for a fixed query, the DP evaluator's table size grows
//!   linearly in |D| (Theorem 7.2) — experiment E10;
//! * query complexity: for a fixed document, the DP evaluator's work grows
//!   linearly in |Q| for PF chains (Theorem 7.3) — experiment E11;
//! * membership cost: the Singleton-Success checker (Lemma 5.4, Theorem
//!   5.5) and its parallel fan-out apply steps in proportion to |D| on
//!   pXPath filters, not in proportion to |D|² (one document scan per
//!   candidate);
//! * context-value tables keyed by what an op reads: a context-free
//!   comparison operand is computed once per run, not once per context, and
//!   `following`/`preceding` steps from a node set apply the axis once.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xpeval::engine::{DpEvaluator, NaiveEvaluator};
use xpeval::prelude::*;
use xpeval::workloads::{
    auction_site_document, blowup_document, blowup_query, oscillating_query, random_tree_document,
};

#[test]
fn naive_work_is_geometric_and_dp_work_is_linear() {
    let fan_out = 3usize;
    let doc = blowup_document(fan_out);
    let mut naive_lists = Vec::new();
    let mut dp_work = Vec::new();
    for reps in 1..=6 {
        let query = blowup_query(reps);
        let mut naive = NaiveEvaluator::new(&doc);
        naive.evaluate(&query).unwrap();
        naive_lists.push(naive.stats().max_intermediate_list);
        let mut dp = DpEvaluator::new(&doc, &query);
        dp.evaluate().unwrap();
        dp_work.push(dp.stats().step_context_evaluations);
    }
    // Naive: the intermediate list multiplies by the fan-out each repetition
    // (from repetition 2 onwards, once the k^m term dominates).
    for w in naive_lists.windows(2).skip(1) {
        assert_eq!(w[1], w[0] * fan_out, "naive lists: {naive_lists:?}");
    }
    // DP: constant extra work per repetition.
    let deltas: Vec<u64> = dp_work.windows(2).map(|w| w[1] - w[0]).collect();
    for d in &deltas {
        assert_eq!(*d, deltas[0], "dp work increments: {deltas:?}");
    }
    assert!(deltas[0] as usize <= 2 * fan_out + 2);
}

#[test]
fn data_complexity_tables_grow_linearly_in_document_size() {
    let query = xpeval::syntax::parse_query("//a[descendant::c and not(child::b)]").unwrap();
    let mut entries = Vec::new();
    let sizes = [200usize, 400, 800];
    for &nodes in &sizes {
        let doc = random_tree_document(&mut StdRng::seed_from_u64(10), nodes, &["a", "b", "c"]);
        let mut dp = DpEvaluator::new(&doc, &query);
        dp.evaluate().unwrap();
        entries.push(dp.table_entries());
    }
    // Doubling the document should roughly double the number of table
    // entries; allow generous slack (factor in [1.3, 3]).
    for w in entries.windows(2) {
        let ratio = w[1] as f64 / w[0] as f64;
        assert!(ratio > 1.3 && ratio < 3.0, "table growth {entries:?}");
    }
}

#[test]
fn query_complexity_work_grows_linearly_in_query_size() {
    let doc = random_tree_document(&mut StdRng::seed_from_u64(11), 300, &["a", "b", "c"]);
    let mut work = Vec::new();
    let lens = [8usize, 16, 32, 64];
    for &len in &lens {
        let query = oscillating_query(len);
        let mut dp = DpEvaluator::new(&doc, &query);
        dp.evaluate().unwrap();
        work.push(dp.stats().step_context_evaluations as f64);
    }
    // Doubling |Q| should scale the work by roughly 2 (within [1.2, 3.5]).
    for w in work.windows(2) {
        let ratio = w[1] / w[0];
        assert!(ratio > 1.2 && ratio < 3.5, "work growth {work:?}");
    }
}

#[test]
fn memoization_beats_naive_on_every_blowup_instance() {
    let doc = blowup_document(4);
    for reps in 3..=7 {
        let query = blowup_query(reps);
        let mut naive = NaiveEvaluator::new(&doc);
        naive.evaluate(&query).unwrap();
        let mut dp = DpEvaluator::new(&doc, &query);
        dp.evaluate().unwrap();
        assert!(
            dp.stats().step_context_evaluations < naive.stats().step_context_evaluations,
            "reps={reps}"
        );
    }
}

#[test]
fn singleton_success_step_work_grows_linearly_in_document_size() {
    let bindings = Bindings::new()
        .with_string("id", "item3")
        .with_number("x", 6.0);
    let queries = [
        "//item[@id = $id]/name",
        "//bid[@increase = $x]/../name",
        "/descendant::bid/preceding::seller",
    ];
    let docs: Vec<Document> = [40usize, 80]
        .iter()
        .map(|&items| auction_site_document(&mut StdRng::seed_from_u64(3), items))
        .collect();
    let prepared: Vec<PreparedDocument> = docs
        .iter()
        .map(|doc| PreparedDocument::new(doc.clone()))
        .collect();
    for query in queries {
        for strategy in [
            EvalStrategy::SingletonSuccess,
            EvalStrategy::Parallel { threads: 2 },
        ] {
            let plan = CompiledQuery::compile(query)
                .unwrap()
                .with_strategy(strategy);
            let plain: Vec<u64> = docs
                .iter()
                .map(|doc| plan.run_bound(doc, &bindings).unwrap())
                .map(|out| out.stats.step_context_evaluations)
                .collect();
            let indexed: Vec<u64> = prepared
                .iter()
                .map(|doc| plan.run_prepared_bound(doc, &bindings).unwrap())
                .map(|out| out.stats.step_context_evaluations)
                .collect();
            for work in [plain, indexed] {
                let ratio = work[1] as f64 / work[0] as f64;
                assert!(
                    work[0] > 0 && ratio <= 2.5,
                    "{query} via {strategy:?}: step work {work:?} grew {ratio:.2}x \
                     when the document doubled"
                );
            }
        }
    }
}

#[test]
fn context_value_table_work_grows_linearly_on_context_free_operands() {
    let docs: Vec<Document> = [60usize, 120]
        .iter()
        .map(|&items| auction_site_document(&mut StdRng::seed_from_u64(5), items))
        .collect();
    let prepared: Vec<PreparedDocument> = docs
        .iter()
        .map(|doc| PreparedDocument::new(doc.clone()))
        .collect();
    // The right-hand operand does not depend on the person or bid being
    // filtered: one table row, not one per context node.
    for query in [
        "//person[not(@id = //seller/@person)]",
        "count(//bid[@person = //seller/@person])",
    ] {
        let plan = CompiledQuery::compile(query)
            .unwrap()
            .with_strategy(EvalStrategy::ContextValueTable);
        let plain: Vec<u64> = docs
            .iter()
            .map(|doc| plan.run(doc).unwrap().stats.step_context_evaluations)
            .collect();
        let indexed: Vec<u64> = prepared
            .iter()
            .map(|doc| {
                plan.run_prepared(doc)
                    .unwrap()
                    .stats
                    .step_context_evaluations
            })
            .collect();
        for work in [plain, indexed] {
            let ratio = work[1] as f64 / work[0] as f64;
            assert!(
                work[0] > 0 && ratio <= 2.5,
                "{query}: step work {work:?} grew {ratio:.2}x when the document doubled"
            );
        }
    }
    // A wide-axis step from a node set is one axis application, not one
    // per context node.
    for query in [
        "/descendant::seller/following::bid",
        "/descendant::bid/preceding::seller",
    ] {
        let plan = CompiledQuery::compile(query)
            .unwrap()
            .with_strategy(EvalStrategy::ContextValueTable);
        for (doc, fast) in docs.iter().zip(&prepared) {
            let plain = plan.run(doc).unwrap();
            let indexed = plan.run_prepared(fast).unwrap();
            assert_eq!(plain.value, indexed.value, "{query}");
            assert!(!plain.value.expect_nodes().is_empty(), "{query}");
            for stats in [plain.stats, indexed.stats] {
                assert!(
                    stats.step_context_evaluations <= 2,
                    "{query}: {} step applications for 2 location steps",
                    stats.step_context_evaluations
                );
            }
        }
    }
}
