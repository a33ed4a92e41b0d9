//! Cross-evaluator agreement: every evaluation strategy implements the same
//! XPath semantics on the fragments it supports.
//!
//! This is the central integration invariant of the reproduction — the
//! complexity results only make sense if the linear Core XPath evaluator,
//! the context-value-table evaluator, the naive baseline, the
//! Singleton-Success checker and the parallel evaluator all agree.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xpeval::engine::{
    Context, CoreXPathEvaluator, DpEvaluator, NaiveEvaluator, ParallelEvaluator, SingletonSuccess,
};
use xpeval::prelude::*;
use xpeval::workloads::{
    auction_site_document, core_xpath_query_corpus, pwf_query_corpus, random_core_query,
    random_pf_query, random_tree_document, wide_document,
};

fn dp_nodes<S: AxisSource + ?Sized>(src: &S, query: &Expr) -> Vec<NodeId> {
    DpEvaluator::new(src, query)
        .evaluate()
        .unwrap()
        .into_nodes()
        .unwrap()
}

const ALL_STRATEGIES: [EvalStrategy; 5] = [
    EvalStrategy::ContextValueTable,
    EvalStrategy::Naive,
    EvalStrategy::CoreXPathLinear,
    EvalStrategy::Parallel { threads: 2 },
    EvalStrategy::SingletonSuccess,
];

/// The pre-IR evaluation path: the public AST-walking evaluator behind each
/// strategy, invoked directly on the expression tree.
fn ast_walk(doc: &Document, query: &Expr, strategy: EvalStrategy) -> Result<Value, EvalError> {
    match strategy {
        EvalStrategy::ContextValueTable => DpEvaluator::new(doc, query).evaluate(),
        EvalStrategy::Naive => NaiveEvaluator::new(doc).evaluate(query),
        EvalStrategy::CoreXPathLinear => CoreXPathEvaluator::new(doc)
            .evaluate_query(query)
            .map(Value::NodeSet),
        EvalStrategy::Parallel { threads } => ParallelEvaluator::new(doc, threads).evaluate(query),
        EvalStrategy::SingletonSuccess => SingletonSuccess::new(doc, query)
            .and_then(|ss| ss.node_set(Context::root(doc)).map(Value::NodeSet)),
    }
}

/// Lowering must be semantics-preserving *per strategy*: for every query and
/// every strategy, the [`CompiledQuery`] path (lower to [`PlanIr`], execute
/// the flat program) and the AST walk either produce the same value or
/// reject the query in the same way (a strategy that refuses a fragment on
/// the AST must refuse its lowering too).
fn assert_ir_matches_ast_walk(doc: &Document, prepared: &PreparedDocument, query: &Expr) {
    for strategy in ALL_STRATEGIES {
        let compiled = CompiledQuery::from_expr(query.clone()).with_strategy(strategy);
        let via_ir = compiled.run(doc).map(|out| out.value);
        let via_prepared = compiled.run_prepared(prepared).map(|out| out.value);
        let ast = ast_walk(doc, query, strategy);
        match (via_ir, via_prepared, ast) {
            (Ok(ir), Ok(pir), Ok(ast)) => {
                assert_eq!(ir, ast, "{} via {strategy:?}", compiled.source());
                assert_eq!(pir, ast, "{} prepared via {strategy:?}", compiled.source());
            }
            (Err(_), Err(_), Err(_)) => {}
            (ir, pir, ast) => panic!(
                "lowering/AST divergence on {} via {strategy:?}: ir={ir:?} prepared={pir:?} ast={ast:?}",
                compiled.source()
            ),
        }
    }
}

/// Lowering→eval ≡ AST walk across all five strategies × both query
/// corpora, on the auction workload and a random tree (direct and prepared
/// sources both dispatch through the IR).
#[test]
fn lowered_ir_matches_ast_walk_on_both_corpora() {
    let docs = [
        auction_site_document(&mut StdRng::seed_from_u64(7), 20),
        random_tree_document(
            &mut StdRng::seed_from_u64(8),
            200,
            &["site", "item", "bid", "name", "a", "b"],
        ),
    ];
    let corpus: Vec<_> = core_xpath_query_corpus()
        .into_iter()
        .chain(pwf_query_corpus())
        .collect();
    for doc in &docs {
        let prepared = PreparedDocument::new(doc.clone());
        for (_, query) in &corpus {
            assert_ir_matches_ast_walk(doc, &prepared, query);
        }
    }
}

#[test]
fn corpus_agreement_on_core_xpath_queries() {
    let docs = vec![
        wide_document(40, 4),
        random_tree_document(
            &mut StdRng::seed_from_u64(1),
            300,
            &["a", "b", "c", "d", "root"],
        ),
    ];
    for doc in &docs {
        for (name, query) in core_xpath_query_corpus() {
            let dp = dp_nodes(doc, &query);
            let naive = NaiveEvaluator::new(doc)
                .evaluate(&query)
                .unwrap()
                .into_nodes()
                .unwrap();
            let linear = CoreXPathEvaluator::new(doc).evaluate_query(&query).unwrap();
            assert_eq!(dp, naive, "naive disagrees on {name}");
            assert_eq!(dp, linear, "linear evaluator disagrees on {name}");
        }
    }
}

#[test]
fn corpus_agreement_on_pwf_queries() {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(2), 40);
    let ctx = Context::root(&doc);
    for (name, query) in pwf_query_corpus() {
        let dp = dp_nodes(&doc, &query);
        let ss = SingletonSuccess::new(&doc, &query)
            .unwrap()
            .node_set(ctx)
            .unwrap();
        let par = ParallelEvaluator::new(&doc, 3)
            .evaluate(&query)
            .unwrap()
            .into_nodes()
            .unwrap();
        assert_eq!(dp, ss, "singleton-success disagrees on {name}");
        assert_eq!(dp, par, "parallel evaluator disagrees on {name}");
    }
}

#[test]
fn engine_facade_strategies_agree() {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(3), 25);
    let query = parse_query("//item[child::bid]/name").unwrap();
    let reference = Engine::new(EvalStrategy::ContextValueTable)
        .evaluate(&doc, &query)
        .unwrap();
    for strategy in [
        EvalStrategy::Naive,
        EvalStrategy::CoreXPathLinear,
        EvalStrategy::SingletonSuccess,
        EvalStrategy::Parallel { threads: 4 },
    ] {
        let got = Engine::new(strategy).evaluate(&doc, &query).unwrap();
        assert_eq!(got, reference, "{strategy:?}");
    }
}

/// Node-set operators (`union`/`intersect`/`except`) and node comparisons
/// (`is`/`<<`/`>>`) through every strategy: whoever accepts the query must
/// agree with the context-value-table reference, and node-set results come
/// back deduplicated in document order.
#[test]
fn set_operators_and_node_comparisons_agree() {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(11), 30);
    let prepared = PreparedDocument::new(doc.clone());
    for src in [
        "//name intersect //item/name",
        "//name except //item/name",
        "(//name | //bid) except //item/name",
        "//item[child::bid] intersect //item",
        "(//bid | //bid) | //bid",
        "//item << //item/name",
        "//name >> //item",
        "//item/name is //item/name",
        "//nosuch is //item",
    ] {
        let reference = CompiledQuery::compile(src)
            .unwrap()
            .with_strategy(EvalStrategy::ContextValueTable)
            .run(&doc)
            .unwrap()
            .value;
        if let Value::NodeSet(nodes) = &reference {
            assert!(
                nodes.windows(2).all(|w| w[0] < w[1]),
                "{src}: result not deduplicated in document order: {nodes:?}"
            );
        }
        let mut accepted = 1;
        for strategy in ALL_STRATEGIES {
            if strategy == EvalStrategy::ContextValueTable {
                continue;
            }
            let compiled = CompiledQuery::compile(src).unwrap().with_strategy(strategy);
            match (compiled.run(&doc), compiled.run_prepared(&prepared)) {
                (Ok(plain), Ok(fast)) => {
                    accepted += 1;
                    assert_eq!(plain.value, reference, "{src} via {strategy:?}");
                    assert_eq!(fast.value, reference, "{src} prepared via {strategy:?}");
                }
                (Err(_), Err(_)) => {} // a strategy may reject the fragment, consistently
                (plain, fast) => panic!(
                    "{src} via {strategy:?}: direct and prepared disagree on acceptance: {plain:?} vs {fast:?}"
                ),
            }
        }
        assert!(accepted >= 2, "{src}: only the reference strategy accepted");
    }
}

/// Registered functions through every strategy that admits them: a
/// core-safe registration must evaluate identically under the DP
/// reference, the naive baseline, Singleton-Success and the parallel
/// evaluator.
#[test]
fn registered_functions_agree_across_strategies() {
    use std::sync::Arc;

    let mut registry = FunctionRegistry::new();
    registry.register(
        FunctionSignature::new("double", 1, Some(1))
            .returns_number()
            .impact(FragmentImpact::CoreSafe),
        |args, _, doc| Ok(Value::Number(args[0].to_number(doc) * 2.0)),
    );
    let registry = Arc::new(registry);
    let doc = auction_site_document(&mut StdRng::seed_from_u64(12), 25);
    let prepared = PreparedDocument::new(doc.clone());
    for src in ["//bid[double(@increase) = 6]", "double(count(//bid))"] {
        let compiled = CompiledQuery::compile_with_registry(src, registry.clone()).unwrap();
        let reference = compiled
            .clone()
            .with_strategy(EvalStrategy::ContextValueTable)
            .run(&doc)
            .unwrap()
            .value;
        for strategy in [
            EvalStrategy::Naive,
            EvalStrategy::SingletonSuccess,
            EvalStrategy::Parallel { threads: 2 },
        ] {
            let q = compiled.clone().with_strategy(strategy);
            match (q.run(&doc), q.run_prepared(&prepared)) {
                (Ok(plain), Ok(fast)) => {
                    assert_eq!(plain.value, reference, "{src} via {strategy:?}");
                    assert_eq!(fast.value, reference, "{src} prepared via {strategy:?}");
                }
                (Err(_), Err(_)) => {}
                (plain, fast) => {
                    panic!("{src} via {strategy:?}: acceptance divergence: {plain:?} vs {fast:?}")
                }
            }
        }
    }
}

/// Bound variables through every strategy: one compilation, one binding
/// set, identical answers — and the eager unbound-variable error on every
/// bound entry point when a referenced name is missing.
#[test]
fn bound_variables_agree_across_strategies() {
    let doc = auction_site_document(&mut StdRng::seed_from_u64(13), 25);
    let prepared = PreparedDocument::new(doc.clone());
    let compiled = CompiledQuery::compile("//bid[@increase = $inc]").unwrap();
    assert_eq!(compiled.variables(), ["inc".to_string()]);
    let bindings = Bindings::new().with_number("inc", 3.0);
    let reference = compiled
        .clone()
        .with_strategy(EvalStrategy::ContextValueTable)
        .run_bound(&doc, &bindings)
        .unwrap()
        .value;
    for strategy in ALL_STRATEGIES {
        let q = compiled.clone().with_strategy(strategy);
        match (
            q.run_bound(&doc, &bindings),
            q.run_prepared_bound(&prepared, &bindings),
        ) {
            (Ok(plain), Ok(fast)) => {
                assert_eq!(plain.value, reference, "bound via {strategy:?}");
                assert_eq!(fast.value, reference, "bound prepared via {strategy:?}");
            }
            (Err(_), Err(_)) => {}
            (plain, fast) => {
                panic!("bound via {strategy:?}: acceptance divergence: {plain:?} vs {fast:?}")
            }
        }
        // A missing binding is an eager, named error under every strategy.
        let err = q.run_bound(&doc, &Bindings::new()).unwrap_err();
        assert!(
            matches!(&err, EvalError::UnboundVariable { name } if name == "inc"),
            "{strategy:?}: {err:?}"
        );
    }
}

/// Edge cases of the goal-directed Singleton-Success walk, which answers
/// membership backwards through inverse axes: attribute nodes as step
/// contexts (where `child`, `descendant` and `following` are not the plain
/// inverses of `parent`, `ancestor` and `preceding`), nested relative
/// predicates, positional picks next to position-free predicates, set
/// operators and registered calls inside predicates, and the wide axes that
/// fall back to the forward walk.  Every strategy that admits a query must
/// return the naive strategy's answer under the same bindings, on plain and
/// prepared sources; Singleton-Success and the parallel evaluator must admit
/// every query here.
#[test]
fn backward_membership_edge_cases_agree_with_the_naive_oracle() {
    use std::sync::Arc;

    let mut registry = FunctionRegistry::new();
    registry.register(
        FunctionSignature::new("double", 1, Some(1))
            .returns_number()
            .impact(FragmentImpact::CoreSafe),
        |args, _, doc| Ok(Value::Number(args[0].to_number(doc) * 2.0)),
    );
    let registry = Arc::new(registry);
    let bindings = Bindings::new()
        .with_number("x", 6.0)
        .with_number("y", 12.0)
        .with_number("k", 2.0)
        .with_string("p", "person3")
        .with_string("id", "item4");
    let corpus = [
        // `..` and `parent::node()` from attribute nodes.
        "//@increase/..",
        "//item/@id/parent::node()",
        "//bid/@increase/../..",
        "//@id[. = $id]/../name",
        "//seller/@person[. = $p]/parent::seller/../name",
        // `descendant-or-self::node()` and `self::` from attribute contexts.
        "//@increase/descendant-or-self::node()",
        "//item/@id/self::node()",
        "//item/@id/self::*",
        "//bid/@increase/self::node()[. = $x]",
        "//@person/descendant-or-self::node()/..",
        "//item/@id/descendant::node()",
        "//item/@id/child::node()",
        // Nested relative predicates.
        "//item[seller[@person = $p]]/name",
        "//item[bid[@increase > $x]]/name",
        "//item[bid[@increase > $x] and seller[@person = $p]]/name",
        "/site/regions/*[item[seller[@person = $p]]]",
        // Positional picks mixed with position-free predicates.
        "/site/regions/*/item[2]/bid[@increase >= $x]",
        "/site/regions/*/item[position() = $k]/seller[@person != $p]/..",
        "//item[bid/@increase > $x]/bid[last()]",
        "/site/regions/*[item/bid]/item[$k]/name",
        "//item[name and position() = 1]/name",
        "//bid[position() = last() - 1]/@increase",
        // Set operators inside predicates.
        "//item[bid/@person | seller/@person = $p]/name",
        "//item[bid intersect bid[@increase > $x]]/name",
        "//item[bid except bid[@increase > $x]]/name",
        "//item[(bid | seller) except seller]/@id",
        // Registered function calls.
        "//bid[double(@increase) = $y]/..",
        "//item[double(bid[last()]/@increase) > $y]/name",
        // Wide axes: forward walk with interval tests.
        "//@increase/following::seller",
        "//@id/preceding::bid",
        "//seller[@person = $p]/following-sibling::bid",
        "//bid[@increase = $x]/preceding-sibling::*",
        "//@person/ancestor::item/name",
        "//@increase/ancestor-or-self::node()",
        "//bid/following::item[1]/name",
        "//name/preceding::item[@id = $id]",
    ];
    let doc = auction_site_document(&mut StdRng::seed_from_u64(14), 30);
    let prepared = PreparedDocument::new(doc.clone());
    for src in corpus {
        let compiled = CompiledQuery::compile_with_registry(src, registry.clone())
            .unwrap_or_else(|e| panic!("{src}: {e:?}"));
        let oracle = compiled
            .clone()
            .with_strategy(EvalStrategy::Naive)
            .run_bound(&doc, &bindings)
            .unwrap_or_else(|e| panic!("{src} via the oracle: {e:?}"))
            .value;
        for strategy in ALL_STRATEGIES {
            let q = compiled.clone().with_strategy(strategy);
            match (
                q.run_bound(&doc, &bindings),
                q.run_prepared_bound(&prepared, &bindings),
            ) {
                (Ok(plain), Ok(fast)) => {
                    assert_eq!(plain.value, oracle, "{src} via {strategy:?}");
                    assert_eq!(fast.value, oracle, "{src} prepared via {strategy:?}");
                }
                (Err(EvalError::UnsupportedFragment { .. }), Err(_))
                    if strategy == EvalStrategy::CoreXPathLinear => {}
                (plain, fast) => panic!("{src} via {strategy:?}: {plain:?} vs {fast:?}"),
            }
        }
    }
}

/// Edge cases of the context-value tables keyed by what an op reads:
/// general comparisons between a context-free node set and a per-context
/// one (every operator, both operand orders, empty sides, NaN strings,
/// one-valued sides for `!=`), context-free operands with relative
/// predicates and `$vars` inside, context-reading calls inside paths that
/// look context-free, and `following`/`preceding` steps from nested
/// context sets, attribute sets and the root, with and without predicates
/// that read the position.  Every strategy that admits a query must return
/// the naive strategy's answer under the same bindings, on plain and
/// prepared sources; the context-value table must admit every query.
#[test]
fn context_free_operands_and_wide_steps_agree_with_the_naive_oracle() {
    const XML: &str = r#"<site>
        <people>
          <person id="p1"><name>Ann</name><age>30</age></person>
          <person id="p2"><name>Bob</name><age>x</age></person>
          <person id="p3"><name>Cy</name><age/></person>
          <person id="p4"><name>Di</name><age>45</age></person>
        </people>
        <items>
          <item id="i1"><seller person="p1"/><bid person="p2" increase="3"/><bid person="p3" increase="9"/><limit>10</limit></item>
          <item id="i2"><seller person="p2"/><bid person="p1" increase="x"/>
            <item id="i2a"><seller person="p2"/><bid person="p4" increase="12"/><limit>40</limit></item>
            <limit>NaN</limit>
          </item>
          <item id="i3"><seller person="p9"/><limit>45</limit></item>
        </items>
        <only>7</only><same>7</same><same>7</same>
      </site>"#;
    let bindings = Bindings::new()
        .with_number("x", 5.0)
        .with_number("age", 35.0)
        .with_number("k", 2.0)
        .with_string("item", "i2");
    let mut corpus: Vec<String> = Vec::new();
    for op in ["=", "!=", "<", "<=", ">", ">="] {
        for (per_context, free) in [
            ("@id", "//seller/@person"),
            ("age", "//limit"),
            ("@increase", "//item/limit"),
            ("@id", "//nosuch"),
            ("@nosuch", "//seller/@person"),
            ("age", "//only"),
            ("age", "//same"),
            ("name", "//person/age"),
            (".", "//only"),
        ] {
            corpus.push(format!("//*[{per_context} {op} {free}]"));
            corpus.push(format!("//*[{free} {op} {per_context}]"));
        }
        corpus.push(format!("//item[limit {op} //only]/@id"));
        corpus.push(format!("//item[//same {op} limit]/@id"));
    }
    corpus.extend(
        [
            // Context-free operands with relative predicates and variables.
            "//person[@id = //seller[../bid/@increase > $x]/@person]",
            "//person[@id = //item[@id = $item]//bid/@person]/name",
            "//bid[@person = //person[age > $age]/@id]/..",
            "//item[limit > count(//person[age > $age])]/@id",
            "//person[not(@id = //seller/@person)]",
            "count(//bid[@person = //seller/@person])",
            "//person[@id = //bid[@increase >= $x]/@person or age = //limit]",
            // Context-reading calls inside paths that look context-free.
            "//name[string() = //person/name]",
            "//age[string() = //only]",
            "//person[last() = count(//item)]",
            "//item[last() = count(//seller)]/@id",
            "//item[last() = count(//item/item)]/@id",
            "//age[position() = count(//only)]",
            "//*[name() = name(//person)]",
            "//*[local-name() = 'age']",
            "//name[string-length() > string-length(//only)]",
            "//age[number() > number(//only)]",
            "//name[normalize-space() = normalize-space(//person[2]/name)]",
            // Wide axes from nested context sets.
            "//item/following::bid",
            "//item[seller/@person = 'p2']/following::limit",
            "//item[seller/@person = 'p2']/following::*[@increase > 3]",
            "//item[seller/@person = 'p2']/preceding::*",
            "//item/preceding::person",
            "//item//seller/following::item/@id",
            "//item/preceding::bid/@increase",
            "//bid/following::limit",
            "//limit/preceding::seller",
            // ...from attribute sets (per-context loop).
            "//@person/following::bid",
            "//bid/@increase/preceding::seller",
            "//item/@id/following::limit",
            "//item[seller/@person = 'p2']/@id/following::limit",
            "//item[seller/@person = 'p2']/@id/preceding::*",
            // ...from the root.
            "/following::bid",
            "/preceding::*",
            "following::item",
            "/descendant-or-self::node()/following::age",
            "/descendant-or-self::node()/preceding::only",
            // ...with predicates that read the position, or not.
            "//seller/following::bid[1]",
            "//item/following::bid[last()]",
            "//bid/preceding::seller[1]",
            "//item/following::bid[position() = 2]",
            "//item/preceding::person[$k]",
            "//seller/following::bid[@increase > 5][1]",
            "//seller/following::bid[@increase > $x]",
            "//bid/preceding::person[@id = //seller/@person]",
            "//bid/following::*[self::limit or self::bid][@increase != 3]",
            "count(/descendant::seller/following::bid)",
            "count(/descendant::bid/preceding::seller)",
        ]
        .map(String::from),
    );
    let docs = [
        parse_xml(XML).unwrap(),
        auction_site_document(&mut StdRng::seed_from_u64(15), 24),
    ];
    for doc in docs {
        let prepared = PreparedDocument::new(doc.clone());
        for src in &corpus {
            let compiled = CompiledQuery::compile(src).unwrap_or_else(|e| panic!("{src}: {e:?}"));
            let oracle = compiled
                .clone()
                .with_strategy(EvalStrategy::Naive)
                .run_bound(&doc, &bindings)
                .unwrap_or_else(|e| panic!("{src} via the oracle: {e:?}"))
                .value;
            for strategy in ALL_STRATEGIES {
                let q = compiled.clone().with_strategy(strategy);
                match (
                    q.run_bound(&doc, &bindings),
                    q.run_prepared_bound(&prepared, &bindings),
                ) {
                    (Ok(plain), Ok(fast)) => {
                        assert_eq!(plain.value, oracle, "{src} via {strategy:?}");
                        assert_eq!(fast.value, oracle, "{src} prepared via {strategy:?}");
                    }
                    (
                        Err(EvalError::UnsupportedFragment { .. }),
                        Err(EvalError::UnsupportedFragment { .. }),
                    ) if strategy != EvalStrategy::ContextValueTable => {}
                    (plain, fast) => panic!("{src} via {strategy:?}: {plain:?} vs {fast:?}"),
                }
            }
        }
    }
}

/// The compile-time gate: unknown functions and arity mismatches never
/// reach a document.
#[test]
fn compile_time_call_validation() {
    assert!(matches!(
        CompiledQuery::compile("frobnicate(//a)").unwrap_err(),
        EvalError::UnknownFunction { .. }
    ));
    for bad in ["count(//a, //b)", "substring('x')", "//a[count()]"] {
        assert!(
            matches!(
                CompiledQuery::compile(bad).unwrap_err(),
                EvalError::WrongArity { .. }
            ),
            "{bad}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random PF queries over random documents: naive, DP and the linear
    /// evaluator agree.
    #[test]
    fn random_pf_queries_agree(seed in 0u64..5000, len in 1usize..7, nodes in 5usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c"]);
        let query = random_pf_query(&mut rng, len, &["a", "b", "c"]);
        let dp = dp_nodes(&doc, &query);
        let naive = NaiveEvaluator::new(&doc).evaluate(&query).unwrap().into_nodes().unwrap();
        let linear = CoreXPathEvaluator::new(&doc).evaluate_query(&query).unwrap();
        prop_assert_eq!(&dp, &naive);
        prop_assert_eq!(&dp, &linear);
    }

    /// Random Core XPath queries (with negation): DP and the linear
    /// evaluator agree.
    #[test]
    fn random_core_queries_agree(seed in 0u64..5000, depth in 0usize..4, nodes in 5usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c", "d"]);
        let query = random_core_query(&mut rng, depth, &["a", "b", "c", "d"]);
        let dp = dp_nodes(&doc, &query);
        let linear = CoreXPathEvaluator::new(&doc).evaluate_query(&query).unwrap();
        prop_assert_eq!(&dp, &linear);
    }

    /// Random pWF queries: the Singleton-Success checker and the parallel
    /// evaluator agree with the DP evaluator.
    #[test]
    fn random_pwf_queries_agree(seed in 0u64..5000, nodes in 5usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b"]);
        let query = xpeval::workloads::random_pwf_query(&mut rng, &["a", "b"]);
        let dp = dp_nodes(&doc, &query);
        let ctx = Context::root(&doc);
        let ss = SingletonSuccess::new(&doc, &query).unwrap().node_set(ctx).unwrap();
        let par = ParallelEvaluator::new(&doc, 2).evaluate(&query).unwrap().into_nodes().unwrap();
        prop_assert_eq!(&dp, &ss);
        prop_assert_eq!(&dp, &par);
    }

    /// The naive evaluator and the DP evaluator agree on everything the
    /// naive evaluator can finish (they only differ in cost, never in the
    /// result).
    #[test]
    fn naive_agrees_when_it_terminates(seed in 0u64..5000, depth in 0usize..3, nodes in 5usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c"]);
        let query = random_core_query(&mut rng, depth, &["a", "b", "c"]);
        let dp = dp_nodes(&doc, &query);
        let naive = NaiveEvaluator::new(&doc).evaluate(&query).unwrap().into_nodes().unwrap();
        prop_assert_eq!(dp, naive);
    }

    /// Prepared-vs-unprepared agreement for the newly indexed axes
    /// (`child::tag`, `following`, `preceding`) across the evaluators that
    /// support them: each evaluator, fed the same query, must compute the
    /// same node set from a `PreparedDocument` (indexed fast paths) as from
    /// the bare `Document` (tree walks).
    #[test]
    fn prepared_axes_agree_across_evaluators(seed in 0u64..5000, nodes in 5usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b", "c"]);
        let prepared = PreparedDocument::new(doc.clone());
        for src in [
            "/descendant::a/child::b",
            "//c/preceding::b",
            "//b/following::a",
            "//a/following::*",
            "//b/preceding::node()",
            "//a[following::b]/child::c",
            "//c[not(preceding::a)]",
        ] {
            let query = parse_query(src).unwrap();
            let reference = dp_nodes(&doc, &query);
            prop_assert_eq!(
                &dp_nodes(&prepared, &query), &reference, "dp prepared vs unprepared on {}", src
            );
            let linear_plain = CoreXPathEvaluator::new(&doc).evaluate_query(&query).unwrap();
            let linear_fast = CoreXPathEvaluator::new(&prepared).evaluate_query(&query).unwrap();
            prop_assert_eq!(&linear_plain, &reference, "linear vs dp on {}", src);
            prop_assert_eq!(&linear_fast, &reference, "linear prepared on {}", src);
            let naive = NaiveEvaluator::new(&prepared)
                .evaluate(&query)
                .unwrap()
                .into_nodes()
                .unwrap();
            prop_assert_eq!(&naive, &reference, "naive prepared on {}", src);
        }
    }

    /// Positional child predicates through the full pWF pipeline: the
    /// Singleton-Success checker and the parallel evaluator agree with the
    /// DP evaluator on prepared documents (candidate pruning + indexed
    /// steps must not change any answer).
    #[test]
    fn prepared_positional_and_pruning_agree(seed in 0u64..5000, nodes in 5usize..60, k in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_tree_document(&mut rng, nodes, &["a", "b"]);
        let prepared = PreparedDocument::new(doc.clone());
        let ctx = Context::root(&doc);
        for src in [
            format!("//a/child::b[{k}]"),
            format!("//a[position() = {k}]"),
            "//b[position() = last()]".to_string(),
            "//a/child::node()[last()]".to_string(),
        ] {
            let query = parse_query(&src).unwrap();
            let reference = dp_nodes(&doc, &query);
            prop_assert_eq!(
                &dp_nodes(&prepared, &query), &reference, "dp prepared on {}", src
            );
            let ss = SingletonSuccess::new(&prepared, &query)
                .unwrap()
                .node_set(ctx)
                .unwrap();
            prop_assert_eq!(&ss, &reference, "singleton-success prepared on {}", src);
            let par = ParallelEvaluator::new(&prepared, 2)
                .evaluate(&query)
                .unwrap()
                .into_nodes()
                .unwrap();
            prop_assert_eq!(&par, &reference, "parallel prepared on {}", src);
        }
    }

    /// Random Core XPath and pWF queries through every strategy: the
    /// lowered-IR path and the AST walk agree (or reject identically) on
    /// direct and prepared sources alike.
    #[test]
    fn lowered_ir_matches_ast_walk_on_random_queries(
        seed in 0u64..5000, depth in 0usize..4, nodes in 5usize..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tags = ["a", "b", "c"];
        let doc = random_tree_document(&mut rng, nodes, &tags);
        let prepared = PreparedDocument::new(doc.clone());
        let queries = [
            random_core_query(&mut rng, depth, &tags),
            xpeval::workloads::random_pwf_query(&mut rng, &tags),
        ];
        for query in &queries {
            assert_ir_matches_ast_walk(&doc, &prepared, query);
        }
    }

    /// The workspace-global intern table hands out *stable* [`TagId`]s: the
    /// same name interned from racing threads resolves to one id, and two
    /// documents built over the same tag pool agree on the id of every tag
    /// they share — the property that lets specialized plans and artifacts
    /// transfer between documents.
    #[test]
    fn tag_ids_are_stable_across_threads_and_documents(
        seed in 0u64..5000, nodes in 5usize..80,
    ) {
        use xpeval::dom::intern;

        // Names fresh to this seed: the winning thread interns, the rest
        // must observe the identical id (and the reverse mapping).
        let names: Vec<String> = (0..8).map(|i| format!("p{seed}-t{i}")).collect();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let mut order = names.clone();
                order.rotate_left(t * 2);
                std::thread::spawn(move || {
                    order
                        .into_iter()
                        .map(|n| { let id = intern::intern(&n); (n, id) })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut agreed = std::collections::HashMap::new();
        for handle in handles {
            for (name, id) in handle.join().unwrap() {
                let first = *agreed.entry(name.clone()).or_insert(id);
                prop_assert_eq!(first, id, "thread disagreement on {}", name);
                prop_assert_eq!(intern::tag_name(id), name.as_str());
                prop_assert_eq!(intern::lookup(&name), Some(id));
            }
        }

        // Two independent documents over one tag pool: every shared tag
        // resolves to the same workspace-global id in both.
        let mut rng = StdRng::seed_from_u64(seed);
        let tags = ["a", "b", "c"];
        let one = PreparedDocument::new(random_tree_document(&mut rng, nodes, &tags));
        let two = PreparedDocument::new(random_tree_document(&mut rng, nodes, &tags));
        for tag in tags {
            if let (Some(in_one), Some(in_two)) = (one.tag_id(tag), two.tag_id(tag)) {
                prop_assert_eq!(in_one, in_two, "documents disagree on {}", tag);
                prop_assert_eq!(intern::lookup(tag), Some(in_one));
                prop_assert_eq!(one.tag_name(in_one), two.tag_name(in_two));
            }
        }
    }
}

/// The per-strategy work-counter protocol of [`EvalStats`]: every strategy
/// fills the counters that are meaningful for it and leaves the rest at
/// zero, exactly as the table in `xpeval-core/src/stats.rs` documents.
/// This is what makes the paper's complexity separations *observable*
/// through `QueryOutput::stats` without wall-clock timing — so the IR
/// executor must never silently stop filling one of these.
#[test]
fn work_counters_follow_the_per_strategy_protocol() {
    let mut rng = StdRng::seed_from_u64(7);
    let doc = random_tree_document(&mut rng, 400, &["a", "b", "c"]);
    let plan = CompiledQuery::compile("//a[child::b]/c").unwrap();
    let stats_for = |strategy| {
        plan.clone()
            .with_strategy(strategy)
            .run(&doc)
            .unwrap()
            .stats
    };

    // Context-value table: computed entries and the final table size.
    let cvt = stats_for(EvalStrategy::ContextValueTable);
    assert!(cvt.evaluations > 0, "{cvt:?}");
    assert!(cvt.step_context_evaluations > 0, "{cvt:?}");
    assert!(cvt.table_entries > 0, "{cvt:?}");
    assert_eq!(cvt.max_intermediate_list, 0, "{cvt:?}");

    // Naive re-evaluation: the exploding intermediate list is its witness;
    // it owns no table.
    let naive = stats_for(EvalStrategy::Naive);
    assert!(naive.evaluations > 0, "{naive:?}");
    assert!(naive.step_context_evaluations > 0, "{naive:?}");
    assert!(naive.max_intermediate_list > 0, "{naive:?}");
    assert_eq!(naive.table_entries, 0, "{naive:?}");
    assert_eq!(naive.cache_hits, 0, "{naive:?}");

    // Linear Core XPath: set-at-a-time, so counters are per *step*, not
    // per (step, node) — small numbers, but never zero.
    let linear = stats_for(EvalStrategy::CoreXPathLinear);
    assert!(linear.evaluations > 0, "{linear:?}");
    assert!(linear.step_context_evaluations > 0, "{linear:?}");
    assert_eq!(linear.cache_hits, 0, "{linear:?}");
    assert_eq!(linear.table_entries, 0, "{linear:?}");
    assert_eq!(linear.max_intermediate_list, 0, "{linear:?}");

    // Singleton-Success and its parallel fan-out: decision counts plus
    // memo-table hits (the LOGCFL checker memoizes heavily).
    for strategy in [
        EvalStrategy::SingletonSuccess,
        EvalStrategy::Parallel { threads: 2 },
    ] {
        let ss = stats_for(strategy);
        assert!(ss.evaluations > 0, "{strategy:?}: {ss:?}");
        assert!(ss.step_context_evaluations > 0, "{strategy:?}: {ss:?}");
        assert!(ss.cache_hits > 0, "{strategy:?}: {ss:?}");
        assert_eq!(ss.table_entries, 0, "{strategy:?}: {ss:?}");
        assert_eq!(ss.max_intermediate_list, 0, "{strategy:?}: {ss:?}");
    }

    // Eager storage: no strategy reports lazy residency (that gauge is
    // owned by the catalog's lazy backend, not the executor).
    for strategy in ALL_STRATEGIES {
        assert_eq!(stats_for(strategy).nodes_materialized, 0, "{strategy:?}");
    }

    // The DP memo table pays off on overlapping contexts: an ancestor
    // query revisits (subexpression, context) pairs, so CVT reports hits
    // where naive reports re-evaluations and list growth instead.
    let doc = parse_xml("<r><a><b/></a><a><b/></a><a><b/></a></r>").unwrap();
    let plan = CompiledQuery::compile("//b/ancestor::*[child::b]").unwrap();
    let cvt = plan
        .clone()
        .with_strategy(EvalStrategy::ContextValueTable)
        .run(&doc)
        .unwrap()
        .stats;
    assert!(cvt.cache_hits > 0, "{cvt:?}");
    let naive = plan
        .with_strategy(EvalStrategy::Naive)
        .run(&doc)
        .unwrap()
        .stats;
    assert!(
        naive.evaluations > cvt.evaluations,
        "naive {naive:?} vs cvt {cvt:?}"
    );
}
