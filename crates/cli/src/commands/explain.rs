//! `whirlpool explain` — show how a query compiles against a document:
//! the per-server predicates (Algorithm 1), tf*idf weights, and the
//! satisfying fractions behind them, which the router reads as its
//! estimates.

use crate::args::Parsed;
use crate::commands::{load_document, load_query};
use crate::CliError;
use std::io::Write;
use whirlpool_core::{evaluate_with_context, Algorithm, ContextOptions, EvalOptions, QueryContext};
use whirlpool_index::TagIndex;
use whirlpool_pattern::Direction;
use whirlpool_score::{Normalization, TfIdfModel};

pub fn run(argv: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &[], &[])?;
    let file = parsed.positional(0, "file.xml")?.to_string();
    let query_src = parsed.positional(1, "query")?.to_string();
    parsed.expect_positionals(2)?;

    let doc = load_document(&file)?;
    let query = load_query(&query_src)?;
    let index = TagIndex::build(&doc);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
    let ctx = QueryContext::new(&doc, &index, &query, &model, ContextOptions::default());

    writeln!(out, "query:           {query}")?;
    // How many of them a default top-k run ever turns into a match.
    let k = 10;
    let run = evaluate_with_context(&ctx, &Algorithm::WhirlpoolS, &EvalOptions::top_k(k));
    writeln!(
        out,
        "root candidates: {} ({} never seeded by Whirlpool-S at k = {k})",
        ctx.root_candidates().len(),
        run.metrics.roots_unseeded
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<12} {:<14} {:>8} {:>9} {:>8} {:>9} {:>7}",
        "server", "root pred", "w-exact", "w-relaxed", "exact%", "relaxed%", "empty%"
    )?;
    let root_tag = &query.node(query.root()).tag;
    for server in ctx.server_ids() {
        let spec = ctx.server_spec(server);
        let [exact, relaxed] = ctx.fractions_of(server);
        let [w_exact, w_relaxed] = model.weights(server);
        writeln!(
            out,
            "{:<12} {:<14} {:>8.3} {:>9.3} {:>7.1}% {:>8.1}% {:>6.1}%",
            spec.tag,
            format!("{root_tag}{}{}", spec.root_exact.xpath(), spec.tag),
            w_exact,
            w_relaxed,
            100.0 * exact,
            100.0 * relaxed,
            100.0 * (1.0 - relaxed),
        )?;
    }

    writeln!(out)?;
    writeln!(
        out,
        "conditional predicate sequences (exact-mode join checks):"
    )?;
    for server in ctx.server_ids() {
        let spec = ctx.server_spec(server);
        if spec.conditional.is_empty() {
            continue;
        }
        write!(out, "  {:<12}", spec.tag)?;
        for cp in &spec.conditional {
            let other = &query.node(cp.other).tag;
            match cp.direction {
                Direction::FromAncestor => {
                    write!(out, " [{}{}{}]", other, cp.exact.xpath(), spec.tag)?
                }
                Direction::ToDescendant => {
                    write!(out, " [{}{}{}]", spec.tag, cp.exact.xpath(), other)?
                }
            }
        }
        writeln!(out)?;
    }
    Ok(())
}
