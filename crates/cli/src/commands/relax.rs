//! `whirlpool relax` — show a query's relaxation space.

use crate::args::Parsed;
use crate::commands::load_query;
use crate::CliError;
use std::io::Write;
use whirlpool_pattern::relax::{applicable, apply, enumerate, fully_relaxed, Relaxation};

pub fn run(argv: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &["limit"], &[])?;
    let query_src = parsed.positional(0, "query")?.to_string();
    parsed.expect_positionals(1)?;
    let limit: usize = parsed.number("limit", 10_000)?;

    let query = load_query(&query_src)?;
    writeln!(out, "query:         {query}")?;
    writeln!(out, "fully relaxed: {}", fully_relaxed(&query))?;

    writeln!(out, "single-step relaxations:")?;
    for r in applicable(&query) {
        let relaxed = apply(&query, r).expect("applicable relaxation applies");
        let label = match r {
            Relaxation::EdgeGeneralization(q) => {
                format!("edge-generalization({})", query.node(q).tag)
            }
            Relaxation::LeafDeletion(q) => format!("leaf-deletion({})", query.node(q).tag),
            Relaxation::SubtreePromotion(q) => {
                format!("subtree-promotion({})", query.node(q).tag)
            }
        };
        writeln!(out, "  {label:<34} {relaxed}")?;
    }

    let closure = enumerate(&query, limit);
    if closure.len() >= limit {
        writeln!(out, "closure size:  > {limit} (truncated; raise --limit)")?;
    } else {
        writeln!(out, "closure size:  {}", closure.len())?;
    }
    Ok(())
}
