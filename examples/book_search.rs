//! The paper's running example (§2, Figures 1 and 2): querying a
//! structurally heterogeneous book collection with the query
//! `/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']`.
//!
//! * Book (a) matches the query exactly.
//! * Book (b) keeps its publisher outside `info` — only a *subtree
//!   promotion* relaxation matches it.
//! * Book (c) hides the title under `reviews` and has no publisher at
//!   all — *edge generalization* and *leaf deletion* are needed.
//!
//! The example shows that exact evaluation returns only book (a), while
//! relaxed evaluation ranks all three, exact matches first.
//!
//! ```text
//! cargo run --release -p whirlpool-examples --example book_search
//! ```

use whirlpool_core::{evaluate, Algorithm, EvalOptions, RelaxMode};
use whirlpool_index::TagIndex;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xmark::{books, queries};
use whirlpool_xml::{write_node, WriteOptions};

fn main() {
    let doc = books::heterogeneous_collection();
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::FIG2A);
    println!("query:  {query}\n");

    let model = TfIdfModel::build(&doc, &index, &query, Normalization::None);

    // Exact evaluation: book (a) only.
    let mut options = EvalOptions::top_k(3);
    options.relax = RelaxMode::Exact;
    let exact = evaluate(
        &doc,
        &index,
        &query,
        &model,
        &Algorithm::WhirlpoolS,
        &options,
    );
    println!("exact matches: {}", exact.answers.len());
    for a in &exact.answers {
        println!("  score {:.4}  {}", a.score.value(), preview(&doc, a.root));
    }

    // Relaxed evaluation: all three books, ranked by structural
    // similarity to the query.
    options.relax = RelaxMode::Relaxed;
    let relaxed = evaluate(
        &doc,
        &index,
        &query,
        &model,
        &Algorithm::WhirlpoolS,
        &options,
    );
    println!("\napproximate matches (relaxed): {}", relaxed.answers.len());
    for (rank, a) in relaxed.answers.iter().enumerate() {
        println!(
            "  #{} score {:.4}  {}",
            rank + 1,
            a.score.value(),
            preview(&doc, a.root)
        );
    }

    assert_eq!(exact.answers.len(), 1, "only book (a) matches exactly");
    assert_eq!(
        relaxed.answers.len(),
        3,
        "relaxation admits all three books"
    );
    assert_eq!(
        relaxed.answers[0].root, exact.answers[0].root,
        "the exact match ranks first among approximate answers"
    );
    println!("\nok: exact matches keep the best scores under relaxation");
}

fn preview(doc: &whirlpool_xml::Document, root: whirlpool_xml::NodeId) -> String {
    let xml =
        write_node(doc, root, &WriteOptions::default()).expect("a parsed document's text is UTF-8");
    let mut s: String = xml.chars().take(72).collect();
    if s.len() < xml.len() {
        s.push('…');
    }
    s
}
