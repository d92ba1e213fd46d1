//! Quickstart: parse a document, ask for the top-k answers to an XPath
//! tree-pattern query, and inspect scores and work counters.
//!
//! ```text
//! cargo run --release -p whirlpool-examples --example quickstart
//! ```

use whirlpool_core::{evaluate, Algorithm, EvalOptions};
use whirlpool_index::TagIndex;
use whirlpool_pattern::parse_pattern;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xml::{parse_document, write_node, WriteOptions};

fn main() {
    // A small library with heterogeneous book records: some have a title
    // and isbn as direct children, some bury the title deeper, one has
    // no isbn at all.
    let doc = parse_document(
        r#"<library>
             <book id="b1"><title>the code book</title><isbn>0385495323</isbn><price>16</price></book>
             <book id="b2"><title>gödel escher bach</title><isbn>0465026567</isbn></book>
             <book id="b3"><meta><title>the art of computer programming</title></meta><isbn>0201896834</isbn></book>
             <book id="b4"><title>a pattern language</title></book>
             <book id="b5"><review>uninteresting record</review></book>
           </library>"#,
    )
    .expect("well-formed XML");

    // Index once; reusable across queries.
    let index = TagIndex::build(&doc);

    // Top-3 books with a title, an isbn and a price, all as children —
    // approximate matches admitted through relaxation.
    let query = parse_pattern("//book[./title and ./isbn and ./price]").unwrap();
    println!("query:  {query}");

    // Scores: tf*idf over the query's component predicates, with the
    // per-predicate ("sparse") normalization.
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);

    let result = evaluate(
        &doc,
        &index,
        &query,
        &model,
        &Algorithm::WhirlpoolS,
        &EvalOptions::top_k(3),
    );

    println!("\ntop-{} answers:", result.answers.len());
    for (rank, answer) in result.answers.iter().enumerate() {
        let id = doc.attribute(answer.root, "id").unwrap_or("?");
        let xml = write_node(&doc, answer.root, &WriteOptions::default())
            .expect("a parsed document's text is UTF-8");
        let preview: String = xml.chars().take(60).collect();
        println!(
            "  #{} score {:.4}  book {id}  {preview}…",
            rank + 1,
            answer.score.value()
        );
    }

    println!("\nwork: {:?}", result.metrics);
    println!("elapsed: {:?}", result.elapsed);
}
