//! `whirlpool generate` — emit an XMark-like document.

use crate::args::Parsed;
use crate::CliError;
use std::io::Write;
use whirlpool_xmark::{generate, GeneratorConfig};
use whirlpool_xml::{write_document, DocumentStats, WriteOptions};

pub fn run(argv: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &["mb", "items", "seed"], &[])?;
    let path = parsed.positional(0, "out.xml")?.to_string();
    parsed.expect_positionals(1)?;

    let seed: u64 = parsed.number("seed", 42)?;
    let config = if let Some(items) = parsed.value("items") {
        let items: usize = items
            .parse()
            .map_err(|_| CliError::Usage(format!("--items: cannot parse {items:?}")))?;
        GeneratorConfig::items(items).with_seed(seed)
    } else {
        let mb: usize = parsed.number("mb", 1)?;
        GeneratorConfig::megabytes(mb).with_seed(seed)
    };

    let doc = generate(&config);
    let xml = write_document(
        &doc,
        &WriteOptions {
            indent: None,
            declaration: true,
        },
    );
    std::fs::write(&path, &xml)
        .map_err(|e| CliError::Usage(format!("cannot write {path}: {e}")))?;

    let stats = DocumentStats::compute(&doc);
    writeln!(
        out,
        "wrote {path}: {} bytes, {} elements, {} items (seed {seed})",
        xml.len(),
        stats.element_count,
        stats.count_for(&doc, "item"),
    )?;
    Ok(())
}
