//! `whirlpool stats` — document statistics.

use crate::args::Parsed;
use crate::commands::load_document;
use crate::CliError;
use std::io::Write;
use whirlpool_xml::DocumentStats;

pub fn run(argv: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &[], &[])?;
    let file = parsed.positional(0, "file.xml")?.to_string();
    parsed.expect_positionals(1)?;

    let doc = load_document(&file)?;
    let stats = DocumentStats::compute(&doc);

    writeln!(out, "file:             {file}")?;
    writeln!(out, "elements:         {}", stats.element_count)?;
    writeln!(out, "distinct tags:    {}", stats.tag_counts.len())?;
    writeln!(out, "max depth:        {}", stats.max_depth)?;
    writeln!(out, "mean fanout:      {:.2}", stats.mean_fanout)?;
    writeln!(out, "text bytes:       {}", stats.text_bytes)?;
    writeln!(out, "serialized bytes: {}", stats.serialized_bytes)?;

    // Tag histogram, most frequent first, capped.
    let mut counts: Vec<(&str, usize)> = stats
        .tag_counts
        .iter()
        .map(|(&tag, &count)| (doc.tag_name(tag), count))
        .collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    writeln!(out, "top tags:")?;
    for (tag, count) in counts.into_iter().take(15) {
        writeln!(out, "  {tag:<16} {count}")?;
    }
    Ok(())
}
