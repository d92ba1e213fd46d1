//! One module per subcommand.

pub mod explain;
pub mod generate;
pub mod query;
pub mod relax;
pub mod serve;
pub mod snapshot;
pub mod stats;

use crate::CliError;
use whirlpool_pattern::{parse_pattern, TreePattern};
use whirlpool_xml::{parse_document, Document};

/// Is `path` a snapshot this build attaches? Files of other store
/// versions are not: they reach [`load_document`], which refuses them.
pub(crate) fn is_snapshot(path: &str) -> bool {
    whirlpool_store::store_version(path) == Some(whirlpool_store::SNAPSHOT_VERSION)
}

/// Loads a document by parsing XML. Binary store files — snapshots,
/// or the retired v1–v5 formats — are refused by magic, never fed to
/// the XML parser.
pub(crate) fn load_document(path: &str) -> Result<Document, CliError> {
    if let Some(version) = whirlpool_store::store_version(path) {
        return Err(CliError::Usage(format!(
            "{path}: binary store (format v{version}), not XML; this command parses XML — \
             `whirlpool snapshot build` turns XML into a snapshot for `query` and `serve`"
        )));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    parse_document(&text).map_err(|e| CliError::Parse(format!("{path}: {e}")))
}

/// Parses a query string.
pub(crate) fn load_query(src: &str) -> Result<TreePattern, CliError> {
    parse_pattern(src).map_err(|e| CliError::Parse(format!("query {src:?}: {e}")))
}
