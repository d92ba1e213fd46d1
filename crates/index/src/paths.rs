//! A name kept for the benchmark.

use whirlpool_xml::Document;

/// Kept only because `benchmark/src/workloads/{doc,corpus}.rs` name it:
/// no snapshot stores a path synopsis, so there is nothing to build.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathSynopsis;

impl PathSynopsis {
    /// Builds nothing.
    pub fn build(_doc: &Document) -> PathSynopsis {
        PathSynopsis
    }
}
