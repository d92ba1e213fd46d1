#![deny(missing_docs)]

//! XML data model for the Whirlpool top-k query engine.
//!
//! This crate provides the storage substrate the rest of the system is
//! built on:
//!
//! * [`Document`] — a node-labelled tree (the paper's data model:
//!   "information is represented as a forest of node labeled trees"; a
//!   forest is modelled as the children of a synthetic document root),
//!   stored as the flat arrays a snapshot stores: nodes numbered in
//!   document (pre-)order, each with a tag, a parent, a depth, a subtree
//!   extent, a span of a text blob and a span of attribute entries.
//! * [`DocView`] — those arrays borrowed as one `Copy` struct of slices,
//!   over a [`Document`] or over a mapped snapshot alike; every reader
//!   goes through it.
//! * [`parse_document`] — a from-scratch, dependency-free XML parser with
//!   positioned errors.
//! * [`DocumentBuilder`] — pre-order construction, the one place nodes
//!   are appended (the parser and the synthetic data generators use it).
//! * [`write_document`] — serializer, used for size accounting and for
//!   round-trip testing of the parser.
//!
//! # Example
//!
//! ```
//! use whirlpool_xml::{parse_document, Document};
//!
//! let doc = parse_document("<book><title>wodehouse</title></book>").unwrap();
//! let root = doc.document_root();
//! let book = doc.children(root).next().unwrap();
//! assert_eq!(doc.tag_name(doc.tag(book)), "book");
//! let title = doc.children(book).next().unwrap();
//! assert_eq!(doc.text(title), Some("wodehouse"));
//! ```

mod builder;
mod error;
mod node;
mod parser;
mod stats;
mod tags;
mod view;
mod writer;

pub use builder::DocumentBuilder;
pub use error::{ParseError, ParseErrorKind, Position};
pub use node::{Document, NodeId};
pub use parser::parse_document;
#[doc(hidden)]
pub use parser::parse_document_split;
pub use stats::DocumentStats;
pub use tags::TagId;
pub use view::{DocView, ATTR_ENTRY_STRIDE};
pub use writer::{write_document, write_node, WriteOptions};
