#![warn(missing_docs)]

//! XML data model for the Whirlpool top-k query engine.
//!
//! This crate provides the storage substrate the rest of the system is
//! built on:
//!
//! * [`Document`] — an arena-backed, node-labelled tree (the paper's data
//!   model: "information is represented as a forest of node labeled
//!   trees"; a forest is modelled as the children of a synthetic document
//!   root). Nodes are numbered in document (pre-)order and keep a parent
//!   link and a depth — the one tree encoding; the index derives its
//!   pre-order + extent columns from it.
//! * [`parse_document`] — a from-scratch, dependency-free XML parser with
//!   positioned errors.
//! * [`DocumentBuilder`] — programmatic construction (used by the
//!   synthetic data generators).
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
//! assert_eq!(doc.tag_name(doc.node(book).tag), "book");
//! let title = doc.children(book).next().unwrap();
//! assert_eq!(doc.text(title), Some("wodehouse"));
//! ```

mod builder;
mod error;
mod node;
mod parser;
mod stats;
mod tags;
mod writer;

pub use builder::DocumentBuilder;
pub use error::{ParseError, ParseErrorKind, Position};
pub use node::{Document, NodeData, NodeId};
pub use parser::parse_document;
pub use stats::DocumentStats;
pub use tags::{TagId, TagInterner};
pub use writer::{write_document, write_node, WriteOptions, XmlSource};
