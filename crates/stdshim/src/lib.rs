#![warn(missing_docs)]

//! Zero-dependency standard-library shims for the HotC workspace.
//!
//! The workspace builds offline with no registry crates; this crate hosts
//! the small pieces that third-party crates used to provide:
//!
//! * [`sync`] — a non-poisoning `Mutex` wrapper over `std::sync` (the
//!   workspace's one lock kind)
//!   with parking_lot-style ergonomics (`.lock()` returns the guard), a
//!   debug-build lock-order sanitizer (class labels, ABBA cycle detection,
//!   re-entry detection, [`sync::request_path_scope`]),
//! * [`json`] — a streaming JSON writer ([`json::JsonWriter`]) and a JSON
//!   tree ([`json::JsonValue`]) with a hand-written parser, plus the one
//!   [`json::ToJson`] trait that result structs implement, streaming through
//!   the writer instead of deriving `serde::Serialize`, and
//! * [`hash`] — an FxHash-style fast hasher ([`hash::FastMap`]) for maps
//!   keyed by internal integers on the request path.
//!
//! Everything here is std-only and auditable in one sitting; `hotc-lint`'s
//! `hermetic-deps` rule, run by `tests/lint_clean.rs` at the workspace root,
//! enforces that it stays that way.

pub mod hash;
pub mod json;
pub mod sync;

pub use hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use json::{Json, JsonSink, JsonValue, JsonWriter, ToJson};
pub use sync::{request_path_scope, Mutex};
