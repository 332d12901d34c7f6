//! Quiet cases: each `pub` item is reached from outside the library.
//!
//! ```
//! alpha::doc_tested();
//! ```

/// Named by another package.
pub fn shared() {}

/// Named only by this package's own `tests/`.
pub fn integration_tested() {}

pub fn doc_tested() {}

/// Never named outside, but the surviving `make` signature mentions it.
pub struct Made {
    pub inner: Part,
    hidden: Private,
}
pub struct Part;
pub(crate) struct Private;
pub fn make() -> Made {
    Made {
        inner: Part,
        hidden: Private,
    }
}

// lint:allow(dead-pub, called through a cfg-gated alias this scan cannot see)
pub fn excused() {}

pub(crate) fn crate_private_is_rustc_business() {}
