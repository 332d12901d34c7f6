//! Firing cases: nothing outside this package names any of these.
mod inner;
pub use inner::Hidden;

pub fn orphan() {}

pub struct Unused;

/// Only a dead signature mentions `Ticket`, so it is dead too.
pub struct Ticket;
pub fn issue() -> Ticket {
    Ticket
}

pub fn unit_tested_only() {}

// lint:allow(dead-pub)
pub const NO_REASON: u32 = 0;

pub fn used_elsewhere() {}

#[cfg(test)]
mod tests {
    #[test]
    fn own_unit_tests_do_not_count() {
        super::unit_tested_only();
    }
}
