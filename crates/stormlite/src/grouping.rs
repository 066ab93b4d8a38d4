//! Stream groupings: how tuples on a wire pick their destination task.

/// The routing policy of one wire, in Storm's grouping vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// All tuples to task 0 (aggregation points, sinks), via
    /// [`Outbox::emit`](crate::Outbox::emit).
    Global,
    /// The emitter names the destination task explicitly
    /// ([`Outbox::emit_direct`](crate::Outbox::emit_direct)) — how the
    /// dispatcher addresses individual joiners.
    Direct,
}

impl Grouping {
    /// Everything to task 0.
    pub fn global() -> Self {
        Grouping::Global
    }

    /// Emitter-addressed grouping.
    pub fn direct() -> Self {
        Grouping::Direct
    }
}
