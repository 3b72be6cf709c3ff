//! Identifier newtype for sensor nodes.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a sensor node within one deployment.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id.
    pub const fn new(id: u32) -> Self {
        NodeId(id)
    }

    /// The raw id value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// The id as a vector index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl From<u32> for NodeId {
    fn from(i: u32) -> Self {
        NodeId(i)
    }
}

impl From<i32> for NodeId {
    /// Convenience for literal ids in examples and tests.
    ///
    /// # Panics
    ///
    /// Panics if `i` is negative.
    fn from(i: i32) -> Self {
        assert!(i >= 0, "node id must be non-negative");
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_conversions() {
        let id = NodeId::from(7usize);
        assert_eq!(id.value(), 7);
        assert_eq!(id.index(), 7);
        assert_eq!(NodeId::from(7u32), id);
        assert_eq!(id.to_string(), "n7");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(1));
        assert_eq!(set.len(), 1);
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
