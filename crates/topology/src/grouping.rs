//! Stream groupings — how tuples are routed between producer and consumer
//! tasks (Section II of the paper lists all five).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The routing rule on a stream edge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Grouping {
    /// Tuples are distributed across the consuming bolt's tasks such that
    /// each task receives an (approximately) equal number of tuples.
    ///
    /// Real Storm randomises; the simulator draws from the run's
    /// deterministic RNG, preserving the balance guarantee.
    Shuffle,
    /// One or more fields of the tuple form the key; tuples with equal keys
    /// go to the same task (`hash(key) mod tasks`).
    Fields(Vec<String>),
    /// Every tuple is broadcast to *all* tasks of the consuming bolt.
    All,
    /// The entire stream goes to a single task — the task with the lowest
    /// id, as in Storm.
    Global,
    /// The producer picks the destination task explicitly. The simulator's
    /// emit API carries the chosen task index; logic that does not choose
    /// falls back to round-robin.
    Direct,
}

impl Grouping {
    /// Convenience constructor for [`Grouping::Fields`].
    #[must_use]
    pub fn fields<S: AsRef<str>>(names: &[S]) -> Self {
        Grouping::Fields(names.iter().map(|s| s.as_ref().to_owned()).collect())
    }

    /// Short lowercase name used in reports and errors.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Grouping::Shuffle => "shuffle",
            Grouping::Fields(_) => "fields",
            Grouping::All => "all",
            Grouping::Global => "global",
            Grouping::Direct => "direct",
        }
    }
}

impl fmt::Display for Grouping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Grouping::Fields(names) => write!(f, "fields({})", names.join(", ")),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_constructor_copies_names() {
        let g = Grouping::fields(&["word"]);
        assert_eq!(g, Grouping::Fields(vec!["word".to_owned()]));
    }

    #[test]
    fn display_names() {
        assert_eq!(Grouping::Shuffle.to_string(), "shuffle");
        assert_eq!(Grouping::fields(&["a", "b"]).to_string(), "fields(a, b)");
        assert_eq!(Grouping::Global.to_string(), "global");
        assert_eq!(Grouping::Direct.name(), "direct");
        assert_eq!(Grouping::All.name(), "all");
    }
}
