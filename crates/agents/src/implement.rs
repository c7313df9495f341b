//! Drawing implements — the activity's "hardware".
//!
//! Section IV: "it is advantageous to provide students with a variety of
//! drawing implements … it does show the effect of different hardware",
//! and "the students preferred markers to crayons — the institution that
//! used crayons got many complaints". The calibrated base costs below
//! preserve the observed ordering dauber < thick marker < thin marker <
//! crayon; absolute seconds are free parameters chosen to land completion
//! times in the tens-of-seconds range of a real classroom grid.

use std::fmt;

/// The kinds of coloring tools handed out across the six institutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplementKind {
    /// Bingo dauber: one dab per cell — fastest.
    BingoDauber,
    /// Thick marker.
    ThickMarker,
    /// Thin marker.
    ThinMarker,
    /// Crayon: slow, and prone to breaking (students complained).
    Crayon,
}

impl ImplementKind {
    /// All kinds, fastest first.
    pub const ALL: [ImplementKind; 4] = [
        ImplementKind::BingoDauber,
        ImplementKind::ThickMarker,
        ImplementKind::ThinMarker,
        ImplementKind::Crayon,
    ];

    /// Calibrated base seconds to scribble-fill one cell with this
    /// implement in good condition, for a skill-1.0, fully warmed-up
    /// student.
    pub fn base_secs_per_cell(self) -> f64 {
        match self {
            ImplementKind::BingoDauber => 1.2,
            ImplementKind::ThickMarker => 2.0,
            ImplementKind::ThinMarker => 3.0,
            ImplementKind::Crayon => 4.2,
        }
    }

    /// Seconds to pass this implement between students (scenario 4's
    /// hand-off). Daubers are chunky and easy to hand over; crayons are
    /// small and fumbly.
    pub fn handoff_secs(self) -> f64 {
        match self {
            ImplementKind::BingoDauber => 1.0,
            ImplementKind::ThickMarker => 1.2,
            ImplementKind::ThinMarker => 1.2,
            ImplementKind::Crayon => 1.6,
        }
    }

    /// Per-cell probability of breaking/failing. Only crayons break in
    /// practice ("requested better quality crayons … to avoid breakage").
    pub fn breakage_prob(self) -> f64 {
        match self {
            ImplementKind::Crayon => 0.004,
            _ => 0.0,
        }
    }

    /// The kind a command-line token names: `dauber`, `thick`, `thin` or
    /// `crayon`. The CLI and shard job specs share this one vocabulary.
    pub fn from_token(token: &str) -> Option<ImplementKind> {
        Some(match token {
            "dauber" => ImplementKind::BingoDauber,
            "thick" => ImplementKind::ThickMarker,
            "thin" => ImplementKind::ThinMarker,
            "crayon" => ImplementKind::Crayon,
            _ => return None,
        })
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ImplementKind::BingoDauber => "bingo dauber",
            ImplementKind::ThickMarker => "thick marker",
            ImplementKind::ThinMarker => "thin marker",
            ImplementKind::Crayon => "crayon",
        }
    }
}

impl fmt::Display for ImplementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Physical condition, for failure injection (§IV: do a dry run; check
/// whether "the markers \[are\] dead" and whether they "bleed through the
/// paper").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Condition {
    /// Works as calibrated.
    #[default]
    Good,
    /// Dried out / stubby: slower by half.
    Worn,
    /// Unusable; a run that needs it cannot proceed until it is replaced.
    Dead,
}

impl Condition {
    /// Time multiplier (Dead has none — it must be detected, not timed).
    pub fn slowdown(self) -> f64 {
        match self {
            Condition::Good => 1.0,
            Condition::Worn => 1.5,
            Condition::Dead => f64::INFINITY,
        }
    }
}

/// One physical implement: a kind plus its condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Implement {
    /// What it is.
    pub kind: ImplementKind,
    /// What shape it's in.
    pub condition: Condition,
}

impl Implement {
    /// A good implement of the given kind.
    pub fn good(kind: ImplementKind) -> Self {
        Implement {
            kind,
            condition: Condition::Good,
        }
    }

    /// Whether the implement can color at all.
    pub fn is_usable(self) -> bool {
        self.condition != Condition::Dead
    }

    /// Effective base seconds per cell (infinite for dead implements).
    pub fn effective_base_secs(self) -> f64 {
        self.kind.base_secs_per_cell() * self.condition.slowdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_ordering_matches_paper() {
        // "daubers were the fastest, followed by thick markers, and then
        // thin markers"; crayons were the complained-about worst.
        let secs: Vec<f64> = ImplementKind::ALL
            .iter()
            .map(|k| k.base_secs_per_cell())
            .collect();
        assert!(secs.windows(2).all(|w| w[0] < w[1]), "{secs:?}");
    }

    #[test]
    fn only_crayons_break() {
        for k in ImplementKind::ALL {
            if k == ImplementKind::Crayon {
                assert!(k.breakage_prob() > 0.0);
            } else {
                assert_eq!(k.breakage_prob(), 0.0);
            }
        }
    }

    #[test]
    fn condition_slowdowns() {
        assert_eq!(Condition::Good.slowdown(), 1.0);
        assert_eq!(Condition::Worn.slowdown(), 1.5);
        assert!(Condition::Dead.slowdown().is_infinite());
    }

    #[test]
    fn dead_implement_unusable() {
        let dead = Implement {
            kind: ImplementKind::ThickMarker,
            condition: Condition::Dead,
        };
        assert!(!dead.is_usable());
        assert!(dead.effective_base_secs().is_infinite());
        assert!(Implement::good(ImplementKind::ThickMarker).is_usable());
    }

    #[test]
    fn handoff_times_positive() {
        for k in ImplementKind::ALL {
            assert!(k.handoff_secs() > 0.0);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ImplementKind::BingoDauber.to_string(), "bingo dauber");
        assert_eq!(ImplementKind::Crayon.to_string(), "crayon");
    }
}
