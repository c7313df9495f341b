//! Flag-aware work partitions — "the scenarios' task decompositions".
//!
//! Fig. 1's scenarios are specific partitions of the Mauritius grid: whole
//! flag (scenario 1), stripe pairs (scenario 2), one stripe each
//! (scenario 3), vertical slices (scenario 4). This module generalizes
//! them to any flag and team size and fixes the *cell order* within each
//! part, because the paper numbers cells precisely to convey that order.

use crate::work::{PreparedFlag, WorkItem};
use flagsim_grid::partition as geo;
use flagsim_grid::{Color, Region};

/// The order in which a student visits the cells of their part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellOrder {
    /// Row-major within the part: finish one stripe-row before the next —
    /// the coordinated order the scenario slides number. Minimizes color
    /// changes on stripe flags.
    #[default]
    RowMajor,
    /// Column-major within the part: march down each column, crossing
    /// every stripe — the naive order; on Mauritius it changes color every
    /// couple of cells and thrashes the markers.
    ColumnMajor,
}

/// How the flag is divided among the team.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionStrategy {
    /// One student colors everything (scenario 1).
    Solo,
    /// `n` horizontal bands of equal height; with `n = 2` on Mauritius
    /// this is scenario 2 (stripe pairs), with `n = 4` scenario 3 (one
    /// stripe each).
    HorizontalBands(u32),
    /// `n` vertical slices (scenario 4): every slice crosses every stripe,
    /// so everyone needs every color.
    VerticalSlices(u32),
    /// `cols × rows` rectangular blocks.
    Blocks(u32, u32),
    /// Row-major cells dealt round-robin to `n` students — a fine-grained
    /// cyclic distribution (great balance, terrible marker locality).
    Cyclic(u32),
    /// One part per *color*: student `i` colors every cell of color `i`
    /// (colors in first-appearance order). Mauritius with 4 students: one
    /// stripe each, same as scenario 3; on layered flags this is the
    /// "color specialist" strategy.
    ByColor,
    /// Explicit regions, one per student (must partition the colorable
    /// cells).
    Custom(Vec<Region>),
}

impl PartitionStrategy {
    /// Number of parts this strategy produces.
    pub fn parts(&self) -> usize {
        match self {
            PartitionStrategy::Solo => 1,
            PartitionStrategy::HorizontalBands(n) => *n as usize,
            PartitionStrategy::VerticalSlices(n) => *n as usize,
            PartitionStrategy::Blocks(c, r) => (*c * *r) as usize,
            PartitionStrategy::Cyclic(n) => *n as usize,
            PartitionStrategy::ByColor => 0, // depends on the flag
            PartitionStrategy::Custom(regions) => regions.len(),
        }
    }

    /// Split a prepared flag into per-student work lists. Cells whose
    /// color appears in `skip` are dropped (nobody colors the white that
    /// is already the paper). Every remaining colorable cell appears in
    /// exactly one list.
    pub fn assignments(
        &self,
        flag: &PreparedFlag,
        order: CellOrder,
        skip: &[Color],
    ) -> Vec<Vec<WorkItem>> {
        let (w, h) = (flag.width, flag.height);
        let full = geo::Rect::full(w, h);
        let regions: Vec<Region> = match self {
            PartitionStrategy::Solo => vec![ordered_region(full, w, order)],
            PartitionStrategy::HorizontalBands(n) => geo::horizontal_bands(full, *n)
                .into_iter()
                .map(|r| ordered_region(r, w, order))
                .collect(),
            PartitionStrategy::VerticalSlices(n) => geo::vertical_slices(full, *n)
                .into_iter()
                .map(|r| ordered_region(r, w, order))
                .collect(),
            PartitionStrategy::Blocks(c, r) => geo::blocks(full, *c, *r)
                .into_iter()
                .map(|b| ordered_region(b, w, order))
                .collect(),
            PartitionStrategy::Cyclic(n) => {
                geo::cyclic(w, h, *n as usize)
            }
            PartitionStrategy::ByColor => {
                let colors = flag.colors_needed(skip);
                colors
                    .iter()
                    .map(|&c| {
                        Region::from_ids(flag.reference.iter().filter_map(|(id, cc)| {
                            (cc == c).then_some(id)
                        }))
                    })
                    .collect()
            }
            PartitionStrategy::Custom(regions) => regions.clone(),
        };
        regions
            .iter()
            .map(|r| flag.items(r.iter(), skip).collect())
            .collect()
    }
}

/// The cells of a rect in the requested order.
fn ordered_region(rect: geo::Rect, grid_width: u32, order: CellOrder) -> Region {
    match order {
        CellOrder::RowMajor => rect.region(grid_width),
        CellOrder::ColumnMajor => rect.region_column_major(grid_width),
    }
}

/// Check that assignments cover every colorable cell exactly once, each
/// in the flag's color, and nothing else: no blank or skipped cell. A run
/// that completes every list of verified assignments therefore colors
/// the flag correctly.
pub fn verify_assignments(
    flag: &PreparedFlag,
    assignments: &[Vec<WorkItem>],
    skip: &[Color],
) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for (i, part) in assignments.iter().enumerate() {
        for item in part {
            if !seen.insert(item.cell) {
                return Err(format!("cell {} assigned twice", item.cell));
            }
            let expected = flag.reference.get(item.cell);
            if expected != item.color {
                return Err(format!(
                    "part {i}: cell {} assigned color {} but flag wants {}",
                    item.cell, item.color, expected
                ));
            }
            if !item.color.is_painted() || skip.contains(&item.color) {
                return Err(format!(
                    "part {i}: cell {} is {}, which nobody colors",
                    item.cell, item.color
                ));
            }
        }
    }
    let expected = flag.total_items(skip);
    if seen.len() != expected {
        return Err(format!("covered {} of {expected} colorable cells", seen.len()));
    }
    Ok(())
}

/// Count color changes along one student's work list — each change means
/// putting down one marker and picking up (possibly waiting for) another.
pub fn color_changes(items: &[WorkItem]) -> usize {
    items
        .windows(2)
        .filter(|w| w[0].color != w[1].color)
        .count()
}

/// The execution-order region of an assignment (for rendering numbered
/// scenario slides with `flagsim_grid::render::to_numbered`).
pub fn assignment_region(items: &[WorkItem]) -> Region {
    Region::from_ids(items.iter().map(|it| it.cell))
}

/// Build the *pipelined* version of the vertical-slice partition: slice
/// `i` visits the flag's `bands` horizontal stripe-bands starting at band
/// `i` and wrapping around. At any instant each student is working in a
/// different band — so on a striped flag each needs a *different* color
/// and the single marker of each color circulates without anyone convoying
/// on it. This is §III-C's "effective coordination strategy … to pass the
/// drawing implements around so that each processor gets the right one at
/// any given moment", and like any pipeline it "takes time to fill" only
/// in the sense that the markers must make their first rotation.
pub fn pipelined_slices(flag: &PreparedFlag, slices: u32, bands: u32) -> Vec<Region> {
    let (w, h) = (flag.width, flag.height);
    let full = geo::Rect::full(w, h);
    let vslices = geo::vertical_slices(full, slices);
    let hbands = geo::horizontal_bands(full, bands);
    vslices
        .iter()
        .enumerate()
        .map(|(i, slice)| {
            let mut r = Region::new();
            for k in 0..bands as usize {
                let band = hbands[(i + k) % bands as usize];
                let block = geo::Rect::new(
                    slice.x0,
                    band.y0,
                    slice.x1,
                    band.y1,
                );
                for id in block.region(w).iter() {
                    r.push(id);
                }
            }
            r
        })
        .collect()
}

/// Failure injection: student `who` drops out after completing
/// `completed` of their cells (phone call, bathroom, gave up on the
/// crayons). The instructor rebalances by dealing the dropout's remaining
/// cells round-robin to the other students, appended after their own
/// work. Returns the rebalanced assignments; panics if `who` is out of
/// range or is the only student.
pub fn rebalance_dropout(
    assignments: &[Vec<WorkItem>],
    who: usize,
    completed: usize,
) -> Vec<Vec<WorkItem>> {
    assert!(who < assignments.len(), "unknown student {who}");
    assert!(
        assignments.len() > 1,
        "cannot rebalance a one-student team"
    );
    let completed = completed.min(assignments[who].len());
    let mut out: Vec<Vec<WorkItem>> = assignments.to_vec();
    let leftover: Vec<WorkItem> = out[who].split_off(completed);
    let survivors: Vec<usize> = (0..assignments.len()).filter(|&i| i != who).collect();
    for (k, item) in leftover.into_iter().enumerate() {
        out[survivors[k % survivors.len()]].push(item);
    }
    out
}

/// Convenience: the four Fig. 1 scenario partitions for a 4-stripe flag.
pub fn fig1_partitions() -> [(&'static str, PartitionStrategy, CellOrder); 4] {
    [
        ("scenario 1: one student", PartitionStrategy::Solo, CellOrder::RowMajor),
        (
            "scenario 2: stripe pairs",
            PartitionStrategy::HorizontalBands(2),
            CellOrder::RowMajor,
        ),
        (
            "scenario 3: one stripe each",
            PartitionStrategy::HorizontalBands(4),
            CellOrder::RowMajor,
        ),
        (
            "scenario 4: vertical slices",
            PartitionStrategy::VerticalSlices(4),
            CellOrder::RowMajor,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::PreparedFlag;
    use flagsim_flags::library;

    fn mauritius() -> PreparedFlag {
        PreparedFlag::new(&library::mauritius())
    }

    #[test]
    fn all_strategies_partition_exactly() {
        let pf = mauritius();
        let strategies = [
            PartitionStrategy::Solo,
            PartitionStrategy::HorizontalBands(2),
            PartitionStrategy::HorizontalBands(4),
            PartitionStrategy::VerticalSlices(4),
            PartitionStrategy::Blocks(2, 2),
            PartitionStrategy::Cyclic(3),
            PartitionStrategy::ByColor,
        ];
        for s in strategies {
            for order in [CellOrder::RowMajor, CellOrder::ColumnMajor] {
                let a = s.assignments(&pf, order, &[]);
                verify_assignments(&pf, &a, &[]).unwrap_or_else(|e| panic!("{s:?}: {e}"));
            }
        }
    }

    #[test]
    fn scenario2_gives_each_student_two_colors() {
        let pf = mauritius();
        let a = PartitionStrategy::HorizontalBands(2).assignments(&pf, CellOrder::RowMajor, &[]);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].len(), 48);
        // P1: red then blue; one color change.
        assert_eq!(color_changes(&a[0]), 1);
        assert_eq!(a[0][0].color, Color::Red);
        assert_eq!(a[0][47].color, Color::Blue);
        assert_eq!(a[1][0].color, Color::Yellow);
    }

    #[test]
    fn scenario3_one_color_per_student() {
        let pf = mauritius();
        let a = PartitionStrategy::HorizontalBands(4).assignments(&pf, CellOrder::RowMajor, &[]);
        assert_eq!(a.len(), 4);
        for part in &a {
            assert_eq!(part.len(), 24);
            assert_eq!(color_changes(part), 0);
        }
    }

    #[test]
    fn scenario4_everyone_needs_every_color() {
        let pf = mauritius();
        let a = PartitionStrategy::VerticalSlices(4).assignments(&pf, CellOrder::RowMajor, &[]);
        assert_eq!(a.len(), 4);
        for part in &a {
            assert_eq!(part.len(), 24);
            // Row-major within slice: 3 color changes (R→B→Y→G).
            assert_eq!(color_changes(part), 3);
            assert_eq!(part[0].color, Color::Red); // everyone starts on red!
        }
    }

    #[test]
    fn column_major_order_thrashes_colors() {
        let pf = mauritius();
        let a =
            PartitionStrategy::VerticalSlices(4).assignments(&pf, CellOrder::ColumnMajor, &[]);
        // Column-major: every column crosses 4 stripes → 3 changes per
        // column × 3 columns + transitions between columns.
        for part in &a {
            assert!(
                color_changes(part) > 3 * 2,
                "expected thrashing, got {} changes",
                color_changes(part)
            );
        }
    }

    #[test]
    fn by_color_matches_stripes_on_mauritius() {
        let pf = mauritius();
        let by_color = PartitionStrategy::ByColor.assignments(&pf, CellOrder::RowMajor, &[]);
        let stripes =
            PartitionStrategy::HorizontalBands(4).assignments(&pf, CellOrder::RowMajor, &[]);
        assert_eq!(by_color, stripes);
    }

    #[test]
    fn skip_colors_removes_work() {
        let pf = PreparedFlag::new(&library::jordan());
        let all = PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        let skipped =
            PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[Color::White]);
        assert!(skipped[0].len() < all[0].len());
        verify_assignments(&pf, &skipped, &[Color::White]).unwrap();
        // Swapping a colorable cell for a skipped one keeps the count
        // but breaks the cover.
        let mut swapped = skipped.clone();
        let white = all[0].iter().find(|it| it.color == Color::White).unwrap();
        swapped[0][0] = *white;
        let err = verify_assignments(&pf, &swapped, &[Color::White]).unwrap_err();
        assert!(err.contains("nobody colors"), "{err}");
    }

    #[test]
    fn fig1_partition_list() {
        let panels = fig1_partitions();
        assert_eq!(panels.len(), 4);
        assert_eq!(panels[0].1.parts(), 1);
        assert_eq!(panels[2].1.parts(), 4);
    }

    #[test]
    fn dropout_rebalancing_preserves_coverage() {
        let pf = mauritius();
        let a = PartitionStrategy::HorizontalBands(4).assignments(&pf, CellOrder::RowMajor, &[]);
        let rebalanced = rebalance_dropout(&a, 2, 10);
        verify_assignments(&pf, &rebalanced, &[]).unwrap();
        assert_eq!(rebalanced[2].len(), 10);
        // The other three absorbed the 14 leftover cells.
        let absorbed: usize = [0usize, 1, 3]
            .iter()
            .map(|&i| rebalanced[i].len() - a[i].len())
            .sum();
        assert_eq!(absorbed, 14);
    }

    #[test]
    fn dropout_at_zero_and_past_end() {
        let pf = mauritius();
        let a = PartitionStrategy::HorizontalBands(2).assignments(&pf, CellOrder::RowMajor, &[]);
        // Dropping out before starting: everything redistributed.
        let all_gone = rebalance_dropout(&a, 0, 0);
        assert!(all_gone[0].is_empty());
        verify_assignments(&pf, &all_gone, &[]).unwrap();
        // "Dropping out" after finishing: nothing changes.
        let nothing = rebalance_dropout(&a, 0, usize::MAX);
        assert_eq!(nothing, a);
    }

    #[test]
    #[should_panic(expected = "one-student team")]
    fn dropout_needs_survivors() {
        let pf = mauritius();
        let a = PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        let _ = rebalance_dropout(&a, 0, 5);
    }

    #[test]
    fn numbered_slide_render() {
        let pf = mauritius();
        let a = PartitionStrategy::HorizontalBands(4).assignments(&pf, CellOrder::RowMajor, &[]);
        let region = assignment_region(&a[0]);
        let slide = flagsim_grid::render::to_numbered(&pf.reference, &region);
        // First cell of P1's stripe is numbered 1.
        assert!(slide.starts_with(" 1"));
    }
}
