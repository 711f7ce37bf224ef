//! Enumeration of candidate fragmentations and the Table 2 census.
//!
//! For a star schema with dimensions `D₁…D_k` having `h_i` hierarchy levels
//! each, the candidate point fragmentations are all non-empty choices of a
//! subset of dimensions together with one level per chosen dimension.  For
//! APB-1 (6 + 2 + 3 + 1 levels) this yields 12 one-dimensional, 47
//! two-dimensional, 72 three-dimensional and 36 four-dimensional options —
//! 167 in total, which Table 2 then filters by minimum bitmap-fragment size.

use schema::{AttrRef, PageSizing, StarSchema};

use crate::fragmentation::Fragmentation;

/// Enumerates every candidate point fragmentation of `schema`, grouped by
/// nothing in particular (ascending dimensionality, then lexicographic).
#[must_use]
pub fn enumerate_fragmentations(schema: &StarSchema) -> Vec<Fragmentation> {
    let dims = schema.dimension_count();
    let mut out = Vec::new();
    // Iterate over all non-empty dimension subsets via bitmask, then over the
    // cartesian product of level choices for the chosen dimensions.
    for mask in 1u32..(1u32 << dims) {
        let chosen: Vec<usize> = (0..dims).filter(|d| mask & (1 << d) != 0).collect();
        let depths: Vec<usize> = chosen
            .iter()
            .map(|&d| schema.dimensions()[d].hierarchy().depth())
            .collect();
        let mut levels = vec![0usize; chosen.len()];
        loop {
            let attrs: Vec<AttrRef> = chosen
                .iter()
                .zip(&levels)
                .map(|(&d, &l)| AttrRef::new(d, l))
                .collect();
            out.push(
                Fragmentation::new(schema, attrs).expect("enumerated attrs are valid and unique"),
            );
            // Advance the mixed-radix level counter.
            let mut i = 0;
            loop {
                if i == levels.len() {
                    break;
                }
                levels[i] += 1;
                if levels[i] < depths[i] {
                    break;
                }
                levels[i] = 0;
                i += 1;
            }
            if i == levels.len() {
                break;
            }
        }
    }
    out.sort_by_key(|f| (f.dimensionality(), f.fragment_count()));
    out
}

/// One row of Table 2: for a given fragmentation dimensionality, how many
/// candidate fragmentations satisfy each minimum bitmap-fragment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Row {
    /// Number of fragmentation dimensions (1–4 for APB-1).
    pub dimensions: usize,
    /// Candidates with no size constraint.
    pub any: usize,
    /// Candidates with bitmap fragments of at least 1 page.
    pub at_least_1_page: usize,
    /// Candidates with bitmap fragments of at least 4 pages.
    pub at_least_4_pages: usize,
    /// Candidates with bitmap fragments of at least 8 pages.
    pub at_least_8_pages: usize,
}

/// Computes the Table 2 census for `schema`: candidate counts per
/// dimensionality under minimum bitmap-fragment-size constraints, plus a
/// final "total" row (`dimensions == 0` marks the total).
#[must_use]
pub fn table2_census(schema: &StarSchema) -> Vec<Table2Row> {
    let sizing = PageSizing::new(schema);
    let candidates = enumerate_fragmentations(schema);
    let max_dims = schema.dimension_count();
    let mut rows = Vec::new();
    let mut totals = Table2Row {
        dimensions: 0,
        any: 0,
        at_least_1_page: 0,
        at_least_4_pages: 0,
        at_least_8_pages: 0,
    };
    for m in 1..=max_dims {
        let mut row = Table2Row {
            dimensions: m,
            any: 0,
            at_least_1_page: 0,
            at_least_4_pages: 0,
            at_least_8_pages: 0,
        };
        for f in candidates.iter().filter(|f| f.dimensionality() == m) {
            let pages = sizing.bitmap_fragment_pages(f.fragment_count());
            row.any += 1;
            if pages >= 1.0 {
                row.at_least_1_page += 1;
            }
            if pages >= 4.0 {
                row.at_least_4_pages += 1;
            }
            if pages >= 8.0 {
                row.at_least_8_pages += 1;
            }
        }
        totals.any += row.any;
        totals.at_least_1_page += row.at_least_1_page;
        totals.at_least_4_pages += row.at_least_4_pages;
        totals.at_least_8_pages += row.at_least_8_pages;
        rows.push(row);
    }
    rows.push(totals);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    #[test]
    fn enumeration_counts_by_dimensionality() {
        // "For our sample schema, there are 168 possible fragmentations"
        // (the table itself sums to 167: 12 + 47 + 72 + 36).
        let s = apb1_schema();
        let all = enumerate_fragmentations(&s);
        let count = |m: usize| all.iter().filter(|f| f.dimensionality() == m).count();
        assert_eq!(count(1), 12);
        assert_eq!(count(2), 47);
        assert_eq!(count(3), 72);
        assert_eq!(count(4), 36);
        assert_eq!(all.len(), 167);
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let s = apb1_schema();
        let all = enumerate_fragmentations(&s);
        let mut keys: Vec<Vec<(usize, usize)>> = all
            .iter()
            .map(|f| {
                let mut attrs: Vec<(usize, usize)> =
                    f.attrs().iter().map(|a| (a.dimension, a.level)).collect();
                attrs.sort_unstable();
                attrs
            })
            .collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn table_2_census_matches_paper_shape() {
        // Table 2 of the paper:
        //   dims | any | ≥1 page | ≥4 pages | ≥8 pages
        //    1   |  12 |   12    |    12    |   11
        //    2   |  47 |   37    |    31    |   27
        //    3   |  72 |   22    |    13    |    9
        //    4   |  36 |    1    |     –    |    –
        //  total | 167 |   72    |    56    |   47
        //
        // The unconstrained column is pure combinatorics and must match
        // exactly.  The constrained columns depend on how the authors rounded
        // fractional page sizes at the thresholds (e.g. product::code gives
        // 3.955-page bitmap fragments, which the paper counts as "≥ 4
        // pages"); we use exact fractional sizes and therefore allow a small
        // tolerance around the published counts.
        let s = apb1_schema();
        let rows = table2_census(&s);
        assert_eq!(rows.len(), 5);
        let by_dim = |d: usize| *rows.iter().find(|r| r.dimensions == d).unwrap();
        // Per-dimensionality rows stay within ±3 of the published counts; the
        // total row accumulates those rounding differences, so allow ±6.
        let close = |actual: usize, paper: usize, dims: usize| {
            (actual as i64 - paper as i64).abs() <= if dims == 0 { 6 } else { 3 }
        };

        let paper = [
            (1usize, 12usize, 12usize, 12usize, 11usize),
            (2, 47, 37, 31, 27),
            (3, 72, 22, 13, 9),
            (4, 36, 1, 0, 0),
            (0, 167, 72, 56, 47),
        ];
        for (dims, any, p1, p4, p8) in paper {
            let row = by_dim(dims);
            assert_eq!(row.any, any, "dims {dims}: unconstrained count");
            assert!(close(row.at_least_1_page, p1, dims), "dims {dims}: {row:?}");
            assert!(
                close(row.at_least_4_pages, p4, dims),
                "dims {dims}: {row:?}"
            );
            assert!(
                close(row.at_least_8_pages, p8, dims),
                "dims {dims}: {row:?}"
            );
        }
        // The qualitative message of Table 2 holds exactly: the constraint
        // removes ~½ to ~¾ of the options, and of the 36 four-dimensional
        // candidates at most one survives even the 1-page constraint.
        let total = by_dim(0);
        assert!(total.at_least_1_page * 2 <= total.any + 3);
        assert!(total.at_least_8_pages * 4 >= total.any - 20);
        assert!(by_dim(4).at_least_1_page <= 1);
        assert_eq!(by_dim(4).at_least_4_pages, 0);
    }

    #[test]
    fn census_columns_are_monotone() {
        let s = apb1_schema();
        for row in table2_census(&s) {
            assert!(row.any >= row.at_least_1_page);
            assert!(row.at_least_1_page >= row.at_least_4_pages);
            assert!(row.at_least_4_pages >= row.at_least_8_pages);
        }
    }

    #[test]
    fn enumeration_is_sorted_by_dimensionality_then_size() {
        let s = apb1_schema();
        let all = enumerate_fragmentations(&s);
        for pair in all.windows(2) {
            let key = |f: &Fragmentation| (f.dimensionality(), f.fragment_count());
            assert!(key(&pair[0]) <= key(&pair[1]));
        }
    }
}
