//! Fixture: measure columns summed only through the lane kernel; other
//! reductions and look-alike names are not measure sums.

pub fn totals(fragment: &Fragment, rows: &[usize]) -> (f64, f64, usize) {
    let whole = sum_column(fragment.measure_column(0));
    let mut selected = 0.0;
    for &row in rows {
        selected += fragment.measure_column(1)[row];
    }
    let bytes: usize = encode_measure_column(fragment.measure_column(2)).len();
    let encoded: usize = encode_measure_column_sizes(rows).iter().sum();
    // A comment may say measure_column(0).iter().sum() without a finding.
    (whole, selected, bytes + encoded)
}

#[cfg(test)]
mod tests {
    fn reference(fragment: &Fragment) -> f64 {
        fragment.measure_column(0).iter().sum()
    }
}
