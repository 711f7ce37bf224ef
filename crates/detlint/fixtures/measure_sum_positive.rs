//! Fixture: whole measure columns summed in ad-hoc orders.

pub fn totals(fragment: &Fragment) -> [f64; 3] {
    let a = fragment.measure_column(0).iter().sum();
    let b = fragment.measure_column(1).iter().sum::<f64>();
    let c = fragment.measure_column(2).iter().fold(0.0, |acc, &x| acc + x);
    [a, b, c]
}
