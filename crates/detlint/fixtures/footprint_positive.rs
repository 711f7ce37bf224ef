//! Fixture: a subquery's pages and bitmaps counted by hand.

pub fn subquery_pages(catalog: &IndexCatalog, sizing: &PageSizing, rows: u64) -> u64 {
    let bitmaps = catalog.spec(0).bitmaps_for_selection(2);
    let fact_pages = rows.div_ceil(sizing.fact_tuples_per_page());
    fact_pages + bitmaps
}
