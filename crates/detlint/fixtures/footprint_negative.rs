//! Fixture: a subquery's pages read from its footprint; look-alike names,
//! comments and test code are not copies of the arithmetic.

pub fn subquery_pages(classification: &Classification, catalog: &IndexCatalog) -> u64 {
    let bitmaps = classification.bitmaps_per_subquery(catalog);
    let read = index.bitmaps_read_for_selection(2);
    // A comment may say fact_tuples_per_page() without a finding.
    bitmaps + read
}

#[cfg(test)]
mod tests {
    fn reference(sizing: &PageSizing) -> u64 {
        sizing.fact_tuples_per_page()
    }
}
