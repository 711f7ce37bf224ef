//! Pinned result bits: the hits and the `f64::to_bits` of every measure sum
//! of the eight query types, recorded once and asserted for ever after.
//!
//! The other bit-identity tests compare the engine with itself — across
//! worker counts, MPLs, policies and backings — so a change that moved
//! every configuration's result the same way would pass them all.  These
//! constants were recorded before selection moved in place (borrowed
//! simple bitmaps, AND-into-scratch encoded patterns, per-task sums in a
//! per-query buffer); every fragmentation and representation policy below
//! must still reproduce them exactly.
//!
//! The generated measures are whole numbers (1..=1000), so these sums are
//! exact in `f64` whatever the addition order: the pins catch a change in
//! *which* rows are selected and aggregated, not a reordering.

#![forbid(unsafe_code)]

use bitmap::RepresentationPolicy;
use exec::{FragmentStore, RunConfig, StarJoinEngine};
use mdhf::Fragmentation;
use schema::apb1::apb1_scaled_down;
use workload::{BoundQuery, QueryType};

/// `(query type, bound values, hits, measure-sum bits)`.
fn pins() -> Vec<(QueryType, Vec<u64>, u64, [u64; 3])> {
    vec![
        (
            QueryType::OneStore,
            vec![7],
            193,
            [
                0x40f8_ee20_0000_0000,
                0x40f6_5f80_0000_0000,
                0x40f7_8f00_0000_0000,
            ],
        ),
        (
            QueryType::OneMonth,
            vec![5],
            707,
            [
                0x4115_84f4_0000_0000,
                0x4114_d094_0000_0000,
                0x4115_c4d0_0000_0000,
            ],
        ),
        (
            QueryType::OneCode,
            vec![65],
            79,
            [
                0x40e1_9840_0000_0000,
                0x40e4_8860_0000_0000,
                0x40e3_7720_0000_0000,
            ],
        ),
        (
            QueryType::OneMonthOneGroup,
            vec![3, 1],
            17,
            [
                0x40c1_6500_0000_0000,
                0x40c3_ba00_0000_0000,
                0x40c0_6a80_0000_0000,
            ],
        ),
        (
            QueryType::OneCodeOneQuarter,
            vec![100, 2],
            14,
            [
                0x40bb_9700_0000_0000,
                0x40b1_1e00_0000_0000,
                0x40bb_7e00_0000_0000,
            ],
        ),
        (
            QueryType::OneGroup,
            vec![9],
            331,
            [
                0x4104_5fa0_0000_0000,
                0x4104_0220_0000_0000,
                0x4104_1160_0000_0000,
            ],
        ),
        (
            QueryType::OneQuarter,
            vec![1],
            2129,
            [
                0x4130_7782_0000_0000,
                0x4130_1c6c_0000_0000,
                0x4130_5b79_0000_0000,
            ],
        ),
        (
            QueryType::OneGroupOneStore,
            vec![4, 11],
            9,
            [
                0x40b2_2b00_0000_0000,
                0x40ad_8a00_0000_0000,
                0x40b0_c600_0000_0000,
            ],
        ),
    ]
}

#[test]
fn eight_query_types_reproduce_their_pinned_bits() {
    let schema = apb1_scaled_down();
    // Month x group prunes the time and group predicates (a lone simple or
    // encoded predicate per fragment); channel alone leaves every predicate
    // to a bitmap (simple x encoded and simple x simple intersections).
    for attrs in [
        &["time::month", "product::group"][..],
        &["channel::channel"],
    ] {
        let fragmentation = Fragmentation::parse(&schema, attrs).unwrap();
        for policy in [
            RepresentationPolicy::default(),
            RepresentationPolicy::Plain,
            RepresentationPolicy::Wah,
            RepresentationPolicy::Roaring,
        ] {
            let engine = StarJoinEngine::new(FragmentStore::build_with_policy(
                &schema,
                &fragmentation,
                2024,
                policy,
            ));
            for (query_type, values, hits, bits) in pins() {
                let bound = BoundQuery::new(&schema, query_type.to_star_query(&schema), values);
                for workers in [1, 2] {
                    let result = engine.execute(
                        &bound,
                        &RunConfig {
                            workers,
                            ..RunConfig::default()
                        },
                    );
                    let got: Vec<u64> = result.measure_sums.iter().map(|s| s.to_bits()).collect();
                    let context = format!("{} {attrs:?} {policy:?} {workers}w", result.query_name);
                    assert_eq!(result.hits, hits, "{context}");
                    assert_eq!(got, bits, "{context}");
                }
            }
        }
    }
}
