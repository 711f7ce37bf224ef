//! The one-execution-path contract: a single query's `execute` is the
//! scheduler's stream of one query at MPL 1.

#![forbid(unsafe_code)]

use allocation::{NodeStrategy, PhysicalAllocation};
use exec::{ExecConfig, FragmentStore, IoConfig, ObsConfig, SchedulerConfig, StarJoinEngine};
use mdhf::Fragmentation;
use proptest::prelude::*;
use schema::apb1::Apb1Config;
use workload::{BoundQuery, QueryType};

/// A deliberately tiny schema so each case (store build + two executions)
/// stays fast in debug builds.
fn tiny_schema() -> schema::StarSchema {
    Apb1Config {
        channels: 3,
        months: 6,
        stores: 16,
        product_codes: 24,
        density: 0.2,
        fact_tuple_bytes: 20,
    }
    .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `execute(q)` is the stream of one at MPL 1, for every worker
    /// count, with and without placement, with the I/O layer off, flat
    /// or on a 2-node shared-nothing subsystem, traced or not: the same
    /// hits, sum bits, simulated I/O metrics and deterministic trace
    /// section.
    #[test]
    fn prop_execute_is_a_stream_of_one(
        type_idx in 0usize..5,
        raw_values in proptest::collection::vec(0u64..100_000, 2),
        seed in 1u64..1_000,
        workers in 1usize..5,
        placed in proptest::bool::ANY,
        io_mode in 0usize..3,
        traced in proptest::bool::ANY,
    ) {
        let schema = tiny_schema();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let engine = StarJoinEngine::new(FragmentStore::build(&schema, &fragmentation, seed));

        let shape = QueryType::standard_mix()[type_idx].to_star_query(&schema);
        let values: Vec<u64> = shape
            .predicates()
            .iter()
            .zip(raw_values.iter().chain(std::iter::repeat(&0)))
            .map(|(p, &raw)| raw % p.attr.cardinality(&schema))
            .collect();
        let bound = BoundQuery::new(&schema, shape, values);

        let flat = IoConfig::with_disks(4).cache(256);
        let config = ExecConfig {
            workers,
            placement: placed.then(|| PhysicalAllocation::round_robin(4)),
            io: [
                None,
                Some(flat),
                Some(IoConfig {
                    nodes: 2,
                    node_strategy: NodeStrategy::SharedNothing,
                    ..flat
                }),
            ][io_mode],
            obs: if traced { ObsConfig::enabled() } else { ObsConfig::default() },
        };
        let single = engine.execute(&bound, &config);
        let stream = engine.execute_stream(
            std::slice::from_ref(&bound),
            &SchedulerConfig { exec: config, max_in_flight: 1 },
        );
        let [query] = <[_; 1]>::try_from(stream.queries).unwrap();
        prop_assert_eq!(single.hits, query.hits);
        let single_bits: Vec<u64> = single.measure_sums.iter().map(|s| s.to_bits()).collect();
        let stream_bits: Vec<u64> = query.measure_sums.iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(single_bits, stream_bits);
        prop_assert_eq!(single.metrics.io.as_ref(), stream.metrics.pool.io.as_ref());
        prop_assert_eq!(single.trace.is_some(), traced);
        if let (Some(a), Some(b)) = (&single.trace, &stream.trace) {
            prop_assert_eq!(a.dropped, 0);
            prop_assert_eq!(a.deterministic_events(), b.deterministic_events());
            prop_assert_eq!(a.digest(), b.digest());
        }
    }
}
