//! Reproducible query-instance generation and query streams.

use mdhf::StarQuery;
use schema::StarSchema;
use splitmix::SplitMix;

use crate::bound::BoundQuery;
use crate::queries::QueryType;
use crate::skew::ZipfSampler;

/// A tiny splitmix64 generator for query-parameter selection, so the
/// workload crate depends on no other crate for randomness (SIMPAD's
/// xoshiro256++ streams are private to `simpad`).  Deterministic for a
/// given seed, which is all query-parameter selection needs.
mod splitmix {
    /// Splitmix64 state.
    #[derive(Debug, Clone)]
    pub struct SplitMix(pub u64);

    impl SplitMix {
        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0);
            self.next_u64() % bound
        }
    }
}

/// Generates bound query instances of a fixed type with random parameters.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    schema: StarSchema,
    query_type: QueryType,
    shape: StarQuery,
    rng: SplitMix,
    generated: u64,
    /// One Zipf sampler per predicate when value skew is enabled; `None`
    /// keeps the paper's uniform parameter selection.
    value_skew: Option<Vec<ZipfSampler>>,
}

impl QueryGenerator {
    /// Creates a generator for `query_type` with the given seed.
    #[must_use]
    pub fn new(schema: &StarSchema, query_type: QueryType, seed: u64) -> Self {
        let shape = query_type.to_star_query(schema);
        QueryGenerator {
            schema: schema.clone(),
            query_type,
            shape,
            rng: SplitMix(seed ^ 0xA5A5_A5A5_5A5A_5A5A),
            generated: 0,
            value_skew: None,
        }
    }

    /// Draws every predicate value from a Zipf(θ) distribution over its
    /// attribute's cardinality instead of uniformly — the attribute-value
    /// skew of hot-spot workloads (value 0 is the hottest).  `theta = 0`
    /// disables the samplers and reproduces the uniform generator's
    /// instance sequence exactly.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or not finite.
    #[must_use]
    pub fn with_value_skew(mut self, theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta >= 0.0,
            "skew factor must be finite and non-negative"
        );
        self.value_skew = (theta > 0.0).then(|| {
            self.shape
                .predicates()
                .iter()
                .map(|p| ZipfSampler::new(p.attr.cardinality(&self.schema), theta))
                .collect()
        });
        self
    }

    /// The query type this generator instantiates.
    #[must_use]
    pub fn query_type(&self) -> &QueryType {
        &self.query_type
    }

    /// Number of instances generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Generates the next instance: uniformly random parameter values by
    /// default, Zipf-skewed ones under [`QueryGenerator::with_value_skew`].
    pub fn next_instance(&mut self) -> BoundQuery {
        let values: Vec<u64> = match &self.value_skew {
            Some(samplers) => samplers
                .iter()
                .map(|s| s.sample_u64(self.rng.next_u64()))
                .collect(),
            None => self
                .shape
                .predicates()
                .iter()
                .map(|p| self.rng.below(p.attr.cardinality(&self.schema)))
                .collect(),
        };
        self.generated += 1;
        BoundQuery::new(&self.schema, self.shape.clone(), values)
    }

    /// Generates a batch of `count` instances.
    pub fn batch(&mut self, count: usize) -> Vec<BoundQuery> {
        (0..count).map(|_| self.next_instance()).collect()
    }
}

/// How queries arrive at the system.
///
/// The paper's initial study is single-user ("queries are issued sequentially
/// with a new query starting as soon as the previous one has terminated");
/// multi-user mode is listed as future work and provided here as an
/// extension: a closed workload with a fixed number of concurrent query
/// streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStream {
    /// One query at a time, back to back.
    SingleUser,
    /// `streams` independent users, each issuing its next query as soon as
    /// its previous one finishes (closed multi-user workload).
    MultiUser {
        /// Number of concurrent query streams.
        streams: usize,
    },
}

impl QueryStream {
    /// The number of queries that are in the system concurrently.
    #[must_use]
    pub fn concurrency(&self) -> usize {
        match self {
            QueryStream::SingleUser => 1,
            QueryStream::MultiUser { streams } => (*streams).max(1),
        }
    }
}

/// A deterministic multi-user query stream mixing several query types.
///
/// Each type gets its own per-seed [`QueryGenerator`] (so adding a type to
/// the mix never perturbs the instances of the others) and queries are
/// interleaved round-robin — the submission order a concurrent scheduler
/// admits them in.
#[derive(Debug, Clone)]
pub struct InterleavedStream {
    generators: Vec<QueryGenerator>,
    next: usize,
}

impl InterleavedStream {
    /// Creates a stream over `types`, derived deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `types` is empty.
    #[must_use]
    pub fn new(schema: &StarSchema, types: &[QueryType], seed: u64) -> Self {
        assert!(!types.is_empty(), "a stream needs at least one query type");
        InterleavedStream {
            generators: types
                .iter()
                .enumerate()
                .map(|(i, t)| QueryGenerator::new(schema, t.clone(), seed ^ ((i as u64) << 32)))
                .collect(),
            next: 0,
        }
    }

    /// Applies [`QueryGenerator::with_value_skew`] to every generator of
    /// the mix — a deterministic hot-spot stream.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or not finite.
    #[must_use]
    pub fn with_value_skew(mut self, theta: f64) -> Self {
        self.generators = self
            .generators
            .into_iter()
            .map(|g| g.with_value_skew(theta))
            .collect();
        self
    }

    /// The next query of the stream (round-robin over the mixed types).
    pub fn next_query(&mut self) -> BoundQuery {
        let current = self.next;
        self.next = (self.next + 1) % self.generators.len();
        self.generators[current].next_instance()
    }

    /// The next `count` queries of the stream.
    pub fn take_queries(&mut self, count: usize) -> Vec<BoundQuery> {
        (0..count).map(|_| self.next_query()).collect()
    }

    /// Total queries generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generators.iter().map(QueryGenerator::generated).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    #[test]
    fn generation_is_reproducible() {
        let s = apb1_schema();
        let mut g1 = QueryGenerator::new(&s, QueryType::OneMonthOneGroup, 99);
        let mut g2 = QueryGenerator::new(&s, QueryType::OneMonthOneGroup, 99);
        let a = g1.batch(20);
        let b = g2.batch(20);
        assert_eq!(a, b);
        assert_eq!(g1.generated(), 20);
        let mut g3 = QueryGenerator::new(&s, QueryType::OneMonthOneGroup, 100);
        assert_ne!(g3.batch(20), a);
    }

    #[test]
    fn values_stay_within_cardinalities_and_vary() {
        let s = apb1_schema();
        let mut g = QueryGenerator::new(&s, QueryType::OneStore, 7);
        let instances = g.batch(200);
        let mut distinct = std::collections::BTreeSet::new();
        for inst in &instances {
            let store = inst.values()[0];
            assert!(store < 1_440);
            distinct.insert(store);
        }
        // Uniform selection over 1 440 stores should produce many distinct
        // values in 200 draws.
        assert!(distinct.len() > 100, "{}", distinct.len());
    }

    #[test]
    fn generator_matches_query_type() {
        let s = apb1_schema();
        let mut g = QueryGenerator::new(&s, QueryType::OneCodeOneQuarter, 1);
        assert_eq!(g.query_type().name(), "1CODE1QUARTER");
        let inst = g.next_instance();
        assert_eq!(inst.query().predicates().len(), 2);
        assert!(inst.values()[0] < 14_400);
        assert!(inst.values()[1] < 8);
    }

    #[test]
    fn stream_concurrency() {
        assert_eq!(QueryStream::SingleUser.concurrency(), 1);
        assert_eq!(QueryStream::MultiUser { streams: 8 }.concurrency(), 8);
        assert_eq!(QueryStream::MultiUser { streams: 0 }.concurrency(), 1);
    }

    #[test]
    fn interleaved_stream_cycles_types_deterministically() {
        let s = apb1_schema();
        let types = [
            QueryType::OneMonthOneGroup,
            QueryType::OneStore,
            QueryType::OneCode,
        ];
        let mut a = InterleavedStream::new(&s, &types, 7);
        let mut b = InterleavedStream::new(&s, &types, 7);
        let batch_a = a.take_queries(9);
        assert_eq!(batch_a, b.take_queries(9));
        assert_eq!(a.generated(), 9);
        // Round-robin: query i has the shape of types[i % 3].
        for (i, q) in batch_a.iter().enumerate() {
            assert_eq!(q.query().name(), types[i % 3].name());
        }
        // A different seed yields different instances.
        let mut c = InterleavedStream::new(&s, &types, 8);
        assert_ne!(c.take_queries(9), batch_a);
        // Dropping a type from the mix leaves the remaining generators'
        // instance sequences untouched.
        let mut two = InterleavedStream::new(&s, &types[..2], 7);
        let pairs = two.take_queries(6);
        for (i, q) in pairs.iter().enumerate() {
            assert_eq!(q, &batch_a[(i / 2) * 3 + (i % 2)]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one query type")]
    fn empty_stream_mix_rejected() {
        let _ = InterleavedStream::new(&apb1_schema(), &[], 1);
    }

    #[test]
    fn value_skew_concentrates_queries_on_hot_values() {
        let s = apb1_schema();
        let batch = QueryGenerator::new(&s, QueryType::OneStore, 7)
            .with_value_skew(1.0)
            .batch(400);
        // Under Zipf θ = 1 over 1 440 stores, the hottest store (~12 % of
        // draws) dominates; a uniform generator gives each ~0.07 %.
        let hot = batch.iter().filter(|q| q.values()[0] == 0).count();
        assert!(hot > 20, "hot-value draws: {hot}");
        assert!(batch.iter().all(|q| q.values()[0] < 1_440));
        // Reproducible for a fixed seed.
        let again = QueryGenerator::new(&s, QueryType::OneStore, 7)
            .with_value_skew(1.0)
            .batch(400);
        assert_eq!(batch, again);
    }

    #[test]
    fn zero_skew_matches_the_uniform_generator_exactly() {
        let s = apb1_schema();
        let uniform = QueryGenerator::new(&s, QueryType::OneMonthOneGroup, 42).batch(50);
        let zero_skew = QueryGenerator::new(&s, QueryType::OneMonthOneGroup, 42)
            .with_value_skew(0.0)
            .batch(50);
        assert_eq!(uniform, zero_skew);
    }

    #[test]
    fn skewed_interleaved_stream_is_deterministic() {
        let s = apb1_schema();
        let types = [QueryType::OneMonthOneGroup, QueryType::OneCode];
        let mut a = InterleavedStream::new(&s, &types, 11).with_value_skew(1.0);
        let mut b = InterleavedStream::new(&s, &types, 11).with_value_skew(1.0);
        assert_eq!(a.take_queries(12), b.take_queries(12));
    }
}
