//! Track-based disk service-time model.
//!
//! Each disk request is characterised by the track it targets and the number
//! of (consecutive) pages it transfers.  The service time is
//!
//! ```text
//! seek(track distance) + settle/controller delay + pages × transfer time
//! ```
//!
//! where the seek time grows with the distance between the previous request's
//! track and the new one, calibrated so that a seek over a random distance
//! averages the configured `avg_seek_ms` (Table 4: 10 ms).  Sequential
//! requests on the same track therefore pay no seek — the effect that makes
//! large prefetch granules and clustered hits worthwhile.
//!
//! [`FcfsQueue`] is the FIFO server in front of such a disk — and of every
//! other resource the simulations model "explicitly as servers" (paper §5):
//! SIMPAD's disks and CPUs and the measured engine's simulated disk and
//! interconnect lanes.

/// Static parameters of the disk model (Table 4 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParameters {
    /// Average seek time over a uniformly random track distance, in ms.
    pub avg_seek_ms: f64,
    /// Settle time plus controller delay per access, in ms.
    pub settle_controller_ms: f64,
    /// Transfer time per page, in ms.
    pub per_page_ms: f64,
    /// Number of tracks (cylinders) used by the seek-distance model.
    pub tracks: u64,
}

impl Default for DiskParameters {
    fn default() -> Self {
        DiskParameters {
            avg_seek_ms: 10.0,
            settle_controller_ms: 3.0,
            per_page_ms: 1.0,
            tracks: 10_000,
        }
    }
}

/// The mutable state of one disk: the arm position left by the last request.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskModel {
    params: DiskParameters,
    current_track: u64,
    total_seek_ms: f64,
}

impl DiskModel {
    /// Creates a disk with the arm parked at track 0.
    #[must_use]
    pub fn new(params: DiskParameters) -> Self {
        DiskModel {
            params,
            current_track: 0,
            total_seek_ms: 0.0,
        }
    }

    /// The disk's static parameters.
    #[must_use]
    pub fn parameters(&self) -> DiskParameters {
        self.params
    }

    /// The track the arm currently rests on.
    #[must_use]
    pub fn current_track(&self) -> u64 {
        self.current_track
    }

    /// Seek time for moving the arm over `distance` tracks.
    ///
    /// A uniformly random distance between two independent uniform track
    /// positions averages `tracks / 3`, so scaling linearly by
    /// `3 · avg_seek · distance / tracks` reproduces the configured average
    /// seek time for random access while giving zero cost to sequential
    /// access.
    #[must_use]
    pub fn seek_time_ms(&self, distance: u64) -> f64 {
        if distance == 0 {
            return 0.0;
        }
        3.0 * self.params.avg_seek_ms * distance as f64 / self.params.tracks as f64
    }

    /// Services a request for `pages` consecutive pages at `track`, returning
    /// the service time in milliseconds and advancing the arm.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero or `track` is beyond the last track.
    pub fn service(&mut self, track: u64, pages: u64) -> f64 {
        assert!(pages > 0, "a disk request must transfer at least one page");
        assert!(
            track < self.params.tracks,
            "track {track} out of range (< {})",
            self.params.tracks
        );
        let distance = self.current_track.abs_diff(track);
        let seek = self.seek_time_ms(distance);
        let service =
            seek + self.params.settle_controller_ms + pages as f64 * self.params.per_page_ms;
        self.current_track = track;
        self.total_seek_ms += seek;
        service
    }

    /// Maps a page number of a data set occupying `total_pages` pages onto a
    /// track, assuming the data set is laid out contiguously across the
    /// disk's tracks.
    #[must_use]
    pub fn track_of_page(&self, page: u64, total_pages: u64) -> u64 {
        if total_pages <= 1 {
            return 0;
        }
        let page = page.min(total_pages - 1);
        (page * (self.params.tracks - 1)) / (total_pages - 1)
    }

    /// Total seek time spent, in ms.
    #[must_use]
    pub fn total_seek_ms(&self) -> f64 {
        self.total_seek_ms
    }
}

/// A first-come-first-served server: one disk, CPU or interconnect lane
/// with a FIFO waiting queue.
///
/// Requests are served strictly in submission order.  A request arriving at
/// `now` starts at `max(now, free_at)` and holds the server for its service
/// time.  The queue is passive: it never looks at a clock, the caller
/// submits work and schedules its own completion.  With every arrival at
/// `now = 0` it models a batch, and [`FcfsQueue::free_at`] is the makespan
/// of everything submitted so far.
///
/// All times are in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FcfsQueue {
    free_at: f64,
    busy_ms: f64,
    wait_ms: f64,
}

impl FcfsQueue {
    /// Submits a request arriving at `now` that needs `service` ms, and
    /// returns the `(start, end)` of its service.
    pub fn submit(&mut self, now: f64, service: f64) -> (f64, f64) {
        // Spelled out rather than `f64::max`, which may pick either zero
        // of ±0 and treats NaN differently: the goldens were recorded with
        // exactly this comparison.
        let start = if self.free_at >= now {
            self.free_at
        } else {
            now
        };
        let end = start + service;
        self.wait_ms += start - now;
        self.busy_ms += service;
        self.free_at = end;
        (start, end)
    }

    /// The time at which the queue drains, given the work submitted so far.
    #[must_use]
    pub fn free_at(&self) -> f64 {
        self.free_at
    }

    /// Total service time of the submitted requests.
    #[must_use]
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Total time the submitted requests waited before their service
    /// started.
    #[must_use]
    pub fn wait_ms(&self) -> f64 {
        self.wait_ms
    }

    /// Share of `[0, horizon]` the server was busy, at most 1 (0 for a
    /// zero horizon).
    #[must_use]
    pub fn utilisation(&self, horizon: f64) -> f64 {
        if horizon == 0.0 {
            return 0.0;
        }
        (self.busy_ms / horizon).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_access_pays_no_seek() {
        let mut d = DiskModel::new(DiskParameters::default());
        let t1 = d.service(100, 8);
        // Same track again: settle (3 ms) + 8 pages (8 ms) = 11 ms.
        let t2 = d.service(100, 8);
        assert!(t1 > t2);
        assert!((t2 - 11.0).abs() < 1e-9, "{t2}");
        assert_eq!(d.current_track(), 100);
    }

    #[test]
    fn single_page_random_read_costs_about_14_ms() {
        // Table 4 arithmetic: ~10 ms seek + 3 ms settle + 1 ms per page.
        let mut d = DiskModel::new(DiskParameters::default());
        // A seek over a third of the disk equals the average seek time.
        let service = d.service(10_000 / 3, 1);
        assert!((service - 14.0).abs() < 0.1, "{service}");
    }

    #[test]
    fn average_random_seek_matches_parameter() {
        // Averaging the seek model over many random track pairs must
        // reproduce avg_seek_ms (within sampling error of the deterministic
        // stride used here).
        let d = DiskModel::new(DiskParameters::default());
        let tracks = d.parameters().tracks;
        let mut total = 0.0;
        let mut count = 0u64;
        for a in (0..tracks).step_by(101) {
            for b in (0..tracks).step_by(103) {
                total += d.seek_time_ms(a.abs_diff(b));
                count += 1;
            }
        }
        let mean = total / count as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean random seek {mean} ms");
    }

    #[test]
    fn transfer_time_scales_with_pages() {
        let mut d = DiskModel::new(DiskParameters::default());
        d.service(0, 1);
        let one = d.service(0, 1);
        let eight = d.service(0, 8);
        assert!((eight - one - 7.0).abs() < 1e-9);
    }

    #[test]
    fn track_of_page_spans_whole_disk() {
        let d = DiskModel::new(DiskParameters::default());
        assert_eq!(d.track_of_page(0, 1_000), 0);
        assert_eq!(d.track_of_page(999, 1_000), 9_999);
        let mid = d.track_of_page(500, 1_000);
        assert!((4_900..=5_100).contains(&mid), "{mid}");
        // Degenerate cases.
        assert_eq!(d.track_of_page(0, 1), 0);
        assert_eq!(d.track_of_page(5, 1), 0);
    }

    #[test]
    fn statistics_accumulate() {
        let mut d = DiskModel::new(DiskParameters::default());
        assert_eq!(d.total_seek_ms(), 0.0);
        let first = d.service(0, 4);
        assert_eq!(d.total_seek_ms(), 0.0);
        let second = d.service(5_000, 4);
        assert!(d.total_seek_ms() > 0.0);
        assert_eq!(d.total_seek_ms(), second - first);
    }

    #[test]
    fn fcfs_serialises_overlapping_requests() {
        let mut disk = FcfsQueue::default();
        assert_eq!(disk.submit(0.0, 10.0), (0.0, 10.0));
        // The second request arrives while the first is in service: it waits.
        assert_eq!(disk.submit(2.0, 10.0), (10.0, 20.0));
        assert_eq!(disk.wait_ms(), 8.0);
        assert_eq!(disk.busy_ms(), 20.0);
        assert_eq!(disk.free_at(), 20.0);
    }

    #[test]
    fn fcfs_idle_gap_resets_start_time() {
        let mut disk = FcfsQueue::default();
        disk.submit(0.0, 5.0);
        assert_eq!(disk.submit(100.0, 5.0), (100.0, 105.0));
        assert_eq!(disk.free_at(), 105.0);
        assert_eq!(disk.wait_ms(), 0.0);
        assert_eq!(disk.busy_ms(), 10.0);
    }

    #[test]
    fn fcfs_utilisation_bounded_by_one() {
        let mut disk = FcfsQueue::default();
        for _ in 0..10 {
            disk.submit(0.0, 10.0);
        }
        assert_eq!(disk.busy_ms(), 100.0);
        assert_eq!(disk.utilisation(100.0), 1.0);
        assert_eq!(disk.utilisation(50.0), 1.0);
        assert_eq!(disk.utilisation(200.0), 0.5);
        assert_eq!(disk.utilisation(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_page_request_rejected() {
        DiskModel::new(DiskParameters::default()).service(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_track_rejected() {
        DiskModel::new(DiskParameters::default()).service(10_000, 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference copy of SIMPAD's former FIFO server (`FcfsServer`), its
    /// `SimTime` and `Tally` fields unwrapped to the `f64` operations they
    /// performed, in their order.
    #[derive(Default)]
    struct ReferenceServer {
        free_at: f64,
        waiting_sum: f64,
        service_sum: f64,
    }

    impl ReferenceServer {
        fn submit(&mut self, now: f64, service: f64) -> (f64, f64) {
            let start = if self.free_at >= now {
                self.free_at
            } else {
                now
            };
            let completion = start + service;
            self.waiting_sum += start - now;
            self.service_sum += service;
            self.free_at = completion;
            (start, completion)
        }

        fn utilisation(&self, horizon: f64) -> f64 {
            if horizon == 0.0 {
                return 0.0;
            }
            (self.service_sum / horizon).min(1.0)
        }
    }

    /// Reference copy of the measured engine's former batch clock
    /// (`DiskClock`): every arrival at t = 0.
    struct ReferenceClock {
        busy_ms: Vec<f64>,
        wait_ms: Vec<f64>,
    }

    impl ReferenceClock {
        fn advance(&mut self, disk: usize, service_ms: f64) -> f64 {
            let start = self.busy_ms[disk];
            self.wait_ms[disk] += start;
            self.busy_ms[disk] += service_ms;
            start
        }

        fn elapsed_ms(&self) -> f64 {
            self.busy_ms.iter().copied().fold(0.0, f64::max)
        }
    }

    proptest! {
        /// The queue never starts a request before the previous one
        /// finished, nor before its arrival.
        #[test]
        fn prop_fcfs_no_overlap(
            jobs in proptest::collection::vec((0.0f64..1e4, 0.1f64..1e3), 1..100)
        ) {
            // Callers submit in arrival order.
            let mut jobs = jobs;
            jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut queue = FcfsQueue::default();
            let mut prev_end = 0.0;
            for (arrival, service) in jobs {
                let (start, end) = queue.submit(arrival, service);
                prop_assert!(start >= arrival);
                prop_assert!(start >= prev_end);
                prop_assert_eq!(end, start + service);
                prev_end = end;
            }
        }

        /// With arrivals in order (SIMPAD's disks and CPUs), every start,
        /// end, sum and utilisation equals the former server's bit for bit.
        #[test]
        fn prop_queue_matches_the_former_server_bits(
            jobs in proptest::collection::vec((0.0f64..1e4, 0.0f64..1e3), 1..120),
            horizon_scale in 0.0f64..2.0,
        ) {
            let mut jobs = jobs;
            jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut queue = FcfsQueue::default();
            let mut reference = ReferenceServer::default();
            for (arrival, service) in jobs {
                let (start, end) = queue.submit(arrival, service);
                let (ref_start, ref_end) = reference.submit(arrival, service);
                prop_assert_eq!(start.to_bits(), ref_start.to_bits());
                prop_assert_eq!(end.to_bits(), ref_end.to_bits());
            }
            prop_assert_eq!(queue.free_at().to_bits(), reference.free_at.to_bits());
            prop_assert_eq!(queue.busy_ms().to_bits(), reference.service_sum.to_bits());
            prop_assert_eq!(queue.wait_ms().to_bits(), reference.waiting_sum.to_bits());
            for horizon in [0.0, queue.free_at(), queue.free_at() * horizon_scale] {
                prop_assert_eq!(
                    queue.utilisation(horizon).to_bits(),
                    reference.utilisation(horizon).to_bits()
                );
            }
        }

        /// Under batch arrival (`now = 0`, the measured engine's disk and
        /// interconnect lanes) the start times, busy times, waits and the
        /// makespan equal the former clock's bit for bit.
        #[test]
        fn prop_batch_lanes_match_the_former_clock_bits(
            disks in 1usize..6,
            charges in proptest::collection::vec((0usize..6, 0.0f64..1e3), 0..150),
        ) {
            let mut lanes = vec![FcfsQueue::default(); disks];
            let mut reference = ReferenceClock {
                busy_ms: vec![0.0; disks],
                wait_ms: vec![0.0; disks],
            };
            for (disk, service) in charges {
                let disk = disk % disks;
                let (start, end) = lanes[disk].submit(0.0, service);
                prop_assert_eq!(start.to_bits(), reference.advance(disk, service).to_bits());
                prop_assert_eq!(end.to_bits(), reference.busy_ms[disk].to_bits());
            }
            for (lane, (busy, wait)) in lanes
                .iter()
                .zip(reference.busy_ms.iter().zip(&reference.wait_ms))
            {
                prop_assert_eq!(lane.busy_ms().to_bits(), busy.to_bits());
                prop_assert_eq!(lane.free_at().to_bits(), busy.to_bits());
                prop_assert_eq!(lane.wait_ms().to_bits(), wait.to_bits());
            }
            let makespan = lanes.iter().map(FcfsQueue::free_at).fold(0.0, f64::max);
            prop_assert_eq!(makespan.to_bits(), reference.elapsed_ms().to_bits());
        }

        /// Service time is always at least settle + transfer and monotone in
        /// the seek distance.
        #[test]
        fn prop_service_time_bounds(track_a in 0u64..10_000, track_b in 0u64..10_000, pages in 1u64..64) {
            let mut d = DiskModel::new(DiskParameters::default());
            d.service(track_a, 1);
            let t = d.service(track_b, pages);
            let floor = 3.0 + pages as f64;
            prop_assert!(t >= floor - 1e-9);
            let max_seek = d.seek_time_ms(10_000);
            prop_assert!(t <= floor + max_seek + 1e-9);
        }

        /// track_of_page is monotone in the page number and stays in range.
        #[test]
        fn prop_track_mapping_monotone(total in 2u64..100_000, p1 in 0u64..100_000, p2 in 0u64..100_000) {
            let d = DiskModel::new(DiskParameters::default());
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let t_lo = d.track_of_page(lo, total);
            let t_hi = d.track_of_page(hi, total);
            prop_assert!(t_lo <= t_hi);
            prop_assert!(t_hi < d.parameters().tracks);
        }
    }
}
