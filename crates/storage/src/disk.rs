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
    requests: u64,
    total_seek_ms: f64,
    total_service_ms: f64,
}

impl DiskModel {
    /// Creates a disk with the arm parked at track 0.
    #[must_use]
    pub fn new(params: DiskParameters) -> Self {
        DiskModel {
            params,
            current_track: 0,
            requests: 0,
            total_seek_ms: 0.0,
            total_service_ms: 0.0,
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
        self.requests += 1;
        self.total_seek_ms += seek;
        self.total_service_ms += service;
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

    /// Number of requests serviced.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total seek time spent, in ms.
    #[must_use]
    pub fn total_seek_ms(&self) -> f64 {
        self.total_seek_ms
    }

    /// Total service time (seek + settle + transfer), in ms.
    #[must_use]
    pub fn total_service_ms(&self) -> f64 {
        self.total_service_ms
    }

    /// Mean service time per request, in ms.
    #[must_use]
    pub fn mean_service_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_service_ms / self.requests as f64
        }
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
        assert_eq!(d.requests(), 2);
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
        assert_eq!(d.mean_service_ms(), 0.0);
        d.service(0, 4);
        d.service(5_000, 4);
        assert_eq!(d.requests(), 2);
        assert!(d.total_seek_ms() > 0.0);
        assert!(d.total_service_ms() > d.total_seek_ms());
        assert!(d.mean_service_ms() > 0.0);
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

    proptest! {
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
