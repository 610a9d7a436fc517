//! Streaming accuracy estimators and the drift sentinel.
//!
//! The paper evaluates AMF by plotting accuracy *over time* (Fig. 7–10):
//! the model must not only adapt to QoS drift, an operator must be able to
//! *see* it adapting. This module provides the two runtime estimators that
//! make that continuous story observable:
//!
//! * [`AccuracyWindow`] — a fixed-size sliding window over the per-sample
//!   relative errors the update path already computes (Eq. 6), yielding
//!   windowed **MRE** (median relative error, the paper's headline metric)
//!   and **NMAE** (`Σ|r − g| / Σr` over the window). Pushing is three array
//!   stores into pre-allocated rings — no allocation, so it can ride the
//!   zero-alloc `observe` hot path.
//! * [`DriftSentinel`] — a per-side (user/service) Page–Hinkley test fed by
//!   the EMA error trackers of Eq. 13–15 (each tracker *is* an
//!   exponentially-windowed relative error). When the error distribution
//!   shifts upward — the churn scenario the adaptive weights of Eq. 12
//!   exist for — the sentinel raises an alarm so the serving layer can flip
//!   a health gauge and emit a trace event instead of silently degrading.
//!
//! Both types are deterministic: identical input sequences produce
//! identical windows, statistics, and alarm counts, which is what lets the
//! golden-trace suite pin windowed MRE/NMAE to 1e-12 and assert zero false
//! alarms on a stationary stream.

/// Default [`AccuracyWindow`] capacity (samples).
pub const ACCURACY_WINDOW: usize = 512;

/// Sliding window of recent per-sample prediction errors.
///
/// Stores, per sample, the relative error (with the floored denominator of
/// [`crate::online::NORMALIZED_FLOOR`]), the absolute error `|r − g|`, and
/// the normalized actual `r` — enough to compute windowed MRE and NMAE on
/// demand. All storage is allocated up front; [`AccuracyWindow::push`]
/// never touches the heap.
#[derive(Debug, Clone)]
pub struct AccuracyWindow {
    rel: Vec<f64>,
    abs: Vec<f64>,
    act: Vec<f64>,
    /// Next write slot.
    next: usize,
    /// Live samples (≤ capacity).
    len: usize,
    /// Samples ever pushed (incl. those already evicted).
    total: u64,
    /// Median scratch for the allocation-free refresh path.
    scratch: Vec<f64>,
}

impl Default for AccuracyWindow {
    fn default() -> Self {
        Self::new(ACCURACY_WINDOW)
    }
}

impl AccuracyWindow {
    /// A window holding the last `capacity` samples (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            rel: vec![0.0; capacity],
            abs: vec![0.0; capacity],
            act: vec![0.0; capacity],
            next: 0,
            len: 0,
            total: 0,
            scratch: Vec::with_capacity(capacity),
        }
    }

    /// Records one sample: normalized actual `r`, model output `g`, and the
    /// relative error the update computed for it (Eq. 6). Evicts the oldest
    /// sample once full. Allocation-free.
    #[inline]
    pub fn push(&mut self, r: f64, g: f64, relative_error: f64) {
        let i = self.next;
        self.rel[i] = relative_error;
        self.abs[i] = (r - g).abs();
        self.act[i] = r;
        self.next = if i + 1 == self.rel.len() { 0 } else { i + 1 };
        if self.len < self.rel.len() {
            self.len += 1;
        }
        self.total += 1;
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.rel.len()
    }

    /// Samples ever pushed (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Windowed median relative error (the paper's MRE, over the window).
    /// `None` while the window is empty. Allocates a scratch copy; use
    /// [`AccuracyWindow::mre_refresh`] on paths that must stay off the heap.
    pub fn mre(&self) -> Option<f64> {
        let mut scratch = self.rel[..self.len].to_vec();
        median_in_place(&mut scratch)
    }

    /// Like [`AccuracyWindow::mre`], but reusing the pre-allocated internal
    /// scratch — zero allocation, for the sampled hot-path gauge refresh.
    /// Produces exactly the same value as [`AccuracyWindow::mre`].
    pub fn mre_refresh(&mut self) -> Option<f64> {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.rel[..self.len]);
        median_in_place(&mut self.scratch)
    }

    /// Windowed NMAE: `Σ|r − g| / Σr` over the window (normalized domain).
    /// `None` while the window is empty or the actuals sum to zero.
    pub fn nmae(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let sum_abs: f64 = self.abs[..self.len].iter().sum();
        let sum_act: f64 = self.act[..self.len].iter().sum();
        (sum_act > 0.0).then(|| sum_abs / sum_act)
    }
}

/// In-place median: exact, deterministic, no allocation beyond `values`.
/// Even-length windows average the two middle elements (matching
/// `qos-metrics`' offline MRE definition).
fn median_in_place(values: &mut [f64]) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let mid = n / 2;
    let (low, pivot, _) = values.select_nth_unstable_by(mid, f64::total_cmp);
    let upper = *pivot;
    if n % 2 == 1 {
        Some(upper)
    } else {
        // Lower middle = max of the left partition.
        let lower = low.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(0.5 * (lower + upper))
    }
}

/// Point-in-time view of an [`AccuracyWindow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedAccuracy {
    /// Windowed median relative error, `None` before the first sample.
    pub mre: Option<f64>,
    /// Windowed NMAE, `None` before the first sample.
    pub nmae: Option<f64>,
    /// Samples currently in the window.
    pub window_len: usize,
    /// Samples ever pushed through the window.
    pub samples: u64,
}

/// Tuning for the [`DriftSentinel`]'s Page–Hinkley tests.
///
/// The test sees one *offer* every [`DriftConfig::stride`] model updates;
/// `min_offers` and the drift/threshold parameters are in offer units. The
/// defaults are deliberately conservative: the EMA inputs on a stationary
/// stream wander with the entity mix, and the sentinel must stay silent
/// there (pinned by the golden-trace suite) while still firing within a few
/// hundred samples of a genuine distribution shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Magnitude tolerance `δ`: per-offer drift subtracted from the
    /// deviation, so sustained increases smaller than this never alarm.
    pub delta: f64,
    /// Alarm threshold `λ` on the accumulated deviation.
    pub lambda: f64,
    /// Offers required after a reset before the test may alarm.
    pub min_offers: u64,
    /// Model updates per offer (the per-sample cost gate: between offers
    /// the sentinel only increments a counter).
    pub stride: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            delta: 0.05,
            lambda: 5.0,
            min_offers: 64,
            stride: 8,
        }
    }
}

/// One-sided (increase-only) Page–Hinkley change detector.
///
/// Tracks the running mean of its inputs and the cumulative deviation
/// `m_T = Σ (x_t − x̄_t − δ)`; an alarm fires when `m_T − min_t m_t > λ`,
/// i.e. when the input has run persistently above its historical mean by
/// more than the tolerance. Detecting *increases* only is deliberate: a
/// model converging (error decreasing) is healthy, a model whose error
/// climbs is drifting.
#[derive(Debug, Clone, PartialEq)]
pub struct PageHinkley {
    config: DriftConfig,
    offers: u64,
    mean: f64,
    cum: f64,
    cum_min: f64,
}

impl PageHinkley {
    /// A fresh detector.
    pub fn new(config: DriftConfig) -> Self {
        Self {
            config,
            offers: 0,
            mean: 0.0,
            cum: 0.0,
            cum_min: 0.0,
        }
    }

    /// Offers one value; returns `true` when the alarm fires (the detector
    /// resets itself so it can re-learn the post-shift distribution).
    pub fn offer(&mut self, x: f64) -> bool {
        self.offers += 1;
        self.mean += (x - self.mean) / self.offers as f64;
        self.cum += x - self.mean - self.config.delta;
        if self.cum < self.cum_min {
            self.cum_min = self.cum;
        }
        if self.offers >= self.config.min_offers && self.cum - self.cum_min > self.config.lambda {
            self.reset();
            return true;
        }
        false
    }

    /// Offers accepted since the last reset.
    pub fn offers(&self) -> u64 {
        self.offers
    }

    fn reset(&mut self) {
        self.offers = 0;
        self.mean = 0.0;
        self.cum = 0.0;
        self.cum_min = 0.0;
    }
}

/// What one [`DriftSentinel::observe`] call concluded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftVerdict {
    /// The user-side detector alarmed on this sample.
    pub user_alarm: bool,
    /// The service-side detector alarmed on this sample.
    pub service_alarm: bool,
}

impl DriftVerdict {
    /// Whether either side alarmed.
    pub fn any(self) -> bool {
        self.user_alarm || self.service_alarm
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Side {
    ph: PageHinkley,
    alarms: u64,
    offers_since_alarm: u64,
}

impl Side {
    fn new(config: DriftConfig) -> Self {
        Self {
            ph: PageHinkley::new(config),
            alarms: 0,
            offers_since_alarm: 0,
        }
    }

    fn offer(&mut self, x: f64) -> bool {
        if self.ph.offer(x) {
            self.alarms += 1;
            self.offers_since_alarm = 0;
            true
        } else {
            self.offers_since_alarm = self.offers_since_alarm.saturating_add(1);
            false
        }
    }

    fn healthy(&self, config: &DriftConfig) -> bool {
        self.alarms == 0 || self.offers_since_alarm >= config.min_offers
    }
}

/// Per-side drift sentinel: two [`PageHinkley`] detectors fed with the
/// touched entities' post-update EMA errors (`e_u`, `e_s` of Eq. 13–15).
///
/// Call [`DriftSentinel::observe`] once per model update; all but every
/// `stride`-th call is a counter increment, so the sentinel is cheap enough
/// for the per-sample hot path and allocation-free throughout.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSentinel {
    config: DriftConfig,
    tick: u64,
    user: Side,
    service: Side,
}

impl Default for DriftSentinel {
    fn default() -> Self {
        Self::new(DriftConfig::default())
    }
}

impl DriftSentinel {
    /// A sentinel with the given tuning.
    pub fn new(config: DriftConfig) -> Self {
        Self {
            config,
            tick: 0,
            user: Side::new(config),
            service: Side::new(config),
        }
    }

    /// The sentinel's tuning.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Feeds one update's post-update EMA errors. Returns which sides (if
    /// any) alarmed on this call.
    #[inline]
    pub fn observe(&mut self, e_user: f64, e_service: f64) -> DriftVerdict {
        self.tick += 1;
        if !self.tick.is_multiple_of(self.config.stride.max(1)) {
            return DriftVerdict::default();
        }
        DriftVerdict {
            user_alarm: self.user.offer(e_user),
            service_alarm: self.service.offer(e_service),
        }
    }

    /// Lifetime alarm counts, `(user, service)`.
    pub fn alarms(&self) -> (u64, u64) {
        (self.user.alarms, self.service.alarms)
    }

    /// Whether the error distribution currently looks stable: no alarm
    /// ever, or at least `min_offers` clean offers since the last one on
    /// both sides.
    pub fn healthy(&self) -> bool {
        self.user.healthy(&self.config) && self.service.healthy(&self.config)
    }

    /// Clears all detector state *and* the alarm counters, returning the
    /// sentinel to its freshly-constructed state (tuning is kept).
    ///
    /// A long-lived sentinel accumulates history across runs. Scenario
    /// harnesses that replay several regimes back to back
    /// must call this between runs — otherwise the second scenario starts
    /// with the first one's alarms and a half-charged Page–Hinkley
    /// accumulator, and its planner reacts to drift that never happened.
    pub fn reset(&mut self) {
        self.tick = 0;
        self.user = Side::new(self.config);
        self.service = Side::new(self.config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_mre_and_nmae_match_direct_computation() {
        let mut w = AccuracyWindow::new(8);
        let samples = [(0.5, 0.4), (0.8, 0.6), (0.3, 0.35), (0.9, 0.2)];
        for &(r, g) in &samples {
            w.push(r, g, (r - g).abs() / r);
        }
        let mut rels: Vec<f64> = samples.iter().map(|(r, g)| (r - g).abs() / r).collect();
        rels.sort_by(f64::total_cmp);
        let expected_mre = 0.5 * (rels[1] + rels[2]);
        let expected_nmae = samples.iter().map(|(r, g)| (r - g).abs()).sum::<f64>()
            / samples.iter().map(|(r, _)| r).sum::<f64>();
        assert!((w.mre().unwrap() - expected_mre).abs() < 1e-15);
        assert!((w.nmae().unwrap() - expected_nmae).abs() < 1e-15);
        assert_eq!(w.len(), 4);
        assert_eq!(w.total(), 4);
    }

    #[test]
    fn mre_refresh_is_identical_and_reusable() {
        let mut w = AccuracyWindow::new(16);
        let mut state = 1u64;
        for _ in 0..100 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = 0.1 + (state >> 40) as f64 / (1u64 << 25) as f64;
            let g = 0.1 + (state >> 20) as f64 % 1.0;
            w.push(r, g, (r - g).abs() / r.max(0.01));
        }
        assert_eq!(w.mre(), w.mre_refresh());
        assert_eq!(w.mre(), w.mre_refresh()); // idempotent
        assert_eq!(w.len(), 16);
        assert_eq!(w.total(), 100);
    }

    #[test]
    fn empty_window_has_no_estimates() {
        let mut w = AccuracyWindow::new(4);
        assert_eq!(w.mre(), None);
        assert_eq!(w.mre_refresh(), None);
        assert_eq!(w.nmae(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn eviction_keeps_only_the_newest_samples() {
        let mut w = AccuracyWindow::new(3);
        for i in 0..10u32 {
            let rel = f64::from(i);
            w.push(1.0, 1.0 - rel, rel);
        }
        // Window holds rels {7, 8, 9}.
        assert_eq!(w.mre(), Some(8.0));
        assert_eq!(w.len(), 3);
        assert_eq!(w.total(), 10);
    }

    #[test]
    fn page_hinkley_fires_on_level_shift_and_not_on_stationary() {
        let config = DriftConfig::default();
        let mut stationary = PageHinkley::new(config);
        let mut shifted = PageHinkley::new(config);
        let mut state = 42u64;
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.1
        };
        let mut false_alarms = 0;
        for _ in 0..10_000 {
            if stationary.offer(0.2 + noise()) {
                false_alarms += 1;
            }
        }
        assert_eq!(false_alarms, 0, "stationary stream must not alarm");

        let mut fired_at = None;
        for t in 0..10_000 {
            let level = if t < 500 { 0.2 } else { 0.6 };
            if shifted.offer(level + noise()) {
                fired_at = Some(t);
                break;
            }
        }
        let fired_at = fired_at.expect("level shift must alarm");
        assert!(
            (500..1_000).contains(&fired_at),
            "alarm at offer {fired_at}, expected shortly after the shift"
        );
    }

    #[test]
    fn sentinel_strides_and_counts_per_side() {
        let config = DriftConfig {
            stride: 4,
            min_offers: 2,
            delta: 0.0,
            lambda: 0.5,
        };
        let mut sentinel = DriftSentinel::new(config);
        assert!(sentinel.healthy());
        // User-side errors climb steeply; service side stays flat.
        let mut alarms = (0u64, 0u64);
        for t in 0..400 {
            let e_u = 0.1 + f64::from(t) * 0.01;
            let verdict = sentinel.observe(e_u, 0.1);
            if verdict.user_alarm {
                alarms.0 += 1;
                assert!(!sentinel.healthy(), "a fresh alarm must flip health");
            }
            if verdict.service_alarm {
                alarms.1 += 1;
            }
        }
        assert!(alarms.0 >= 1, "climbing user errors must alarm");
        assert_eq!(alarms.1, 0, "flat service errors must not alarm");
        assert_eq!(sentinel.alarms(), alarms);
    }

    #[test]
    fn sentinel_recovers_health_after_quiet_period() {
        let config = DriftConfig {
            stride: 1,
            min_offers: 4,
            delta: 0.0,
            lambda: 0.2,
        };
        let mut sentinel = DriftSentinel::new(config);
        for t in 0..200 {
            let e = if t < 100 { 0.001 * f64::from(t) } else { 0.05 };
            sentinel.observe(e, 0.05);
        }
        assert!(sentinel.alarms().0 >= 1);
        assert!(
            sentinel.healthy(),
            "stable tail must restore health: {sentinel:?}"
        );
    }

    #[test]
    fn reset_clears_alarms_and_detector_state() {
        let config = DriftConfig {
            stride: 1,
            min_offers: 4,
            delta: 0.0,
            lambda: 0.2,
        };
        let mut sentinel = DriftSentinel::new(config);
        // Drive both sides into alarm, then poison the running means.
        for t in 0..100 {
            let e = 0.01 * f64::from(t);
            sentinel.observe(e, e);
        }
        assert!(sentinel.alarms().0 >= 1);

        sentinel.reset();
        assert_eq!(sentinel.alarms(), (0, 0), "counters must clear");
        assert!(sentinel.healthy(), "fresh sentinel is healthy");
        assert_eq!(sentinel.tick, 0);
        // Back-to-back runs do not inherit state: a reset sentinel behaves
        // bit-for-bit like a new one on the same stream.
        let mut fresh = DriftSentinel::new(config);
        for t in 0..200 {
            let e = if t < 150 { 0.05 } else { 0.5 };
            assert_eq!(sentinel.observe(e, 0.05), fresh.observe(e, 0.05));
        }
        assert_eq!(sentinel.alarms(), fresh.alarms());
        assert_eq!(sentinel, fresh);
    }
}
