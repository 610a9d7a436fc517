//! Seeded inputs. One generator, `qos_dataset`, and one seed produce
//! everything a run sends: the fleet, the warm-up split handed to
//! `amf-qos serve`, the observe stream, the request mix and the held-out
//! probe set. The same seed gives byte-identical inputs.

pub use qos_dataset::QosSample;
use qos_dataset::{split_matrix, Attribute, DatasetConfig, QosDataset, SliceStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::ops::Range;

/// Pairs per `/v1/predict` request.
pub const PAIRS_PER_PREDICT: usize = 8;
/// Records per `/v1/observe` request.
pub const RECORDS_PER_OBSERVE: usize = 8;
/// `k` of every `/v1/rank` request.
pub const RANK_K: usize = 5;

/// The entity grid a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// 24 users × 32 services: serve's and loadgen's default grid.
    Small,
    /// 142 users × 4500 services: the paper's scale.
    Paper,
}

/// How a fleet's inputs are cut from the dataset.
struct Plan {
    users: usize,
    services: usize,
    user_regions: usize,
    service_regions: usize,
    /// Slices whose split is the warm-up.
    warm_slices: Range<usize>,
    /// Later slices replayed, in time order, as the observe stream.
    stream_slices: Range<usize>,
    /// Share of each slice's cells kept (the paper's matrix density).
    density: f64,
    /// Pairs held out of the warm-up and the stream, for `mre`.
    probe_pairs: usize,
}

impl Fleet {
    /// Both fleets, small first.
    pub const ALL: [Fleet; 2] = [Fleet::Small, Fleet::Paper];

    /// `users x services`, as used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Fleet::Small => "24x32",
            Fleet::Paper => "142x4500",
        }
    }

    fn plan(self) -> Plan {
        match self {
            // About as many warm-up records as serve's own seeded warm-up
            // (20,000 over this grid), so every pair is observed many times.
            Fleet::Small => Plan {
                users: 24,
                services: 32,
                user_regions: 4,
                service_regions: 6,
                warm_slices: 0..56,
                stream_slices: 56..64,
                density: 0.5,
                probe_pairs: 192,
            },
            // Fig. 13's setting: a 10%-density split of slice 0 warms the
            // model, later slices at the same density stream in.
            Fleet::Paper => Plan {
                users: 142,
                services: 4500,
                user_regions: 22,
                service_regions: 57,
                warm_slices: 0..1,
                stream_slices: 1..13,
                density: 0.10,
                probe_pairs: 2000,
            },
        }
    }
}

/// Every input of one fleet for one seed.
pub struct FleetInputs {
    /// Which fleet.
    pub fleet: Fleet,
    /// Ground truth.
    pub dataset: QosDataset,
    /// Warm-up triplets, in arrival order.
    pub warm: Vec<QosSample>,
    /// Observe stream: later slices in time order.
    pub stream: Vec<QosSample>,
    /// Held-out `(user, service)` pairs: in neither `warm` nor `stream`.
    pub probe: Vec<(usize, usize)>,
    /// Last slice of the warm-up.
    pub warm_last_slice: usize,
}

impl FleetInputs {
    /// Generates the inputs of `fleet` for `seed`.
    pub fn generate(fleet: Fleet, seed: u64) -> Self {
        let plan = fleet.plan();
        let config = DatasetConfig {
            users: plan.users,
            services: plan.services,
            user_regions: plan.user_regions,
            service_regions: plan.service_regions,
            ..DatasetConfig::paper_scale()
        }
        .with_seed(seed);
        let dataset = QosDataset::generate(&config);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_be4c_0000_0001);

        let mut probe = Vec::with_capacity(plan.probe_pairs);
        let mut held = HashSet::with_capacity(plan.probe_pairs);
        while probe.len() < plan.probe_pairs {
            let pair = (
                rng.random_range(0..plan.users),
                rng.random_range(0..plan.services),
            );
            if held.insert(pair) {
                probe.push(pair);
            }
        }

        let mut slices = |range: Range<usize>| {
            let mut out = Vec::new();
            for slice in range {
                let matrix = dataset.slice_matrix(Attribute::ResponseTime, slice);
                let split = split_matrix(&matrix, plan.density, &mut rng);
                let stream = SliceStream::from_split(&dataset, &split, slice, &mut rng);
                out.extend(
                    stream
                        .samples
                        .into_iter()
                        .filter(|s| !held.contains(&(s.user, s.service))),
                );
            }
            out
        };
        let warm = slices(plan.warm_slices.clone());
        let stream = slices(plan.stream_slices.clone());
        Self {
            fleet,
            dataset,
            warm,
            stream,
            probe,
            warm_last_slice: plan.warm_slices.end - 1,
        }
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.dataset.users()
    }

    /// Number of services.
    pub fn services(&self) -> usize {
        self.dataset.services()
    }

    /// The slice a timestamp falls in.
    pub fn slice_of(&self, timestamp: u64) -> usize {
        let interval = self.dataset.config().slice_interval_secs;
        usize::try_from(timestamp / interval)
            .unwrap_or(usize::MAX)
            .min(self.dataset.time_slices() - 1)
    }

    /// Ground truth of every probe pair at `slice`, in probe order.
    pub fn probe_truth(&self, slice: usize) -> Vec<f64> {
        self.probe
            .iter()
            .map(|&(u, s)| self.dataset.value(Attribute::ResponseTime, u, s, slice))
            .collect()
    }

    /// The warm-up as the triplet file `amf-qos serve --data` reads.
    pub fn warm_triplets(&self) -> Vec<u8> {
        let mut out = Vec::new();
        qos_dataset::io::write_triplets(&self.warm, &mut out)
            .expect("writing to a Vec cannot fail");
        out
    }
}

/// The three endpoints a workload sends to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `POST /v1/observe`.
    Observe,
    /// `POST /v1/predict`.
    Predict,
    /// `POST /v1/rank`.
    Rank,
}

impl Kind {
    /// All kinds, in reporting order.
    pub const ALL: [Kind; 3] = [Kind::Observe, Kind::Predict, Kind::Rank];

    /// The endpoint path.
    pub fn path(self) -> &'static str {
        match self {
            Kind::Observe => "/v1/observe",
            Kind::Predict => "/v1/predict",
            Kind::Rank => "/v1/rank",
        }
    }

    /// Short name, as used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Observe => "observe",
            Kind::Predict => "predict",
            Kind::Rank => "rank",
        }
    }

    /// Index into per-kind arrays ordered like [`Kind::ALL`].
    pub fn index(self) -> usize {
        match self {
            Kind::Observe => 0,
            Kind::Predict => 1,
            Kind::Rank => 2,
        }
    }
}

/// One request of a workload's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// Records to observe, in stream order.
    Observe(Vec<QosSample>),
    /// `(user, service)` pairs to predict.
    Predict(Vec<(usize, usize)>),
    /// Rank the best [`RANK_K`] services for this user.
    Rank(usize),
}

impl Req {
    /// The request's endpoint.
    pub fn kind(&self) -> Kind {
        match self {
            Req::Observe(_) => Kind::Observe,
            Req::Predict(_) => Kind::Predict,
            Req::Rank(_) => Kind::Rank,
        }
    }

    /// NDJSON lines the body carries.
    pub fn lines(&self) -> usize {
        match self {
            Req::Observe(records) => records.len(),
            Req::Predict(pairs) => pairs.len(),
            Req::Rank(_) => 1,
        }
    }
}

/// Endpoint shares of a request stream, in percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Share of observes.
    pub observe: u32,
    /// Share of predicts.
    pub predict: u32,
    /// Share of ranks (the rest).
    pub rank: u32,
}

impl Mix {
    /// A stream of `kind` alone.
    pub fn only(kind: Kind) -> Self {
        Self {
            observe: u32::from(kind == Kind::Observe) * 100,
            predict: u32::from(kind == Kind::Predict) * 100,
            rank: u32::from(kind == Kind::Rank) * 100,
        }
    }

    /// Whether the mix sends `kind` at all.
    pub fn sends(self, kind: Kind) -> bool {
        match kind {
            Kind::Observe => self.observe > 0,
            Kind::Predict => self.predict > 0,
            Kind::Rank => self.rank > 0,
        }
    }
}

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 90% predict / 10% rank on the small grid.
    ReadSmall,
    /// Closed loop, 100% observe at the paper's scale.
    IngestPaper,
    /// Open loop, the paper's adaptation mix at the paper's scale.
    AdaptOpen,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [
        Workload::ReadSmall,
        Workload::IngestPaper,
        Workload::AdaptOpen,
    ];

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSmall => "read-small",
            Workload::IngestPaper => "ingest-paper",
            Workload::AdaptOpen => "adapt-open",
        }
    }

    /// The grid it runs on.
    pub fn fleet(self) -> Fleet {
        match self {
            Workload::ReadSmall => Fleet::Small,
            Workload::IngestPaper | Workload::AdaptOpen => Fleet::Paper,
        }
    }

    /// Its endpoint mix.
    pub fn mix(self) -> Mix {
        match self {
            Workload::ReadSmall => Mix {
                observe: 0,
                predict: 90,
                rank: 10,
            },
            Workload::IngestPaper => Mix {
                observe: 100,
                predict: 0,
                rank: 0,
            },
            // The paper's adaptation mix; also loadgen's default.
            Workload::AdaptOpen => Mix {
                observe: 40,
                predict: 50,
                rank: 10,
            },
        }
    }
}

/// A workload's request stream: endpoint draws and predict/rank targets
/// come from the seed, observes replay the fleet's stream in time order
/// (wrapping to its start when a run outlasts it).
pub struct RequestStream<'a> {
    inputs: &'a FleetInputs,
    rng: StdRng,
    mix: Mix,
    cursor: usize,
    last_observed: Option<u64>,
}

impl<'a> RequestStream<'a> {
    /// The stream of `mix` over `inputs` for `seed`.
    pub fn new(inputs: &'a FleetInputs, seed: u64, mix: Mix) -> Self {
        assert_eq!(
            mix.observe + mix.predict + mix.rank,
            100,
            "mix must sum to 100"
        );
        Self {
            inputs,
            rng: StdRng::seed_from_u64(seed ^ 0x5e7e_be4c_0000_0002),
            mix,
            cursor: 0,
            last_observed: None,
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let roll = self.rng.random_range(0..100u32);
        if roll < self.mix.observe {
            let stream = &self.inputs.stream;
            let records: Vec<QosSample> = (0..RECORDS_PER_OBSERVE)
                .map(|i| stream[(self.cursor + i) % stream.len()])
                .collect();
            self.cursor = (self.cursor + RECORDS_PER_OBSERVE) % stream.len();
            self.last_observed = records.last().map(|r| r.timestamp);
            Req::Observe(records)
        } else if roll < self.mix.observe + self.mix.predict {
            let (users, services) = (self.inputs.users(), self.inputs.services());
            Req::Predict(
                (0..PAIRS_PER_PREDICT)
                    .map(|_| {
                        (
                            self.rng.random_range(0..users),
                            self.rng.random_range(0..services),
                        )
                    })
                    .collect(),
            )
        } else {
            Req::Rank(self.rng.random_range(0..self.inputs.users()))
        }
    }

    /// The slice the model has seen up to: that of the last record
    /// observed, or the warm-up's last slice before any observe.
    pub fn current_slice(&self) -> usize {
        self.last_observed
            .map_or(self.inputs.warm_last_slice, |t| self.inputs.slice_of(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    fn stream_bytes(inputs: &FleetInputs, seed: u64, mix: Mix, n: usize) -> Vec<u8> {
        let mut stream = RequestStream::new(inputs, seed, mix);
        let mut out = Vec::new();
        for _ in 0..n {
            wire::write_request(&stream.next_req(), &mut out);
        }
        out
    }

    fn all_bytes(fleet: Fleet, seed: u64) -> Vec<u8> {
        let inputs = FleetInputs::generate(fleet, seed);
        let mut out = inputs.warm_triplets();
        for s in &inputs.stream {
            out.extend_from_slice(format!("{s:?}\n").as_bytes());
        }
        for (pair, truth) in inputs.probe.iter().zip(inputs.probe_truth(3)) {
            out.extend_from_slice(format!("{pair:?} {truth}\n").as_bytes());
        }
        for workload in Workload::ALL {
            if workload.fleet() == fleet {
                out.extend(stream_bytes(&inputs, seed, workload.mix(), 500));
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for fleet in Fleet::ALL {
            assert_eq!(all_bytes(fleet, 7), all_bytes(fleet, 7), "{fleet:?}");
        }
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        for fleet in Fleet::ALL {
            let a = FleetInputs::generate(fleet, 7);
            let b = FleetInputs::generate(fleet, 8);
            assert_ne!(a.warm_triplets(), b.warm_triplets(), "{fleet:?} warm-up");
            assert_ne!(a.probe, b.probe, "{fleet:?} probe set");
            assert_ne!(
                stream_bytes(&a, 7, Workload::AdaptOpen.mix(), 200),
                stream_bytes(&b, 8, Workload::AdaptOpen.mix(), 200),
                "{fleet:?} request stream"
            );
        }
    }

    #[test]
    fn probe_pairs_are_held_out() {
        for fleet in Fleet::ALL {
            let inputs = FleetInputs::generate(fleet, 11);
            let held: HashSet<_> = inputs.probe.iter().copied().collect();
            assert_eq!(held.len(), inputs.probe.len());
            assert!(inputs
                .warm
                .iter()
                .chain(&inputs.stream)
                .all(|s| !held.contains(&(s.user, s.service))));
            assert!(inputs
                .probe_truth(0)
                .iter()
                .all(|v| v.is_finite() && *v > 0.0));
        }
    }

    #[test]
    fn paper_warm_up_is_a_ten_percent_split_of_slice_zero() {
        let inputs = FleetInputs::generate(Fleet::Paper, 3);
        let cells = 142.0 * 4500.0;
        let share = inputs.warm.len() as f64 / cells;
        assert!((0.099..=0.1).contains(&share), "{share}");
        assert!(inputs
            .warm
            .iter()
            .all(|s| inputs.slice_of(s.timestamp) == 0));
        let slices: Vec<usize> = inputs
            .stream
            .iter()
            .map(|s| inputs.slice_of(s.timestamp))
            .collect();
        assert!(
            slices.windows(2).all(|w| w[0] <= w[1]),
            "stream is in time order"
        );
        assert_eq!(slices.first(), Some(&1));
    }

    #[test]
    fn mixes_follow_their_shares() {
        let inputs = FleetInputs::generate(Fleet::Small, 5);
        for workload in Workload::ALL {
            let mix = workload.mix();
            let mut stream = RequestStream::new(&inputs, 5, mix);
            let mut counts = [0u32; 3];
            for _ in 0..10_000 {
                counts[stream.next_req().kind().index()] += 1;
            }
            for kind in Kind::ALL {
                let want = match kind {
                    Kind::Observe => mix.observe,
                    Kind::Predict => mix.predict,
                    Kind::Rank => mix.rank,
                };
                let got = f64::from(counts[kind.index()]) / 100.0;
                assert!(
                    (got - f64::from(want)).abs() < 2.0,
                    "{workload:?} {kind:?} {got}"
                );
            }
        }
    }
}
