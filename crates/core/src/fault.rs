//! Deterministic fault injection (`FaultPlan`) for the ingestion pipeline.
//!
//! A [`FaultPlan`] is a seed-driven script of faults that tests,
//! `amf-qos train --fault-plan` and `amf-qos loadtest` replay
//! deterministically:
//!
//! * **Stream faults** ([`FaultPlan::mutate_stream`]) — drop, duplicate, and
//!   locally reorder samples, simulating a lossy, janky transport between
//!   QoS managers and the prediction service;
//! * **Network faults** ([`FaultPlan::net_fault`]) — per-request transport
//!   misbehaviour for the serving plane's load harness (`amf-qos loadtest`):
//!   connection resets mid-request, byte-trickled slow reads, and black-hole
//!   connections that open but never speak. These are *client-side* verbs:
//!   [`NetFault`] consumers (the loadtest client) replay them against a live
//!   `amf-qos serve` endpoint.
//!
//! Ingestion runs on the calling thread, so there is no worker to kill or
//! stall: a spec with the former `kill=` or `stall=` verbs is a parse error
//! that names the verb.
//!
//! Plans parse from a compact spec string (the CLI's `--fault-plan` flag):
//!
//! ```
//! use amf_core::fault::FaultPlan;
//!
//! let plan = FaultPlan::parse("seed=7;drop=0.02;dup=0.01;reorder=8")?;
//! assert!(plan.mutates_stream());
//! assert!(FaultPlan::parse("kill=1@500").unwrap_err().contains("kill"));
//! # Ok::<(), String>(())
//! ```

/// A network-level fault to inject on one request (client-side verbs used by
/// the serving-plane load harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Abort the connection mid-request: send a partial request, then close
    /// abruptly (the server sees an early FIN / reset inside the request).
    ConnReset,
    /// Trickle the request bytes with delays between tiny chunks, driving
    /// the server's read-timeout and partial-read handling.
    SlowRead,
    /// Open the connection and never send a byte, holding it until the
    /// client's own timeout fires (server-side idle-read timeout exercise).
    Blackhole,
}

impl NetFault {
    /// Short spec-verb label (matches the [`FaultPlan::parse`] keys).
    pub fn label(self) -> &'static str {
        match self {
            NetFault::ConnReset => "conn-reset",
            NetFault::SlowRead => "slow-read",
            NetFault::Blackhole => "blackhole",
        }
    }
}

/// Where a parsed [`FaultPlan`] will be applied — used by
/// [`FaultPlan::parse_in`] to reject verbs that would be silently inert in
/// that context.
///
/// The network verbs (`conn-reset`/`slow-read`/`blackhole`) are client-side:
/// only the serving-plane load harness replays them. Accepting them in a
/// `train` or scenario spec used to succeed and then inject *nothing*, which
/// reads as "the run survived the faults" when no fault ever fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultContext {
    /// Offline/online training ingestion (`amf-qos train`): stream verbs
    /// apply; network verbs are inert.
    Training,
    /// Scenario/regime harnesses driving a prediction service in-process:
    /// same stream verbs as training, no live transport.
    Scenario,
    /// The serving-plane load harness (`amf-qos loadtest`): every verb,
    /// including the client-side network faults, is live.
    Serving,
}

impl FaultContext {
    /// Human-readable context name for error messages.
    pub fn label(self) -> &'static str {
        match self {
            FaultContext::Training => "train",
            FaultContext::Scenario => "scenario",
            FaultContext::Serving => "serving",
        }
    }

    /// Whether network verbs actually fire in this context.
    pub fn allows_network(self) -> bool {
        matches!(self, FaultContext::Serving)
    }
}

/// A deterministic, seed-driven fault script. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    duplicate_rate: f64,
    reorder_window: usize,
    conn_reset_rate: f64,
    slow_read_rate: f64,
    blackhole_rate: f64,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given stream-fault seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets the stream drop probability (each sample independently).
    pub fn drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the stream duplication probability (each sample independently).
    pub fn duplicate_rate(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the local-reorder window: each surviving sample may be delayed
    /// by up to this many positions.
    pub fn reorder_window(mut self, window: usize) -> Self {
        self.reorder_window = window;
        self
    }

    /// Sets the per-request connection-reset probability (network verb).
    pub fn conn_reset_rate(mut self, rate: f64) -> Self {
        self.conn_reset_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-request slow-read (byte-trickle) probability.
    pub fn slow_read_rate(mut self, rate: f64) -> Self {
        self.slow_read_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-request black-hole probability.
    pub fn blackhole_rate(mut self, rate: f64) -> Self {
        self.blackhole_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Whether any network verb (conn-reset/slow-read/blackhole) is
    /// configured.
    pub fn mutates_network(&self) -> bool {
        self.conn_reset_rate > 0.0 || self.slow_read_rate > 0.0 || self.blackhole_rate > 0.0
    }

    /// The network fault (if any) to inject on the `request`-th request.
    /// Deterministic: same plan + same index → same verdict, so a fault-
    /// injected load run is replayable. The three rates partition one
    /// uniform draw (conn-reset first, then slow-read, then blackhole), so
    /// at most one verb fires per request and each fires at its own rate.
    pub fn net_fault(&self, request: u64) -> Option<NetFault> {
        if !self.mutates_network() {
            return None;
        }
        let mut rng = SplitMix64::new(
            self.seed ^ 0x6E65_745F_6661_756C ^ request.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let roll = rng.next_f64();
        if roll < self.conn_reset_rate {
            Some(NetFault::ConnReset)
        } else if roll < self.conn_reset_rate + self.slow_read_rate {
            Some(NetFault::SlowRead)
        } else if roll < self.conn_reset_rate + self.slow_read_rate + self.blackhole_rate {
            Some(NetFault::Blackhole)
        } else {
            None
        }
    }

    /// Whether any stream-level fault (drop/duplicate/reorder) is configured.
    pub fn mutates_stream(&self) -> bool {
        self.drop_rate > 0.0 || self.duplicate_rate > 0.0 || self.reorder_window > 0
    }

    /// Applies the configured stream faults to `samples` deterministically
    /// (same plan + same input → same output): drops, then duplicates, then
    /// locally reorders within `reorder_window`.
    pub fn mutate_stream<T: Clone>(&self, samples: &[T]) -> Vec<T> {
        let mut rng = SplitMix64::new(self.seed ^ 0x6661_756C_7473); // "faults"
        let mut out: Vec<T> = Vec::with_capacity(samples.len());
        for sample in samples {
            if self.drop_rate > 0.0 && rng.next_f64() < self.drop_rate {
                continue;
            }
            out.push(sample.clone());
            if self.duplicate_rate > 0.0 && rng.next_f64() < self.duplicate_rate {
                out.push(sample.clone());
            }
        }
        if self.reorder_window > 0 {
            // Jitter sort: perturb each index by at most `reorder_window`
            // and stably sort by the perturbed key. Any element `i` ends
            // within `reorder_window` of its origin (every `j > i + window`
            // has a strictly larger key; every `j < i - window` a strictly
            // smaller one), so displacement is provably bounded.
            let n = out.len();
            let mut keyed: Vec<(usize, usize)> = (0..n)
                .map(|i| (i + (rng.next_u64() as usize % (self.reorder_window + 1)), i))
                .collect();
            keyed.sort_by_key(|&(key, i)| (key, i));
            let mut reordered = Vec::with_capacity(n);
            for &(_, i) in &keyed {
                reordered.push(out[i].clone());
            }
            out = reordered;
        }
        out
    }

    /// Parses a compact plan spec: `;`- or `,`-separated entries, each
    /// `key=value` — the three network verbs also accept the shorthand
    /// `verb@rate` (e.g. `conn-reset@0.05,slow-read@0.02`).
    ///
    /// | key | value | meaning |
    /// |---|---|---|
    /// | `seed` | integer | stream/network-fault RNG seed |
    /// | `drop` | probability | per-sample drop rate |
    /// | `dup` | probability | per-sample duplication rate |
    /// | `reorder` | integer | local reorder window |
    /// | `conn-reset` | probability | per-request connection reset (network) |
    /// | `slow-read` | probability | per-request byte trickle (network) |
    /// | `blackhole` | probability | per-request silent connection (network) |
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending entry. The
    /// former worker verbs `kill` and `stall` get their own message: no
    /// worker thread exists to target.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for entry in spec
            .split([';', ','])
            .map(str::trim)
            .filter(|e| !e.is_empty())
        {
            // Network verbs allow `verb@rate` shorthand; everything (network
            // verbs included) also parses as `key=value`.
            let (key, value) = match entry.split_once('=') {
                Some((key, value)) => (key, value),
                None => match entry.split_once('@') {
                    Some((key @ ("conn-reset" | "slow-read" | "blackhole"), value)) => (key, value),
                    _ => {
                        return Err(format!(
                            "fault-plan entry '{entry}': expected key=value (or verb@rate \
                             for conn-reset/slow-read/blackhole)"
                        ))
                    }
                },
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault-plan seed '{value}': not an integer"))?;
                }
                verb @ ("kill" | "stall") => {
                    return Err(format!(
                        "fault-plan verb '{verb}' was removed: ingestion runs on the \
                         calling thread, so there is no worker to {verb}"
                    ))
                }
                "drop" => {
                    plan.drop_rate = parse_rate("drop", value)?;
                }
                "dup" => {
                    plan.duplicate_rate = parse_rate("dup", value)?;
                }
                "reorder" => {
                    plan.reorder_window = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault-plan reorder '{value}': not an integer"))?;
                }
                "conn-reset" => {
                    plan.conn_reset_rate = parse_rate("conn-reset", value)?;
                }
                "slow-read" => {
                    plan.slow_read_rate = parse_rate("slow-read", value)?;
                }
                "blackhole" => {
                    plan.blackhole_rate = parse_rate("blackhole", value)?;
                }
                other => return Err(format!("fault-plan key '{other}': unknown")),
            }
        }
        Ok(plan)
    }

    /// Like [`FaultPlan::parse`], but validated against the context the plan
    /// will run in: network verbs in a context where they cannot fire are a
    /// hard error naming the offending verbs, not a silent no-op.
    ///
    /// # Errors
    ///
    /// Everything [`FaultPlan::parse`] rejects, plus any of
    /// `conn-reset`/`slow-read`/`blackhole` outside
    /// [`FaultContext::Serving`].
    pub fn parse_in(spec: &str, context: FaultContext) -> Result<Self, String> {
        let plan = Self::parse(spec)?;
        if !context.allows_network() && plan.mutates_network() {
            let offending: Vec<&str> = [
                ("conn-reset", plan.conn_reset_rate),
                ("slow-read", plan.slow_read_rate),
                ("blackhole", plan.blackhole_rate),
            ]
            .iter()
            .filter(|&&(_, rate)| rate > 0.0)
            .map(|&(verb, _)| verb)
            .collect();
            return Err(format!(
                "fault-plan: network verb(s) {} are inert in the {} context — they only \
                 fire in `amf-qos loadtest`'s client-side injection against a live serve \
                 endpoint; remove them or use stream verbs (drop/dup/reorder) instead",
                offending.join(", "),
                context.label()
            ));
        }
        Ok(plan)
    }
}

/// Canonical spec rendering: `;`-separated `key=value` entries that
/// [`FaultPlan::parse`] accepts back — `parse(display(p))` reproduces the
/// plan's configuration exactly.
impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        let mut item = |f: &mut std::fmt::Formatter<'_>, text: String| {
            let r = write!(f, "{sep}{text}");
            sep = ";";
            r
        };
        item(f, format!("seed={}", self.seed))?;
        for (key, rate) in [
            ("drop", self.drop_rate),
            ("dup", self.duplicate_rate),
            ("conn-reset", self.conn_reset_rate),
            ("slow-read", self.slow_read_rate),
            ("blackhole", self.blackhole_rate),
        ] {
            if rate > 0.0 {
                item(f, format!("{key}={rate}"))?;
            }
        }
        if self.reorder_window > 0 {
            item(f, format!("reorder={}", self.reorder_window))?;
        }
        Ok(())
    }
}

fn parse_rate(key: &str, value: &str) -> Result<f64, String> {
    let rate: f64 = value
        .trim()
        .parse()
        .map_err(|_| format!("fault-plan {key} '{value}': not a number"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("fault-plan {key} '{value}': must be in [0, 1]"));
    }
    Ok(rate)
}

/// Minimal deterministic RNG for stream mutation (no ordering dependence on
/// the model's RNGs).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_mutation_is_deterministic() {
        let samples: Vec<u32> = (0..500).collect();
        let plan = FaultPlan::new(9)
            .drop_rate(0.1)
            .duplicate_rate(0.05)
            .reorder_window(4);
        let a = plan.mutate_stream(&samples);
        let b = plan.mutate_stream(&samples);
        assert_eq!(a, b);
        assert_ne!(a, samples);
        // Drops and duplicates roughly cancel; size stays in a sane band.
        assert!(a.len() > 400 && a.len() < 520, "len {}", a.len());
    }

    #[test]
    fn reorder_displacement_is_bounded() {
        let samples: Vec<usize> = (0..200).collect();
        let window = 6;
        let out = FaultPlan::new(3)
            .reorder_window(window)
            .mutate_stream(&samples);
        assert_eq!(out.len(), samples.len());
        for (pos, &v) in out.iter().enumerate() {
            assert!(
                pos.abs_diff(v) <= 2 * window,
                "sample {v} displaced to {pos}"
            );
        }
    }

    #[test]
    fn empty_plan_is_identity() {
        let samples: Vec<u32> = (0..50).collect();
        let plan = FaultPlan::new(1);
        assert!(!plan.mutates_stream());
        assert_eq!(plan.mutate_stream(&samples), samples);
    }

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan = FaultPlan::parse("seed=7; drop=0.02; dup=0.01; reorder=8").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop_rate, 0.02);
        assert_eq!(plan.duplicate_rate, 0.01);
        assert_eq!(plan.reorder_window, 8);
        assert!(plan.mutates_stream());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "drop=2.0",
            "drop=x",
            "warp=9",
            "seed",
            "conn-reset@2.0",
            "conn-reset@x",
            "blackhole@-0.1",
            "jitter@0.5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted: {bad}");
        }
        assert!(!FaultPlan::parse("").unwrap().mutates_stream());
    }

    #[test]
    fn parse_rejects_worker_verbs_naming_them() {
        for (spec, verb) in [
            ("seed=7;kill=0@0", "kill"),
            ("kill=1@500:mid;drop=0.1", "kill"),
            ("stall=2@100:250", "stall"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(&format!("'{verb}'")), "{spec}: {err}");
            assert!(err.contains("removed"), "{spec}: {err}");
        }
    }

    #[test]
    fn parse_network_verbs_both_spellings() {
        // The `@` shorthand (the loadtest idiom, comma-separated) and the
        // canonical `=` form must agree.
        let short = FaultPlan::parse("conn-reset@0.05,slow-read@0.02,blackhole@0.01").unwrap();
        let long = FaultPlan::parse("conn-reset=0.05;slow-read=0.02;blackhole=0.01").unwrap();
        for plan in [&short, &long] {
            assert_eq!(plan.conn_reset_rate, 0.05);
            assert_eq!(plan.slow_read_rate, 0.02);
            assert_eq!(plan.blackhole_rate, 0.01);
            assert!(plan.mutates_network());
            assert!(!plan.mutates_stream());
        }
        assert_eq!(short.to_string(), long.to_string());
    }

    #[test]
    fn parse_in_rejects_network_verbs_outside_serving() {
        for context in [FaultContext::Training, FaultContext::Scenario] {
            // Stream verbs stay accepted.
            let plan = FaultPlan::parse_in("seed=7;drop=0.02;reorder=4", context).unwrap();
            assert!(plan.mutates_stream());
            // Every network verb, alone or mixed in, is a hard error that
            // names the offending verbs and the context.
            for spec in [
                "conn-reset=0.05",
                "slow-read@0.02",
                "blackhole=0.01",
                "seed=7;drop=0.1;conn-reset=0.05;blackhole=0.01",
            ] {
                let err = FaultPlan::parse_in(spec, context).unwrap_err();
                assert!(err.contains("inert"), "{err}");
                assert!(err.contains(context.label()), "{err}");
                for verb in ["conn-reset", "slow-read", "blackhole"] {
                    if spec.contains(verb) {
                        assert!(err.contains(verb), "{err} must name {verb}");
                    }
                }
            }
        }
        // The serving context keeps accepting them unchanged.
        let plan = FaultPlan::parse_in(
            "seed=3;conn-reset=0.05;slow-read=0.02;blackhole=0.01",
            FaultContext::Serving,
        )
        .unwrap();
        assert!(plan.mutates_network());
        assert!(FaultContext::Serving.allows_network());
        assert!(!FaultContext::Training.allows_network());
        assert!(!FaultContext::Scenario.allows_network());
    }

    #[test]
    fn display_parse_round_trips() {
        let specs = [
            "seed=7;drop=0.02;dup=0.01;reorder=8",
            "seed=3;conn-reset=0.05;slow-read=0.02;blackhole=0.01",
            "seed=0",
            "seed=9;drop=0.5;conn-reset=0.5",
        ];
        for spec in specs {
            let plan = FaultPlan::parse(spec).unwrap();
            let rendered = plan.to_string();
            let reparsed = FaultPlan::parse(&rendered).unwrap();
            assert_eq!(
                reparsed.to_string(),
                rendered,
                "display must be a fixed point through parse for {spec:?}"
            );
            // And the canonical form equals the input for already-canonical
            // specs (all of the above are written canonically).
            assert_eq!(rendered, spec);
        }
    }

    #[test]
    fn net_fault_is_deterministic_and_rate_accurate() {
        let plan =
            FaultPlan::parse("seed=11;conn-reset=0.05;slow-read=0.02;blackhole=0.01").unwrap();
        let n = 200_000u64;
        let mut counts = [0u64; 3];
        for i in 0..n {
            // Determinism: two draws for the same index agree.
            assert_eq!(plan.net_fault(i), plan.net_fault(i));
            match plan.net_fault(i) {
                Some(NetFault::ConnReset) => counts[0] += 1,
                Some(NetFault::SlowRead) => counts[1] += 1,
                Some(NetFault::Blackhole) => counts[2] += 1,
                None => {}
            }
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((rates[0] - 0.05).abs() < 0.005, "conn-reset rate {rates:?}");
        assert!((rates[1] - 0.02).abs() < 0.005, "slow-read rate {rates:?}");
        assert!((rates[2] - 0.01).abs() < 0.005, "blackhole rate {rates:?}");
        // No network verbs configured → never a fault, regardless of index.
        let clean = FaultPlan::parse("seed=11;drop=0.5").unwrap();
        assert!((0..1000).all(|i| clean.net_fault(i).is_none()));
        // Labels round-trip to the parse keys.
        for (fault, label) in [
            (NetFault::ConnReset, "conn-reset"),
            (NetFault::SlowRead, "slow-read"),
            (NetFault::Blackhole, "blackhole"),
        ] {
            assert_eq!(fault.label(), label);
        }
    }
}
