//! Output checks: every 2xx answer must be well-formed and consistent with
//! the request that produced it.

use servebench::inputs::{Req, RANK_K};
use servebench::json::{self, Value};
use std::collections::HashSet;

/// The degradation-ladder rungs serve labels predictions with.
const SOURCES: [&str; 5] = [
    "model",
    "user-mean",
    "service-mean",
    "global-mean",
    "default",
];

/// The QoS range serve's model is configured with (response time, 0–20 s).
const QOS_RANGE: std::ops::RangeInclusive<f64> = 0.0..=20.0;

/// What a checked answer contributes to the metrics.
#[derive(Debug, Default)]
pub struct Answer {
    /// Predictions in the answer.
    pub predictions: u64,
    /// Of those, answered below the `model` rung.
    pub degraded: u64,
    /// Predicted values, in request order (predict only).
    pub values: Vec<f64>,
}

fn in_range(v: &Value) -> Result<f64, String> {
    match v.as_f64() {
        Some(x) if x.is_finite() && QOS_RANGE.contains(&x) => Ok(x),
        _ => Err(format!("value {v:?} is not a finite QoS in {QOS_RANGE:?}")),
    }
}

fn count(doc: &Value, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing count {key:?}"))
}

/// Checks a 2xx answer to `req`.
///
/// # Errors
///
/// Describes the first check the answer fails.
pub fn check(req: &Req, body: &[u8]) -> Result<Answer, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let doc = json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let lines = req.lines() as u64;
    let mut answer = Answer::default();
    match req {
        Req::Observe(_) => {
            let (queued, shed, invalid) = (
                count(&doc, "queued")?,
                count(&doc, "shed")?,
                count(&doc, "invalid")?,
            );
            if queued + shed + invalid != lines {
                return Err(format!(
                    "observe: queued {queued} + shed {shed} + invalid {invalid} != {lines} lines"
                ));
            }
            if invalid != 0 {
                return Err(format!(
                    "observe: {invalid} well-formed lines reported invalid"
                ));
            }
        }
        Req::Predict(pairs) => {
            if count(&doc, "invalid")? != 0 {
                return Err("predict: well-formed lines reported invalid".into());
            }
            let results = doc
                .get("results")
                .and_then(Value::as_arr)
                .ok_or("predict: no results array")?;
            if results.len() != pairs.len() {
                return Err(format!(
                    "predict: {} results for {} lines",
                    results.len(),
                    pairs.len()
                ));
            }
            for ((u, s), r) in pairs.iter().zip(results) {
                let user = r.get("user").and_then(Value::as_str);
                let service = r.get("service").and_then(Value::as_str);
                if user != Some(&format!("user-{u}")) || service != Some(&format!("svc-{s}")) {
                    return Err(format!(
                        "predict: result {user:?}/{service:?} answers the wrong pair"
                    ));
                }
                answer
                    .values
                    .push(in_range(r.get("value").unwrap_or(&Value::Null))?);
                let source = r.get("source").and_then(Value::as_str).unwrap_or_default();
                if !SOURCES.contains(&source) {
                    return Err(format!("predict: unknown source {source:?}"));
                }
                answer.predictions += 1;
                if source != "model" {
                    answer.degraded += 1;
                }
            }
            if count(&doc, "degraded")? != answer.degraded {
                return Err("predict: degraded count disagrees with the sources".into());
            }
        }
        Req::Rank(user) => {
            if doc.get("user").and_then(Value::as_str) != Some(&format!("user-{user}")) {
                return Err("rank: answers another user".into());
            }
            let results = doc
                .get("results")
                .and_then(Value::as_arr)
                .ok_or("rank: no results array")?;
            if results.is_empty() || results.len() > RANK_K {
                return Err(format!("rank: {} results for k={RANK_K}", results.len()));
            }
            let mut seen = HashSet::new();
            let mut last = f64::NEG_INFINITY;
            for r in results {
                let service = r
                    .get("service")
                    .and_then(Value::as_str)
                    .ok_or("rank: no service")?;
                if !seen.insert(service) {
                    return Err(format!("rank: {service} listed twice"));
                }
                let value = in_range(r.get("value").unwrap_or(&Value::Null))?;
                if value < last {
                    return Err("rank: results not in ascending order".into());
                }
                last = value;
            }
        }
    }
    Ok(answer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_dataset::QosSample;

    #[test]
    fn accepts_well_formed_answers() {
        let observe = Req::Observe(vec![QosSample::new(0, 1, 2, 1.0); 2]);
        check(
            &observe,
            br#"{"queued":2,"shed":0,"invalid":0,"applied":2}"#,
        )
        .unwrap();
        let predict = Req::Predict(vec![(1, 2), (3, 4)]);
        let a = check(
            &predict,
            br#"{"invalid":0,"degraded":1,"results":[
              {"user":"user-1","service":"svc-2","value":0.5,"source":"model"},
              {"user":"user-3","service":"svc-4","value":2.5,"source":"user-mean"}]}"#,
        )
        .unwrap();
        assert_eq!(
            (a.predictions, a.degraded, a.values),
            (2, 1, vec![0.5, 2.5])
        );
        check(
            &Req::Rank(7),
            br#"{"user":"user-7","results":[{"service":"svc-1","value":0.2},{"service":"svc-9","value":0.2}]}"#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_inconsistent_answers() {
        let observe = Req::Observe(vec![QosSample::new(0, 1, 2, 1.0); 2]);
        assert!(check(&observe, br#"{"queued":1,"shed":0,"invalid":0}"#).is_err());
        let predict = Req::Predict(vec![(1, 2)]);
        let one = |value: &str, source: &str| {
            format!(
                r#"{{"invalid":0,"degraded":0,"results":[{{"user":"user-1","service":"svc-2","value":{value},"source":"{source}"}}]}}"#
            )
        };
        assert!(check(&predict, one("0.5", "model").as_bytes()).is_ok());
        assert!(check(&predict, one("25.0", "model").as_bytes()).is_err());
        assert!(check(&predict, one("null", "model").as_bytes()).is_err());
        assert!(check(&predict, one("0.5", "oracle").as_bytes()).is_err());
        assert!(check(
            &Req::Predict(vec![(1, 2), (1, 3)]),
            one("0.5", "model").as_bytes()
        )
        .is_err());
        let rank = |results: &str| format!(r#"{{"user":"user-7","results":[{results}]}}"#);
        let r = |s: u32, v: f64| format!(r#"{{"service":"svc-{s}","value":{v}}}"#);
        assert!(check(
            &Req::Rank(7),
            rank(&[r(1, 0.3), r(2, 0.2)].join(",")).as_bytes()
        )
        .is_err());
        assert!(check(
            &Req::Rank(7),
            rank(&[r(1, 0.2), r(1, 0.3)].join(",")).as_bytes()
        )
        .is_err());
        let six: Vec<String> = (0..6).map(|i| r(i, f64::from(i))).collect();
        assert!(check(&Req::Rank(7), rank(&six.join(",")).as_bytes()).is_err());
        assert!(check(&Req::Rank(7), b"not json").is_err());
    }
}
