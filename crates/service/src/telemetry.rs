//! Health reporting shared by the serving plane's `/healthz` route.
//!
//! [`health_body_from`] turns an `amf-obs/v1` snapshot (typically
//! [`crate::QosPredictionService::stats_snapshot`] merged with the plane's
//! own counters) into the `amf-health/v1` JSON body. The plane serves it
//! next to `/metrics` and `/snapshot.json` on its single listener.

use qos_obs::Json;

/// Schema tag of the `/healthz` response body.
pub const HEALTH_SCHEMA: &str = "amf-health/v1";

/// Builds the `/healthz` body (`amf-health/v1`) from an `amf-obs/v1`
/// snapshot. Two-state status:
///
/// * `"draining"` — the serving plane has begun its graceful drain
///   (`serve.draining` gauge set);
/// * `"ok"` — otherwise. Responding at all is the liveness signal.
///
/// `drift_healthy` mirrors the model's `model.drift_healthy` gauge
/// (DESIGN.md §14).
pub fn health_body_from(snapshot: &Json) -> String {
    let drift_healthy = gauge_value(snapshot, "model.drift_healthy") != Some(0.0);
    let draining = gauge_value(snapshot, "serve.draining").is_some_and(|v| v != 0.0);
    let status = if draining { "draining" } else { "ok" };
    format!(
        "{{\"schema\":\"{HEALTH_SCHEMA}\",\"status\":\"{status}\",\
         \"drift_healthy\":{drift_healthy}}}"
    )
}

fn gauge_value(snapshot: &Json, key: &str) -> Option<f64> {
    let Json::Obj(map) = snapshot else {
        return None;
    };
    let Json::Obj(gauges) = map.get("gauges")? else {
        return None;
    };
    match gauges.get(key)? {
        Json::Num(v) => Some(*v),
        Json::UInt(v) => Some(*v as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_obs::MetricsRegistry;

    #[test]
    fn health_status_is_two_state() {
        // ok: nothing unhealthy in the snapshot.
        let registry = MetricsRegistry::new();
        registry.gauge("model.drift_healthy").set(1.0);
        let body = health_body_from(&registry.snapshot_json(false));
        let health = Json::parse(&body).expect("health parses");
        assert_eq!(
            health.get("schema").and_then(Json::as_str),
            Some(HEALTH_SCHEMA)
        );
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(health.get("drift_healthy"), Some(&Json::Bool(true)));
        assert!(health.get("degraded").is_none(), "{body}");

        // A drift alarm is reported, but the plane is still ok.
        registry.gauge("model.drift_healthy").set(0.0);
        let body = health_body_from(&registry.snapshot_json(false));
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"drift_healthy\":false"), "{body}");

        // draining once the plane begins its drain.
        registry.gauge("serve.draining").set(1.0);
        let body = health_body_from(&registry.snapshot_json(false));
        assert!(body.contains("\"status\":\"draining\""), "{body}");
    }
}
