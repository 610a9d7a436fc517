//! Health reporting shared by the serving plane's `/healthz` route.
//!
//! [`health_body`] renders the `amf-health/v1` JSON body from the plane's
//! draining flag and [`crate::QosPredictionService::drift_healthy`]. The
//! plane serves it next to `/metrics` and `/snapshot.json` on its single
//! listener.

/// Schema tag of the `/healthz` response body.
pub const HEALTH_SCHEMA: &str = "amf-health/v1";

/// Builds the `/healthz` body (`amf-health/v1`). Two-state status:
///
/// * `"draining"` — the serving plane has begun its graceful drain;
/// * `"ok"` — otherwise. Responding at all is the liveness signal.
///
/// `drift_healthy` is the model's drift-sentinel verdict (DESIGN.md §14).
pub fn health_body(draining: bool, drift_healthy: bool) -> String {
    let status = if draining { "draining" } else { "ok" };
    format!(
        "{{\"schema\":\"{HEALTH_SCHEMA}\",\"status\":\"{status}\",\
         \"drift_healthy\":{drift_healthy}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_obs::Json;

    #[test]
    fn health_status_is_two_state() {
        // ok: nothing unhealthy.
        let body = health_body(false, true);
        let health = Json::parse(&body).expect("health parses");
        assert_eq!(
            health.get("schema").and_then(Json::as_str),
            Some(HEALTH_SCHEMA)
        );
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(health.get("drift_healthy"), Some(&Json::Bool(true)));
        assert!(health.get("degraded").is_none(), "{body}");

        // A drift alarm is reported, but the plane is still ok.
        let body = health_body(false, false);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"drift_healthy\":false"), "{body}");

        // draining once the plane begins its drain.
        let body = health_body(true, false);
        assert!(body.contains("\"status\":\"draining\""), "{body}");
    }
}
