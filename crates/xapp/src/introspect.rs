//! Registry introspection over the REST northbound.
//!
//! xApps run out of process and cannot peek at the controller's E2AP
//! state, so capability discovery rides the HTTP layer: `GET /sm/registry`
//! lists every service model registered in the controller process — OID,
//! `major.minor` version, default RAN function id, which wire encodings
//! it speaks, and which payload codecs and delta hooks its vtable carries.
//! Third-party SMs registered at startup show up here automatically, with
//! no controller edits.

use crate::http::{Response, Router};
use crate::json_struct;

/// One registered service model, as serialized to xApps.
#[derive(Debug, Clone)]
pub struct SmEntry {
    /// Object identifier, the cross-layer SM name.
    pub oid: String,
    /// `oid@major.minor`, the advertisement label.
    pub label: String,
    /// Major version (must match to interoperate).
    pub major: u16,
    /// Minor version (highest compatible wins).
    pub minor: u16,
    /// Default RAN function id.
    pub ran_function_id: u16,
    /// Whether the SM encodes ASN.1-PER style.
    pub per: bool,
    /// Whether the SM encodes FlatBuffers style.
    pub fb: bool,
    /// Installed codec slots: which payload kinds the SM can decode.
    pub codecs: SmCodecSlots,
}

json_struct!(SmEntry { oid, label, major, minor, ran_function_id, per, fb, codecs });

/// Which payload-kind codecs an SM's vtable carries.
#[derive(Debug, Clone)]
pub struct SmCodecSlots {
    /// Event trigger definition.
    pub trigger: bool,
    /// Action definition.
    pub action: bool,
    /// Indication message.
    pub indication: bool,
    /// Control message.
    pub ctrl: bool,
    /// Delta-stream reconstruction.
    pub delta: bool,
}

json_struct!(SmCodecSlots { trigger, action, indication, ctrl, delta });

/// Snapshot of the process-wide SM registry, sorted by OID then version.
pub fn registry_snapshot() -> Vec<SmEntry> {
    flexric_sm::registry::global()
        .list()
        .into_iter()
        .map(|d| SmEntry {
            oid: d.oid.clone(),
            label: d.label(),
            major: d.version.major,
            minor: d.version.minor,
            ran_function_id: d.ran_function_id,
            per: d.supports.per,
            fb: d.supports.fb,
            codecs: SmCodecSlots {
                trigger: d.vtable.decode_trigger.is_some(),
                action: d.vtable.decode_action.is_some(),
                indication: d.vtable.decode_indication.is_some(),
                ctrl: d.vtable.decode_ctrl.is_some(),
                delta: d.vtable.new_delta_decoder.is_some(),
            },
        })
        .collect()
}

/// Mounts `GET /sm/registry` on a router.
pub fn mount(router: Router) -> Router {
    router.route("GET", "/sm/registry", |_req| Response::json(&registry_snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpClient, HttpServer};

    #[test]
    fn snapshot_lists_builtins_sorted() {
        let snap = registry_snapshot();
        assert!(snap.len() >= 8, "bundled SMs present, got {}", snap.len());
        let oids: Vec<&str> = snap.iter().map(|e| e.oid.as_str()).collect();
        let mut sorted = oids.clone();
        sorted.sort_unstable();
        assert_eq!(oids, sorted, "sorted by oid");
        let mac = snap.iter().find(|e| e.oid == "flexric.sm.mac_stats").expect("mac sm");
        assert_eq!(mac.label, "flexric.sm.mac_stats@1.0");
        assert!(mac.codecs.trigger && mac.codecs.indication && mac.codecs.delta);
        assert!(mac.per && mac.fb);
    }

    #[test]
    fn served_over_http() {
        let srv = HttpServer::spawn("127.0.0.1:0", mount(Router::new())).unwrap();
        let addr = srv.addr.to_string();
        let (status, body) = HttpClient::get(&addr, "/sm/registry").unwrap();
        assert_eq!(status, 200);
        let entries: Vec<SmEntry> = crate::json::from_slice(&body).unwrap();
        assert!(entries.iter().any(|e| e.oid == "flexric.sm.hw"), "hw sm listed: {entries:?}");
    }
}
