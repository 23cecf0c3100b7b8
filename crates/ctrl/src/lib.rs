//! Controller specializations and baselines of the FlexRIC reproduction.
//!
//! On top of the SDK (`flexric` core crate) this crate provides:
//!
//! * [`ranfun`] — the "bundle of pre-defined RAN functions" of paper §3:
//!   MAC/RLC/PDCP statistics, slice control, traffic control, RRC events
//!   and hello-world, all bridging to the `flexric-ransim` substrate;
//! * [`monitoring`] — the statistics controller of §5.3 (stats iApp with
//!   an in-memory store);
//! * [`slicing`] — the RAT-unaware slicing controller of §6.1.2 (SC SM +
//!   REST northbound);
//! * [`sla`] / [`sla_solver`] — the closed-loop SLA enforcement xApp:
//!   reads per-slice KPIs from the monitoring store, re-solves NVS
//!   shares against configured targets and pushes them through the SC
//!   SM control path;
//! * [`traffic`] — the flow-based traffic controller of §6.1.1 (TC SM +
//!   broker/REST northbound + the bufferbloat-fighting xApp);
//! * [`recursive`] — the network-virtualization controller of §6.2: the
//!   SDK's bridge (`flexric::relay`) with Appendix-B NVS virtualization,
//!   slice-id remapping and MAC-statistics partitioning as its transform,
//!   one loop, one handle;
//! * [`relay`] — the pinger of the Fig. 9a comparison, which measures
//!   through the SDK's relay (the same bridge, mirroring each south node);
//! * [`flexran_emu`] — the FlexRAN baseline (§2): a controller that polls
//!   its RIB every millisecond and an agent, speaking a Protobuf-style
//!   single-layer protocol, both machines on the SDK's driver as the E2
//!   agent and controller are;
//! * [`oran_emu`] — the O-RAN RIC baseline (§5.4): the same relay in
//!   ASN.1 PER as the E2 termination (decode + re-encode, one hop more), a
//!   monitoring xApp that finds nodes by polling and decodes every payload
//!   again, and the always-on platform components;
//! * [`dummy`] — dummy test agents "not connected to any base station"
//!   exporting synthetic statistics (§5.3's scaling experiments).

pub mod dummy;
pub mod flexran_emu;
pub mod monitoring;
pub mod oran_emu;
pub mod ranfun;
pub mod recursive;
pub mod relay;
pub mod sla;
pub mod sla_solver;
pub mod slicing;
pub mod traffic;

#[cfg(test)]
mod test_util {
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use flexric_transport::mem::{MemConn, MemListener};

    /// Polls `done` every millisecond until it holds or `within` has
    /// passed; whether it held.
    pub(crate) fn wait_until(within: Duration, mut done: impl FnMut() -> bool) -> bool {
        let until = Instant::now() + within;
        while !done() {
            if Instant::now() >= until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// A controller at `mem:<name>` that accepts every connection and never
    /// says a word; the connections it holds.
    pub(crate) fn mute_controller(name: &str) -> (MemListener, Arc<Mutex<Vec<MemConn>>>) {
        let held = Arc::new(Mutex::new(Vec::new()));
        let hold = held.clone();
        let mut listener = MemListener::bind(name).unwrap();
        listener.serve(Box::new(move |conn| hold.lock().unwrap().push(conn)));
        (listener, held)
    }
}
