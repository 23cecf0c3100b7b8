//! Deployable unit: a FlexRIC monitoring controller (MAC/RLC/PDCP stats,
//! FB) — the "FlexRIC + Stats E2SMs (FB)" row of the paper's Table 2.
//!
//! ```text
//! deploy_flexric_stats --listen 127.0.0.1:36421
//! ```

use flexric::server::{Server, ServerConfig};
use flexric_bench::Args;
use flexric_ctrl::monitoring::{MonitorApp, MonitorConfig};
use flexric_e2ap::{GlobalRicId, Plmn};
use flexric_transport::TransportAddr;

fn main() {
    let args = Args::parse();
    let listen = args.get("listen").unwrap_or("127.0.0.1:36421");
    let (app, _db, _counters) = MonitorApp::new(MonitorConfig::default());
    let cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse(listen).expect("listen addr"),
    );
    let server = Server::spawn(cfg, vec![Box::new(app)]).expect("server");
    println!("flexric-stats controller listening on {}", server.addrs[0]);
    flexric_bench::roles::park_forever();
}
