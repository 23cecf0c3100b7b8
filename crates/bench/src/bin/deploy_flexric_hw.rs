//! Deployable unit: a FlexRIC controller specialized for the HW (ping) SM
//! — the "FlexRIC + HW-E2SM" row of the paper's Table 2.
//!
//! ```text
//! deploy_flexric_hw --listen 127.0.0.1:36421
//! ```

use flexric::server::{Server, ServerConfig};
use flexric_bench::Args;
use flexric_ctrl::relay::PingApp;
use flexric_e2ap::{GlobalRicId, Plmn};
use flexric_sm::SmCodec;
use flexric_transport::TransportAddr;

fn main() {
    let args = Args::parse();
    let listen = args.get("listen").unwrap_or("127.0.0.1:36421");
    let (app, _rtts) = PingApp::new(SmCodec::Flatb, 100, 1000);
    let cfg = ServerConfig::new(
        GlobalRicId::new(Plmn::TEST, 1),
        TransportAddr::parse(listen).expect("listen addr"),
    );
    let server = Server::spawn(cfg, vec![Box::new(app)]).expect("server");
    println!("flexric-hw controller listening on {}", server.addrs[0]);
    flexric_bench::roles::park_forever();
}
