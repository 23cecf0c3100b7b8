//! Deployable unit: the O-RAN-style E2 termination (one of the RIC
//! platform components of the paper's Table 2): the relay in ASN.1 PER,
//! mirroring each E2 node to the xApps' controller.
//!
//! ```text
//! deploy_oran_e2t --listen 127.0.0.1:36421 --xapp-host 127.0.0.1:4560
//! ```

use flexric_bench::Args;
use flexric_transport::TransportAddr;

fn main() {
    let args = Args::parse();
    let listen = TransportAddr::parse(args.get("listen").unwrap_or("127.0.0.1:36421")).unwrap();
    let host = TransportAddr::parse(args.get("xapp-host").unwrap_or("127.0.0.1:4560")).unwrap();
    let e2t = flexric_ctrl::oran_emu::spawn_e2t(listen, host).expect("e2t");
    println!("oran-e2t listening on {}", e2t.addrs[0]);
    flexric_bench::roles::park_forever();
}
