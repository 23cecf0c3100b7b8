//! Deployable unit: an O-RAN-style monitoring xApp (the "Stats xApp" row
//! of the paper's Table 2) on the ASN.1 PER controller the E2 termination
//! mirrors its nodes to.
//!
//! ```text
//! deploy_oran_xapp --listen 127.0.0.1:4560
//! ```

use flexric_bench::Args;
use flexric_ctrl::oran_emu::{spawn_xapp_host, OranXapp};
use flexric_transport::TransportAddr;

fn main() {
    let args = Args::parse();
    let listen = TransportAddr::parse(args.get("listen").unwrap_or("127.0.0.1:4560")).unwrap();
    let (xapp, _counters) = OranXapp::new(flexric_sm::SmCodec::Asn1Per, 1);
    let host = spawn_xapp_host(listen, vec![Box::new(xapp)]).expect("xapp host");
    println!("oran-xapp listening on {}", host.addrs[0]);
    flexric_bench::roles::park_forever();
}
