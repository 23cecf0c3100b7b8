//! Deployable unit: an O-RAN-style monitoring xApp (the "Stats xApp" row
//! of the paper's Table 2).
//!
//! ```text
//! deploy_oran_xapp --rmr-listen 127.0.0.1:4560
//! ```

use flexric_bench::Args;
use flexric_transport::TransportAddr;

fn main() {
    let args = Args::parse();
    let listen = TransportAddr::parse(args.get("rmr-listen").unwrap_or("127.0.0.1:4560")).unwrap();
    let xapp = flexric_ctrl::oran_emu::OranXapp::spawn(listen, flexric_sm::SmCodec::Asn1Per)
        .expect("xapp");
    println!("oran-xapp RMR listening on {}", xapp.rmr_addr);
    flexric_bench::roles::park_forever();
}
