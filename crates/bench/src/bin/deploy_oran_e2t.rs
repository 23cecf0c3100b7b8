//! Deployable unit: the O-RAN-style E2 termination (one of the RIC
//! platform components of the paper's Table 2).
//!
//! ```text
//! deploy_oran_e2t --listen 127.0.0.1:36421 --rmr 127.0.0.1:4560
//! ```

use flexric_bench::Args;
use flexric_transport::TransportAddr;

fn main() {
    let args = Args::parse();
    let listen = TransportAddr::parse(args.get("listen").unwrap_or("127.0.0.1:36421")).unwrap();
    let rmr = TransportAddr::parse(args.get("rmr").unwrap_or("127.0.0.1:4560")).unwrap();
    let south = flexric_ctrl::oran_emu::run_e2term(listen, rmr).expect("e2term");
    println!("oran-e2t listening on {south}");
    flexric_bench::roles::park_forever();
}
