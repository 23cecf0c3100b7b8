//! Deployable unit: one O-RAN-style platform component (database /
//! manager / monitor stand-in).  The reference RIC runs ~15 of these.
//!
//! ```text
//! deploy_oran_platform --components 1 --mb 12
//! ```

use flexric_bench::Args;

fn main() {
    let args = Args::parse();
    let components: usize = args.get_or("components", 1);
    let mb: usize = args.get_or("mb", 12);
    let _guard = flexric_ctrl::oran_emu::spawn_platform(components, mb);
    println!("oran-platform: {components} component(s), {mb} MiB each");
    flexric_bench::roles::park_forever();
}
