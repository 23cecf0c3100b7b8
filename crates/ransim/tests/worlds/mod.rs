//! Seeded worlds shared by `golden_trajectory.rs` and `tick_alloc.rs`.
#![allow(dead_code)]

use flexric_ransim::cell::CellConfig;
use flexric_ransim::{FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::slice::{SliceAlgo, SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};

pub fn flow(cell: usize, rnti: u16, kind: FlowKind, dst_port: u16, proto: u8) -> FlowConfig {
    FlowConfig {
        cell,
        rnti,
        drb: 1,
        kind,
        tuple: (0x0A00_0001, 0x0A01_0000 + rnti as u32, 1_000, dst_port, proto),
        start_ms: 0,
        stop_ms: None,
    }
}

pub const VOIP: FlowKind = FlowKind::Cbr { bytes: 172, interval_ms: 20 };
pub const TCP: FlowKind = FlowKind::GreedyTcp { mss: 1_500 };

pub fn slice(id: u32, params: SliceParams, ue_sched: UeSchedAlgo) -> SliceConf {
    SliceConf { id, label: format!("s{id}"), params, ue_sched }
}

pub fn nvs(id: u32, share_milli: u32, ue_sched: UeSchedAlgo) -> SliceConf {
    slice(id, SliceParams::NvsCapacity { share_milli }, ue_sched)
}

pub fn slice_ctrl(sim: &mut Sim, cell: usize, ctrl: SliceCtrl) {
    sim.cells[cell].apply_slice_ctrl(&ctrl).expect("slice control applies");
}

/// splitmix64, as the benchmark derives its per-agent seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two share sets `ctrl-storm` alternates between.
pub const STORM_SHARES: [[u32; 3]; 2] = [[150, 250, 600], [200, 300, 500]];

pub fn storm_slices(shares: &[u32]) -> Vec<SliceConf> {
    shares.iter().enumerate().map(|(id, &s)| nvs(id as u32, s, UeSchedAlgo::PropFair)).collect()
}

/// One agent's cell of the benchmark's `ctrl-storm` workload: NVS over
/// three PF slices, 8 UEs, CBR and greedy TCP.
pub fn storm_world(seed: u64) -> Sim {
    let mut sim = Sim::new(vec![CellConfig::nr("cell0", 106)], PathConfig::default());
    slice_ctrl(&mut sim, 0, SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs });
    slice_ctrl(&mut sim, 0, SliceCtrl::AddModSlices { slices: storm_slices(&STORM_SHARES[0]) });
    for u in 0..8u64 {
        let rnti = 0x4601 + u as u16;
        let r = mix(seed, u);
        sim.attach_ue(0, UeConfig::new(rnti, 10 + (r % 18) as u8));
        let slice = (u % 3) as u32;
        slice_ctrl(&mut sim, 0, SliceCtrl::AssocUeSlice { assoc: vec![(rnti, slice)] });
        let kind = match slice {
            0 => VOIP,
            1 => FlowKind::Cbr { bytes: 1_500 + (r >> 8) as u32 % 4_500, interval_ms: 10 },
            _ => TCP,
        };
        sim.add_flow(flow(0, rnti, kind, 5_000 + slice as u16, 17));
    }
    sim
}
