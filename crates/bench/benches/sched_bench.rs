//! Scheduler micro-benchmarks: NVS decisions, the two-level MAC pipeline,
//! and the TC classifier — the per-TTI costs of the RAN substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexric_ransim::{CellConfig, FlowConfig, FlowKind, PathConfig, Sim, UeConfig};
use flexric_sm::slice::{SliceAlgo, SliceConf, SliceCtrl, SliceParams, UeSchedAlgo};
use flexric_sm::tc::FiveTupleRule;

fn loaded_sim(ues: u16, slices: u32) -> Sim {
    let mut sim = Sim::new(vec![CellConfig::nr("cell", 106)], PathConfig::default());
    for i in 0..ues {
        sim.attach_ue(0, UeConfig::new(0x4601 + i, 20));
        sim.add_flow(FlowConfig {
            cell: 0,
            rnti: 0x4601 + i,
            drb: 1,
            kind: FlowKind::GreedyTcp { mss: 1500 },
            tuple: (1, 100 + i as u32, 1000, 80, 6),
            start_ms: 0,
            stop_ms: None,
        });
    }
    if slices > 0 {
        sim.cells[0].apply_slice_ctrl(&SliceCtrl::SetAlgo { algo: SliceAlgo::Nvs }).unwrap();
        let share = 1000 / slices;
        let confs = (0..slices)
            .map(|id| SliceConf {
                id,
                label: format!("s{id}"),
                params: SliceParams::NvsCapacity { share_milli: share },
                ue_sched: UeSchedAlgo::PropFair,
            })
            .collect();
        sim.cells[0].apply_slice_ctrl(&SliceCtrl::AddModSlices { slices: confs }).unwrap();
        let assoc = (0..ues).map(|i| (0x4601 + i, i as u32 % slices)).collect();
        sim.cells[0].apply_slice_ctrl(&SliceCtrl::AssocUeSlice { assoc }).unwrap();
    }
    // Warm up queues so every tick does real scheduling work.
    sim.run_ms(200);
    sim
}

fn bench_tti(c: &mut Criterion) {
    let mut group = c.benchmark_group("tti");
    for (ues, slices) in [(4u16, 0u32), (32, 0), (32, 4)] {
        group.bench_with_input(
            BenchmarkId::new("tick", format!("{ues}ue_{slices}slices")),
            &(ues, slices),
            |b, &(ues, slices)| {
                let mut sim = loaded_sim(ues, slices);
                b.iter(|| sim.tick());
            },
        );
    }
    group.finish();
}

fn bench_classifier(c: &mut Criterion) {
    use flexric_ransim::rlc::{Packet, RlcBearer};
    use flexric_ransim::tc::TcLayer;
    use flexric_sm::tc::QueueKind;

    let mut group = c.benchmark_group("tc_classifier");
    for rules in [1usize, 8, 32] {
        group.bench_with_input(BenchmarkId::new("ingress", rules), &rules, |b, &rules| {
            let mut tc = TcLayer::new();
            for r in 0..rules as u32 {
                tc.add_queue(r + 1, QueueKind::Fifo { cap_bytes: 0 });
                tc.add_rule(
                    FiveTupleRule {
                        id: r,
                        dst_port: Some(5000 + r as u16),
                        proto: Some(17),
                        ..Default::default()
                    },
                    r + 1,
                    r,
                )
                .unwrap();
            }
            let mut rlc = RlcBearer::new(0);
            let mut sink = Vec::new();
            let pkt = Packet {
                flow: 0,
                seq: 0,
                bytes: 1500,
                sent_ms: 0,
                enq_ms: 0,
                src_ip: 1,
                dst_ip: 2,
                src_port: 1000,
                dst_port: 80, // matches no rule: worst case, full scan
                proto: 6,
            };
            b.iter(|| {
                tc.ingress(std::hint::black_box(pkt), 0);
                tc.egress(&mut rlc, 0, &mut sink);
                rlc.drain(1_000_000, 0, &mut sink);
                sink.clear();
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tti, bench_classifier);
criterion_main!(benches);
