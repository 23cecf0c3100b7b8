//! Codec micro-benchmarks: encode / decode / peek across the three wire
//! formats — the per-message costs behind the paper's Figs. 7 and 8b —
//! plus the zero-allocation encode path (word-level bit packing,
//! `encode_into` buffer reuse, single-buffer framing, and encode-once 1→N
//! indication fan-out).  The paths these replaced were measured against
//! them once; the numbers are in EXPERIMENTS.md.

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexric::scratch::{flush_outbox, EncodeScratch, Targets};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::E2apCodec;
use flexric_e2ap::*;
use flexric_sm::mac::{MacStatsInd, MacUeStats};
use flexric_sm::{SmCodec, SmPayload};
use flexric_transport::frame;

fn mac_snapshot(ues: u16) -> MacStatsInd {
    MacStatsInd {
        tstamp_ms: 123_456,
        cell_prbs: 106,
        ues: (0..ues)
            .map(|i| MacUeStats {
                rnti: 0x4601 + i,
                cqi: 15,
                mcs: 20,
                prbs_dl: 50,
                prbs_ul: 10,
                tbs_dl_bytes: 61_600,
                tbs_ul_bytes: 8_000,
                dl_aggr_bytes: 1 << 33,
                ul_aggr_bytes: 1 << 20,
                bsr: 1200,
                dl_backlog_bytes: 95_000,
                slice_id: (i % 2) as u32,
                plmn_mcc: 208,
                plmn_mnc: 95,
            })
            .collect(),
    }
}

fn indication(payload: Bytes) -> E2apPdu {
    E2apPdu::RicIndication(RicIndication {
        req_id: RicRequestId::new(7, 3),
        ran_function: RanFunctionId::new(142),
        action: RicActionId(0),
        sn: Some(42),
        ind_type: RicIndicationType::Report,
        header: Bytes::new(),
        message: payload,
        call_process_id: None,
    })
}

fn bench_e2ap(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2ap");
    for payload_size in [100usize, 1500] {
        let pdu = indication(Bytes::from(vec![0xA5u8; payload_size]));
        for codec in E2apCodec::ALL {
            let encoded = codec.encode(&pdu);
            group.bench_with_input(
                BenchmarkId::new(format!("encode/{}", codec.label()), payload_size),
                &pdu,
                |b, pdu| b.iter(|| codec.encode(std::hint::black_box(pdu))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("decode/{}", codec.label()), payload_size),
                &encoded,
                |b, buf| b.iter(|| codec.decode(std::hint::black_box(buf)).unwrap()),
            );
            // The Fig. 8b mechanism: peek is O(1) for FB, a full decode
            // for ASN.1-PER.
            group.bench_with_input(
                BenchmarkId::new(format!("peek/{}", codec.label()), payload_size),
                &encoded,
                |b, buf| b.iter(|| codec.peek(std::hint::black_box(buf)).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_sm(c: &mut Criterion) {
    let mut group = c.benchmark_group("mac_stats_32ue");
    let ind = mac_snapshot(32);
    for codec in SmCodec::ALL {
        let encoded = ind.encode(codec);
        group.bench_function(format!("encode/{}", codec.label()), |b| {
            b.iter(|| std::hint::black_box(&ind).encode(codec))
        });
        group.bench_function(format!("decode/{}", codec.label()), |b| {
            b.iter(|| MacStatsInd::decode(codec, std::hint::black_box(&encoded)).unwrap())
        });
    }
    // The scratch-reusing `encode_into` path the agent report loop runs
    // on: same generic body as `encode`, but the frozen-split buffer
    // reclaims its capacity between messages.
    let mut scratch = BytesMut::with_capacity(4096);
    for codec in SmCodec::ALL {
        group.bench_function(format!("encode_into/{}", codec.label()), |b| {
            b.iter(|| std::hint::black_box(&ind).encode_into(codec, &mut scratch))
        });
    }
    // FlexRAN's protobuf baseline on the same snapshot.
    let pb = ind.encode_pb();
    group.bench_function("encode/PB", |b| b.iter(|| std::hint::black_box(&ind).encode_pb()));
    group.bench_function("decode/PB", |b| {
        b.iter(|| MacStatsInd::decode_pb(std::hint::black_box(&pb)).unwrap())
    });
    group.finish();
}

/// Word-level bit packing on raw PER primitives.
fn bench_per_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_bits");
    // A representative mix of field widths (presence bits, enums, lengths,
    // 16/32/64-bit integers).
    let ops: Vec<(u64, u32)> = (0..256)
        .map(|i| {
            let n = [1, 3, 5, 8, 13, 16, 24, 32, 48, 64][i % 10];
            (0xDEAD_BEEF_CAFE_F00Du64.rotate_left(i as u32), n)
        })
        .collect();
    group.bench_function("put_bits/word", |b| {
        b.iter(|| {
            let mut w = BitWriter::with_capacity(2048);
            for &(v, n) in std::hint::black_box(&ops) {
                w.put_bits(v, n);
            }
            w.finish()
        })
    });
    let mut w = BitWriter::new();
    for &(v, n) in &ops {
        w.put_bits(v, n);
    }
    let buf = w.finish();
    group.bench_function("get_bits/word", |b| {
        b.iter(|| {
            let mut r = BitReader::new(std::hint::black_box(&buf));
            for &(_, n) in &ops {
                r.get_bits(n).unwrap();
            }
        })
    });
    group.finish();
}

/// Scratch-reusing `encode_into`, alone and with the single-buffer frame
/// path (allocate-per-message `encode` is in the `e2ap` group).
fn bench_encode_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_path");
    for payload_size in [100usize, 1500] {
        let pdu = indication(Bytes::from(vec![0xA5u8; payload_size]));
        for codec in E2apCodec::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("encode_into/{}", codec.label()), payload_size),
                &pdu,
                |b, pdu| {
                    let mut scratch = BytesMut::with_capacity(4096);
                    b.iter(|| {
                        codec.encode_into(std::hint::black_box(pdu), &mut scratch);
                        scratch.split().freeze()
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("encode_into+frame/{}", codec.label()), payload_size),
                &pdu,
                |b, pdu| {
                    let mut scratch = BytesMut::with_capacity(4096);
                    let mut framed = BytesMut::with_capacity(4096);
                    b.iter(|| {
                        codec.encode_into(std::hint::black_box(pdu), &mut scratch);
                        let payload = scratch.split().freeze();
                        frame::encode_frame_into(0, 70, &payload, &mut framed);
                        framed.split().freeze()
                    })
                },
            );
        }
    }
    group.finish();
}

/// 1→N indication fan-out: one encode shared across N targets.
fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("fanout_8");
    let pdu = indication(Bytes::from(mac_snapshot(32).encode(SmCodec::Flatb)));
    const N: usize = 8;
    for codec in E2apCodec::ALL {
        group.bench_function(format!("encode_once/{}", codec.label()), |b| {
            let mut scratch = EncodeScratch::with_capacity(4096);
            b.iter(|| {
                let mut outbox =
                    vec![(Targets::Many((0..N).collect()), std::hint::black_box(&pdu).clone())];
                let mut frames = Vec::with_capacity(N);
                flush_outbox(&mut scratch, codec, &mut outbox, |_, f| frames.push(f));
                frames
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_e2ap,
    bench_sm,
    bench_per_primitives,
    bench_encode_paths,
    bench_fanout
);
criterion_main!(benches);
