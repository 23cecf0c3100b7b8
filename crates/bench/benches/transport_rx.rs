//! Micro-benchmarks of the transport receive path, the zero-copy slab
//! reassembler (its comparison with the copy-per-frame receive it replaced
//! is recorded in EXPERIMENTS.md).
//!
//! Two levels:
//!
//! * `rx_reassembly` — pure framing cost over an in-memory burst: the
//!   bytes enter the slab once (standing in for the kernel→user copy of
//!   `read`), then every frame is sliced out as a refcounted view.
//! * `rx_socket` — the full `FramedReader` over a `tokio::io::duplex`
//!   pipe.
//!
//! Run with `cargo bench -p flexric-bench --bench transport_rx`.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flexric_transport::frame::{encode_frame_into, HEADER_LEN};
use flexric_transport::rx::FrameAssembler;
use flexric_transport::tcp::FramedReader;

/// An encoded burst of `n` frames with `payload`-byte bodies, as it would
/// sit in the receive buffer after one large socket read.
fn burst(n: usize, payload: usize) -> Vec<u8> {
    let body = vec![0xA5u8; payload];
    let mut out = BytesMut::with_capacity(n * (HEADER_LEN + payload));
    for i in 0..n {
        encode_frame_into((i % 2) as u16, 70, &body, &mut out);
    }
    out.to_vec()
}

/// The burst enters the slab once, frames come out as refcounted views.
fn drain_assembler(asm: &mut FrameAssembler, buf: &[u8]) -> u64 {
    let mut frames = 0u64;
    asm.feed(buf);
    while let Ok(Some(msg)) = asm.next_frame() {
        std::hint::black_box(msg);
        frames += 1;
    }
    frames
}

fn bench_reassembly(c: &mut Criterion) {
    const FRAMES: usize = 64;
    let mut group = c.benchmark_group("rx_reassembly");
    for payload in [64usize, 1024, 16 * 1024] {
        let data = burst(FRAMES, payload);
        group.throughput(Throughput::Elements(FRAMES as u64));
        group.bench_with_input(BenchmarkId::new("zero_copy", payload), &data, |b, data| {
            let mut asm = FrameAssembler::new();
            b.iter(|| {
                let n = drain_assembler(&mut asm, std::hint::black_box(data));
                assert_eq!(n, FRAMES as u64);
            })
        });
    }
    group.finish();
}

fn bench_socket(c: &mut Criterion) {
    const FRAMES: usize = 64;
    let rt = tokio::runtime::Builder::new_current_thread().enable_all().build().unwrap();
    let mut group = c.benchmark_group("rx_socket");
    for payload in [64usize, 1024, 16 * 1024] {
        let data = burst(FRAMES, payload);
        let cap = data.len() + 1;
        group.throughput(Throughput::Elements(FRAMES as u64));
        group.bench_with_input(BenchmarkId::new("zero_copy", payload), &data, |b, data| {
            b.iter(|| {
                rt.block_on(async {
                    // A duplex wide enough to hold the whole burst, so the
                    // reader sees the same single-wakeup shape a loaded TCP
                    // socket produces.
                    let (mut w, r) = tokio::io::duplex(cap);
                    tokio::io::AsyncWriteExt::write_all(&mut w, data).await.unwrap();
                    drop(w);
                    let mut rd = FramedReader::new(r);
                    let mut n = 0u64;
                    while let Some(m) = rd.recv().await.unwrap() {
                        std::hint::black_box(m);
                        n += 1;
                    }
                    assert_eq!(n, FRAMES as u64);
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reassembly, bench_socket);
criterion_main!(benches);
