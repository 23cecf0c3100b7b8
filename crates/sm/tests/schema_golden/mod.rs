//! Messages of the commit before the field tables (`flexric_sm::schema`)
//! replaced the hand-written statistics codecs, as hex, and the values they
//! were encoded from: the wire those tables must keep.  The delta frames are
//! the second report of a stream whose first report, the keyframe, carried
//! the first snapshot of the pair; they do not depend on the SM codec.
//! (`schema.rs` checks the bytes; `fb_wire.rs` borrows the values.)
#![allow(dead_code)]

use flexric_sm::mac::MacStatsInd;
use flexric_sm::pdcp::PdcpStatsInd;
use flexric_sm::rlc::RlcStatsInd;
use flexric_sm::schema::Row;
use flexric_sm::tc::{TcQueueStats, TcStatsInd};

/// Row `key` with every field drawn from `n`, from one bit wide to
/// sixty-four, and folded into what the field may hold.
pub fn row<R: Row>(key: u32, n: u64) -> R {
    let mut row = R::with_key(key);
    for (i, f) in (0..).zip(R::FIELDS) {
        let v = (n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i) >> ((5 * n + 7 * i) % 64);
        assert!(row.set_field(i as u32, f.max.checked_add(1).map_or(v, |over| v % over)));
    }
    row
}

/// Three rows, the last with every field at its maximum; then the second
/// gone, the rest reordered, one field cleared and a new row.
pub fn rows<R: Row>() -> [Vec<R>; 2] {
    let (mut top, mut moved) = (R::with_key(u32::MAX), row::<R>(0x4601, 1));
    for (i, f) in (0..).zip(R::FIELDS) {
        assert!(top.set_field(i, f.max));
    }
    let first = vec![moved, row(0x4602, 2), top];
    assert!(moved.set_field(R::FIELDS.len() as u32 / 2, 0));
    [first, vec![top, moved, row(0x0001_4604, 4)]]
}

pub fn mac() -> [MacStatsInd; 2] {
    let [a, b] = rows();
    [
        MacStatsInd { tstamp_ms: 123_456, cell_prbs: 106, ues: a },
        MacStatsInd { tstamp_ms: 123_457, cell_prbs: 52, ues: b },
    ]
}

pub fn rlc() -> [RlcStatsInd; 2] {
    let [a, b] = rows();
    [RlcStatsInd { tstamp_ms: 5_000, bearers: a }, RlcStatsInd { tstamp_ms: 5_010, bearers: b }]
}

pub fn pdcp() -> [PdcpStatsInd; 2] {
    let [a, b] = rows();
    [PdcpStatsInd { tstamp_ms: 77, bearers: a }, PdcpStatsInd { tstamp_ms: 78, bearers: b }]
}

pub fn tc() -> TcStatsInd {
    let [queues, _] = rows::<TcQueueStats>();
    TcStatsInd { tstamp_ms: 60_000, rnti: 0x4601, drb_id: 1, queues, pacer_rate_kbps: 38_000 }
}

pub const MAC_PER: &str = "0301e240016a034601038004ef372fe9048dde6e5f044f1bbcdc039e377903013c6e02027801040809e3779b97f4a7c104372fe94f6e9ef4602e50046ef372fe0478dde6e503f1bbcd0301e3770203c6010704bfa53e08071e3779b97f4a7c04f372fe94677cbffffff804ffffffff04ffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff04ffffffff08ffffffffffffffff04fffffffff9fe70";
pub const MAC_FB: &str = "465201000201000003000000180000007a000000be0000005c00000001460007e92f37ef5f6ede8ddcbc1b4f0000000079379e00000000006e3c010000000000780200000000000004000000c1a7f4979b77e3094fe92f37ba01ef010e0004000600070008000c001000180020002800300034003c00400042005c00000002460e0afe72f36ee5e6dd78cdbbf1000000000077e3010000000000c6030000000000000700000000000000083ea5bf7c4a7fb979371e0094fe72f39d01cb035c000000ffff0f1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe703e7031601000040e20100000000006a00000008000000030004000c001000";
pub const MAC_PB: &str = "08c0c407106a1a3e08818c011000180720e9dfdcf90e28dfdcf9ee0830dcf9eef80438f9eef80440eef80448f804500458c1cfd2bfb9f3ddf10960cfd2bfb90368ba0370ef031a3d08828c01100e180a20fee5cdf70628e5cdf7c60730cdf7c60738f7c60740c60748075088fc94fd0b58fc94fdcb9bef8d0f6094fdcb9b0f689d0370cb071a5d08ffff03100f181f20ffffffff0f28ffffffff0f30ffffffffffffffffff0138ffffffffffffffffff0140ffffffffffffffffff0148ffffffffffffffffff0150ffffffff0f58ffffffffffffffffff0160ffffffff0f68e70770e707";
pub const MAC_DELTA: &str = "0000000100000002800301e24180013402000046010200010000004604fff80102011f041e3779b9033c6ef30278dd01f101010803c6ef372fe94f82046e5fd29f060f1bbcdcbfa5043779b97f01f2017e010000460280030000ffff00004601000046049cd4d89b42e6f05b";
pub const RLC_PER: &str = "021388034601000804f1bbcdcbfa53e00709e3779b97f4a70613c6ef372fe905278dde6e5f044f1bbcdc039e377903013c6e020278460200070f1bbcdcbfa53e061e3779b97f4a053c6ef372fe0478dde6e503f1bbcd0301e3770203c60107ffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff04ffffffff08ffffffffffffffff08ffffffffffffffff";
pub const RLC_FB: &str = "46520100f7000000030000001800000071000000b40000005b000000014600e053facbcdbbf104a7f4979b77e30900e92f37efc61300005f6ede8d27000000dcbc1b4f0000000079379e006e3c01000000000078020000000000000a000400060007000f0017001f0027002f0033003b005b0000000246003ea5bfdcbc1b0f004a7fb979371e0000fe72f36e3c000000e5e6dd7800000000cdbbf1000000000077e30100c60300000000000007000000000000005b000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff07010000881300000000000008000000020004000c00";
pub const RLC_PB: &str = "088827123a08818c01100018e0a7e9dfdcf9eef80420a7e9dfdcf9eef80428e9dfdcf9eef80430dfdcf9eef80438dcf9eef80440f9eef80448eef80450f804123208828c01100018becafee5cdf7c60720cafee5cdf7c60728fee5cdf7c60730e5cdf7c60738cdf7c60740f7c60748c6075007125a08ffff0310ff0118ffffffffffffffffff0120ffffffffffffffffff0128ffffffffffffffffff0130ffffffffffffffffff0138ffffffffffffffffff0140ffffffff0f48ffffffffffffffffff0150ffffffffffffffffff01";
pub const RLC_DELTA: &str = "00000001000000028002139200020000460110010000014604ff06078dde6e5fd2050f1bbcdcbf041e3779b9033c6ef30278dd01f101010803c6ef372fe94f820100004602800300ffffff0000460100014604dd0fc3ed24fa862a";
pub const PDCP_PER: &str = "014d034601000804f1bbcdcbfa53e00709e3779b97f4a70613c6ef372fe905278dde6e5f044f1bbcdc039e377903013c6e460200070f1bbcdcbfa53e061e3779b97f4a053c6ef372fe0478dde6e503f1bbcd0301e3770203c6ffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff";
pub const PDCP_FB: &str = "46520100e900000003000000180000006b000000aa00000057000000014600e053facbcdbbf104a7f4979b77e30900e92f37efc61300005f6ede8d27000000dcbc1b4f0000000079379e00000000006e3c01000000000009000400060007000f0017001f0027002f003700570000000246003ea5bfdcbc1b0f004a7fb979371e0000fe72f36e3c000000e5e6dd7800000000cdbbf1000000000077e3010000000000c60300000000000057000000fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff90000004d0000000000000008000000020004000c00";
pub const PDCP_PB: &str = "084d123708818c01100018e0a7e9dfdcf9eef80420a7e9dfdcf9eef80428e9dfdcf9eef80430dfdcf9eef80438dcf9eef80440f9eef80448eef804123008828c01100018becafee5cdf7c60720cafee5cdf7c60728fee5cdf7c60730e5cdf7c60738cdf7c60740f7c60748c607125408ffff0310ff0118ffffffffffffffffff0120ffffffffffffffffff0128ffffffffffffffffff0130ffffffffffffffffff0138ffffffffffffffffff0140ffffffffffffffffff0148ffffffffffffffffff01";
pub const PDCP_DELTA: &str = "000000010000000280014e00020000460110010000014604fe06078dde6e5fd2050f1bbcdcbf041e3779b9033c6ef30278dd01f101010100004602800300ffffff0000460100014604e50300d37a30bd5c";
pub const TC_PER: &str = "02ea60460101030246010804f1bbcdcbfa53e0049b97f4a70613c6ef372fe905278dde6e5f044f1bbcdc039e377903013c6e024602070f1bbcdcbfa53e0479b97f4a053c6ef372fe0478dde6e503f1bbcd0301e3770203c604ffffffff08ffffffffffffffff04ffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff08ffffffffffffffff029470";
pub const TC_FB: &str = "46520100de000000030000001800000066000000a20000005400000001460000e053facbcdbbf104a7f4979be92f37efc61300005f6ede8d27000000dcbc1b4f0000000079379e00000000006e3c010000000000080004000800100014001c0024002c00340054000000024600003ea5bfdcbc1b0f004a7fb979fe72f36e3c000000e5e6dd7800000000cdbbf1000000000077e3010000000000c60300000000000054000000fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff900000060ea000000000000014601080000007094000000000000050004000c000e000f001300";
