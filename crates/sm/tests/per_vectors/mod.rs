//! PER-style messages and delta frames as the commit before the bit
//! writer's row window (PR 19, `b989c00`) wrote them with
//! `encode(SmCodec::Asn1Per)` and `DeltaEncoder::encode`: `sm.txt` holds one
//! `name hex` line per message.  `per_golden.rs` and `schema.rs` build the
//! values and check today's encoder writes the same bytes.

const VECTORS: &str = include_str!("sm.txt");

/// The bytes recorded under `name`.
pub fn vector(name: &str) -> Vec<u8> {
    let hex = VECTORS
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find_map(|(n, hex)| (n == name).then_some(hex))
        .unwrap_or_else(|| panic!("no vector named {name}"));
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect()
}
