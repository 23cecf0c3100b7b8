//! Event trigger definitions shared by the monitoring service models.

use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::{FbBuilder, FbTable, TableBuilder};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::schema::{Field, Kind, Wire};
use flexric_codec::ByteSink;

use crate::SmPayload;

/// How report payloads are encoded on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReportMode {
    /// Every indication carries the full snapshot (the paper's baseline).
    #[default]
    Full,
    /// Indications carry dirty-field deltas against the previously
    /// emitted report ([`crate::delta`]), with a full keyframe every
    /// `keyframe_every` report opportunities and unchanged snapshots
    /// suppressed outright.
    Delta {
        /// Report opportunities per keyframe (≥ 1; 1 degenerates to
        /// full reporting in keyframe framing).
        keyframe_every: u32,
    },
}

/// Periodic report trigger: "send an indication every `period_ms`".
///
/// This is the trigger every statistics subscription in the paper uses
/// (1 ms in the hot-path experiments, 10 ms in the 100-agent scaling run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportTrigger {
    /// Reporting period in milliseconds (0 = every opportunity).
    pub period_ms: u32,
    /// Restrict the report to these RNTIs; empty = all UEs.
    ///
    /// "An active E2 subscription addresses all (or an indicated subset) of
    /// UEs" (paper §4.1.2).
    pub rnti_filter_lo: u16,
    /// Upper bound of the RNTI filter range (inclusive); `lo=1, hi=0`
    /// encodes "no filter".
    pub rnti_filter_hi: u16,
    /// Full-snapshot vs delta-encoded indications.
    pub mode: ReportMode,
}

impl ReportTrigger {
    /// A trigger with the given period, no UE filter, full reports.
    pub fn every_ms(period_ms: u32) -> Self {
        ReportTrigger { period_ms, rnti_filter_lo: 1, rnti_filter_hi: 0, mode: ReportMode::Full }
    }

    /// A delta-mode trigger with the given period and keyframe cadence.
    pub fn delta_every_ms(period_ms: u32, keyframe_every: u32) -> Self {
        ReportTrigger {
            mode: ReportMode::Delta { keyframe_every: keyframe_every.max(1) },
            ..ReportTrigger::every_ms(period_ms)
        }
    }

    /// The same trigger with a different period — what a server-driven
    /// retune changes.
    pub fn with_period_ms(self, period_ms: u32) -> Self {
        ReportTrigger { period_ms, ..self }
    }

    /// Whether this trigger filters UEs at all.
    pub fn has_filter(&self) -> bool {
        self.rnti_filter_lo <= self.rnti_filter_hi
    }

    /// Whether `rnti` passes the filter.
    pub fn matches(&self, rnti: u16) -> bool {
        !self.has_filter() || (self.rnti_filter_lo..=self.rnti_filter_hi).contains(&rnti)
    }
}

const PERIOD_MS: Field = Field::new("period_ms", Kind::uint, u32::MAX as u64);
const RNTI: Field = Field::new("rnti_filter", Kind::bits(16), u16::MAX as u64);
const KEYFRAME_EVERY: Field = Field::new("keyframe_every", Kind::uint, u32::MAX as u64);

/// Written by hand: the FB decoder's defaults for absent slots (`lo=1,
/// hi=0`, full reports) are behaviour a field table does not state.
impl SmPayload for ReportTrigger {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        w.put_uint(self.period_ms as u64);
        w.put_bits(self.rnti_filter_lo as u64, 16);
        w.put_bits(self.rnti_filter_hi as u64, 16);
        match self.mode {
            ReportMode::Full => w.put_bit(false),
            ReportMode::Delta { keyframe_every } => {
                w.put_bit(true);
                w.put_uint(keyframe_every as u64);
            }
        }
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        let period_ms = Wire::get_per(&PERIOD_MS, r)?;
        let rnti_filter_lo = Wire::get_per(&RNTI, r)?;
        let rnti_filter_hi = Wire::get_per(&RNTI, r)?;
        let mode = if r.get_bit()? {
            let keyframe_every: u32 = Wire::get_per(&KEYFRAME_EVERY, r)?;
            ReportMode::Delta { keyframe_every: keyframe_every.max(1) }
        } else {
            ReportMode::Full
        };
        Ok(ReportTrigger { period_ms, rnti_filter_lo, rnti_filter_hi, mode })
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let mut t = TableBuilder::new();
        t.u32(0, self.period_ms).u16(1, self.rnti_filter_lo).u16(2, self.rnti_filter_hi);
        if let ReportMode::Delta { keyframe_every } = self.mode {
            t.u32(3, keyframe_every.max(1));
        }
        t.end(b)
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        let mode = match t.u32(3)?.unwrap_or(0) {
            0 => ReportMode::Full,
            k => ReportMode::Delta { keyframe_every: k },
        };
        Ok(ReportTrigger {
            period_ms: t.u32(0)?.ok_or(CodecError::Malformed { what: "trigger period" })?,
            rnti_filter_lo: t.u16(1)?.unwrap_or(1),
            rnti_filter_hi: t.u16(2)?.unwrap_or(0),
            mode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    #[test]
    fn roundtrip() {
        roundtrip_both(&ReportTrigger::every_ms(1));
        roundtrip_both(&ReportTrigger {
            period_ms: 10,
            rnti_filter_lo: 5,
            rnti_filter_hi: 20,
            mode: ReportMode::Full,
        });
        roundtrip_both(&ReportTrigger::delta_every_ms(10, 16));
        roundtrip_both(&ReportTrigger {
            period_ms: 0,
            rnti_filter_lo: 3,
            rnti_filter_hi: 7,
            mode: ReportMode::Delta { keyframe_every: 1 },
        });
        garbage_rejected::<ReportTrigger>();
    }

    #[test]
    fn filter_semantics() {
        let all = ReportTrigger::every_ms(1);
        assert!(!all.has_filter());
        assert!(all.matches(0) && all.matches(u16::MAX));
        let some = ReportTrigger {
            period_ms: 1,
            rnti_filter_lo: 10,
            rnti_filter_hi: 12,
            mode: ReportMode::Full,
        };
        assert!(some.has_filter());
        assert!(some.matches(10) && some.matches(12));
        assert!(!some.matches(9) && !some.matches(13));
    }

    #[test]
    fn retune_and_mode_helpers() {
        let t = ReportTrigger::delta_every_ms(10, 8);
        assert_eq!(t.mode, ReportMode::Delta { keyframe_every: 8 });
        let r = t.with_period_ms(80);
        assert_eq!(r.period_ms, 80);
        assert_eq!(r.mode, t.mode, "retune preserves mode and filter");
        assert_eq!(r.rnti_filter_lo, t.rnti_filter_lo);
        // keyframe_every is clamped to ≥ 1 at construction and decode.
        assert_eq!(
            ReportTrigger::delta_every_ms(5, 0).mode,
            ReportMode::Delta { keyframe_every: 1 }
        );
    }
}
