//! RAN function definition payload, carried opaquely in E2 setup.

use flexric_codec::error::{CodecError, Result};
use flexric_codec::fb::{FbBuilder, FbTable, TableBuilder};
use flexric_codec::per::{BitReader, BitWriter};
use flexric_codec::ByteSink;

use crate::SmPayload;

/// One capability style of a RAN function (report style, control style, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncStyle {
    /// Style type (SM-specific).
    pub style: i32,
    /// Human-readable style name.
    pub name: String,
}

/// The RAN function definition advertised at E2 setup: what a controller
/// learns about a function before subscribing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RanFuncDef {
    /// Short function name, e.g. `"MAC-STATS"`.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Supported report styles.
    pub report_styles: Vec<FuncStyle>,
    /// Supported control styles.
    pub control_styles: Vec<FuncStyle>,
}

impl RanFuncDef {
    /// A definition with just a name and description.
    pub fn simple(name: &str, description: &str) -> Self {
        RanFuncDef {
            name: name.to_owned(),
            description: description.to_owned(),
            report_styles: vec![],
            control_styles: vec![],
        }
    }
}

fn put_styles<B: ByteSink>(w: &mut BitWriter<B>, styles: &[FuncStyle]) {
    w.put_length(styles.len());
    for s in styles {
        w.put_uint(s.style as u32 as u64);
        w.put_utf8(&s.name);
    }
}

fn get_styles(r: &mut BitReader) -> Result<Vec<FuncStyle>> {
    let n = r.get_length()?;
    if n > 4096 {
        return Err(CodecError::Malformed { what: "too many styles" });
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(FuncStyle { style: r.get_uint()? as u32 as i32, name: r.get_utf8()? });
    }
    Ok(out)
}

impl SmPayload for RanFuncDef {
    fn encode_per<B: ByteSink>(&self, w: &mut BitWriter<B>) {
        w.put_utf8(&self.name);
        w.put_utf8(&self.description);
        put_styles(w, &self.report_styles);
        put_styles(w, &self.control_styles);
    }

    fn decode_per(r: &mut BitReader) -> Result<Self> {
        Ok(RanFuncDef {
            name: r.get_utf8()?,
            description: r.get_utf8()?,
            report_styles: get_styles(r)?,
            control_styles: get_styles(r)?,
        })
    }

    fn encode_fb<B: ByteSink>(&self, b: &mut FbBuilder<B>) -> u32 {
        let name = b.string(&self.name);
        let desc = b.string(&self.description);
        let enc_styles = |b: &mut FbBuilder<B>, styles: &[FuncStyle]| -> u32 {
            b.vec_off_with(styles, |b, s| {
                let n = b.string(&s.name);
                let mut t = TableBuilder::new();
                t.u32(0, s.style as u32).off(1, n);
                t.end(b)
            })
        };
        let rep = enc_styles(b, &self.report_styles);
        let ctl = enc_styles(b, &self.control_styles);
        let mut t = TableBuilder::new();
        t.off(0, name).off(1, desc).off(2, rep).off(3, ctl);
        t.end(b)
    }

    fn decode_fb(t: &FbTable) -> Result<Self> {
        let dec_styles = |slot: u16| -> Result<Vec<FuncStyle>> {
            let v = t.vector_or_empty(slot)?;
            let mut out = Vec::with_capacity(v.len());
            for i in 0..v.len() {
                let st = v.table_at(i)?;
                out.push(FuncStyle {
                    style: st.req_u32(0, "style type")? as i32,
                    name: st
                        .string(1)?
                        .ok_or(CodecError::Malformed { what: "style name" })?
                        .to_owned(),
                });
            }
            Ok(out)
        };
        Ok(RanFuncDef {
            name: t.string(0)?.ok_or(CodecError::Malformed { what: "func name" })?.to_owned(),
            description: t
                .string(1)?
                .ok_or(CodecError::Malformed { what: "func description" })?
                .to_owned(),
            report_styles: dec_styles(2)?,
            control_styles: dec_styles(3)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    #[test]
    fn roundtrip() {
        roundtrip_both(&RanFuncDef::simple("MAC-STATS", "per-UE MAC statistics"));
        roundtrip_both(&RanFuncDef {
            name: "SLICE-CTRL".into(),
            description: "radio resource slicing".into(),
            report_styles: vec![FuncStyle { style: 1, name: "periodic".into() }],
            control_styles: vec![
                FuncStyle { style: 1, name: "add/mod slice".into() },
                FuncStyle { style: -2, name: "ue assoc".into() },
            ],
        });
        garbage_rejected::<RanFuncDef>();
    }

    #[test]
    fn negative_style_survives() {
        let def = RanFuncDef {
            name: "X".into(),
            description: String::new(),
            report_styles: vec![FuncStyle { style: i32::MIN, name: "n".into() }],
            control_styles: vec![],
        };
        roundtrip_both(&def);
    }
}
