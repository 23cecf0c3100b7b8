//! RAN function definition payload, carried opaquely in E2 setup.

use flexric_codec::schema::Ahead;
use flexric_codec::wire_table;

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

wire_table!(FuncStyle { style: i32 => 0, name: String => 1 });
wire_table!(RanFuncDef {
    name: String => 0,
    description: String => 1,
    report_styles: Ahead<FuncStyle> => 2,
    control_styles: Ahead<FuncStyle> => 3,
});

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
