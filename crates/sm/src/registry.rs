//! The service-model plugin registry: SMs as versioned descriptors.
//!
//! FlexRIC's pitch is that service models are "specifications in their own
//! right" that plug into a thin SDK (paper §3, Appendix A.3) — the SDK
//! must not need editing to speak a new one.  This module is the mechanism:
//! every SM, bundled or third-party, is described by an [`SmDescriptor`]
//! — RAN function id, OID, `major.minor` [`SmVersion`], a type-erased
//! codec vtable ([`SmVtable`]), optional delta-stream hooks, and a funcdef
//! builder — registered in an [`SmRegistry`].
//!
//! The layers consume it as follows:
//!
//! * **agents** advertise `oid@version` from the descriptor at E2 Setup,
//! * **servers** negotiate per advertised function via
//!   [`SmRegistry::negotiate`]: the major version must match and the
//!   highest registered minor wins; unknown OIDs and major mismatches are
//!   rejected with an explicit E2AP cause (never silently dropped),
//! * **iApps/xApps** decode triggers, indications, controls and delta
//!   streams through the vtable instead of static `match` arms, and the
//!   northbound exposes [`SmRegistry::list`] for out-of-process discovery.
//!
//! Registration rules: the same OID may register several versions (they
//! coexist; resolution picks by semver), but registering the same
//! OID+version twice is an error — never a silent overwrite — as is
//! claiming a RAN function id already owned by a different OID.
//!
//! The process-wide instance is [`global()`], pre-loaded with the bundled
//! SM set; `examples/custom_sm.rs` registers a brand-new SM against it
//! with zero edits anywhere in this crate.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use bytes::Bytes;
use flexric_codec::error::{CodecError, Result};
use flexric_e2ap::{FnVersion, RanFunctionId, RanFunctionItem};

use crate::delta::{DeltaDecoder, DeltaEvent, DeltaRows};
use crate::funcdef::RanFuncDef;
use crate::{oid, rf, ReportTrigger, SmCodec, SmPayload};

// ---------------------------------------------------------------------------
// Versions
// ---------------------------------------------------------------------------

/// A service-model version, `major.minor`.
///
/// Semver-compatible negotiation: two versions interoperate iff their
/// majors match; among compatible candidates the highest minor wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SmVersion {
    /// Incompatible-change counter; must match exactly.
    pub major: u16,
    /// Backward-compatible revision; highest wins.
    pub minor: u16,
}

impl SmVersion {
    /// Version 1.0, the default of every bundled SM.
    pub const V1: SmVersion = SmVersion::new(1, 0);

    /// A version literal.
    pub const fn new(major: u16, minor: u16) -> Self {
        SmVersion { major, minor }
    }

    /// Whether an offered version can be served by this one (majors match).
    pub fn compatible(&self, offered: SmVersion) -> bool {
        self.major == offered.major
    }

    /// As a `(major, minor)` pair, for wire types that avoid this crate.
    pub fn as_pair(&self) -> (u16, u16) {
        (self.major, self.minor)
    }

    /// From a `(major, minor)` pair.
    pub fn from_pair((major, minor): (u16, u16)) -> Self {
        SmVersion { major, minor }
    }
}

impl Default for SmVersion {
    fn default() -> Self {
        SmVersion::V1
    }
}

impl From<FnVersion> for SmVersion {
    fn from(v: FnVersion) -> Self {
        SmVersion { major: v.major, minor: v.minor }
    }
}

impl From<SmVersion> for FnVersion {
    fn from(v: SmVersion) -> Self {
        FnVersion { major: v.major, minor: v.minor }
    }
}

impl fmt::Display for SmVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

// ---------------------------------------------------------------------------
// Type-erased codec vtable
// ---------------------------------------------------------------------------

/// A decoded SM payload with its concrete type erased; downcast with
/// `payload.downcast_ref::<T>()` when the concrete type is known.
pub type AnyPayload = Box<dyn Any + Send>;

/// Decodes a payload of one kind (trigger, indication, …) from the wire.
pub type DecodeAnyFn = fn(SmCodec, &[u8]) -> Result<AnyPayload>;

/// Encodes a payload of one kind; `None` if the value is not this SM's
/// concrete type.
pub type EncodeAnyFn = fn(&(dyn Any + Send), SmCodec) -> Option<Vec<u8>>;

fn decode_any<T: SmPayload + Send + 'static>(codec: SmCodec, buf: &[u8]) -> Result<AnyPayload> {
    T::decode(codec, buf).map(|v| Box::new(v) as AnyPayload)
}

fn encode_any<T: SmPayload + Send + 'static>(
    v: &(dyn Any + Send),
    codec: SmCodec,
) -> Option<Vec<u8>> {
    v.downcast_ref::<T>().map(|t| t.encode(codec))
}

/// One reconstruction event from a type-erased delta stream.
pub enum AnyDeltaEvent {
    /// The stream's current full snapshot, reconstructed.
    Snapshot {
        /// The reconstruction, type-erased.
        snap: AnyPayload,
        /// Whether content changed relative to the previous reconstruction.
        changed: bool,
    },
    /// The frame could not be applied; ask the sender for a keyframe.
    NeedKeyframe,
}

/// A per-subscription delta-stream decoder with the snapshot type erased.
pub trait AnyDeltaDecoder: Send {
    /// Applies one wire frame.
    fn apply(&mut self, frame: &[u8], codec: SmCodec) -> Result<AnyDeltaEvent>;
}

struct TypedDeltaDecoder<T: DeltaRows>(DeltaDecoder<T>);

impl<T: DeltaRows + Send + 'static> AnyDeltaDecoder for TypedDeltaDecoder<T> {
    fn apply(&mut self, frame: &[u8], codec: SmCodec) -> Result<AnyDeltaEvent> {
        Ok(match self.0.apply(frame, codec)? {
            DeltaEvent::Snapshot { snap, changed, .. } => {
                AnyDeltaEvent::Snapshot { snap: Box::new(snap), changed }
            }
            DeltaEvent::NeedKeyframe { .. } => AnyDeltaEvent::NeedKeyframe,
        })
    }
}

fn new_delta_decoder<T: DeltaRows + Send + 'static>() -> Box<dyn AnyDeltaDecoder> {
    Box::new(TypedDeltaDecoder(DeltaDecoder::<T>::new()))
}

/// The per-payload-kind codec vtable of one SM.
///
/// Every slot is optional: an SM without a control plane leaves the ctrl
/// slot empty, and only monitoring SMs install delta hooks.
#[derive(Default)]
pub struct SmVtable {
    /// Event trigger definition.
    pub decode_trigger: Option<DecodeAnyFn>,
    /// Action definition.
    pub decode_action: Option<DecodeAnyFn>,
    /// Indication message.
    pub decode_indication: Option<DecodeAnyFn>,
    /// Indication message, encode side.
    pub encode_indication: Option<EncodeAnyFn>,
    /// Control message.
    pub decode_ctrl: Option<DecodeAnyFn>,
    /// Fresh per-subscription delta-stream decoder.
    pub new_delta_decoder: Option<fn() -> Box<dyn AnyDeltaDecoder>>,
}

impl fmt::Debug for SmVtable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmVtable")
            .field("trigger", &self.decode_trigger.is_some())
            .field("action", &self.decode_action.is_some())
            .field("indication", &self.decode_indication.is_some())
            .field("ctrl", &self.decode_ctrl.is_some())
            .field("delta", &self.new_delta_decoder.is_some())
            .finish()
    }
}

/// Which SM wire encodings a descriptor supports (the bundled SMs encode
/// with both; a third-party SM may implement only one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecSupport {
    /// ASN.1-aligned-PER style.
    pub per: bool,
    /// FlatBuffers style.
    pub fb: bool,
}

impl Default for CodecSupport {
    fn default() -> Self {
        CodecSupport { per: true, fb: true }
    }
}

impl CodecSupport {
    /// Whether `codec` is supported.
    pub fn supports(&self, codec: SmCodec) -> bool {
        match codec {
            SmCodec::Asn1Per => self.per,
            SmCodec::Flatb => self.fb,
        }
    }
}

// ---------------------------------------------------------------------------
// Descriptors
// ---------------------------------------------------------------------------

/// One versioned service-model descriptor: everything a layer needs to
/// advertise, negotiate, and speak an SM without importing its types.
#[derive(Debug)]
pub struct SmDescriptor {
    /// Default RAN function id advertised for this SM.
    pub ran_function_id: u16,
    /// Object identifier, the cross-layer name of the SM.
    pub oid: String,
    /// `major.minor` version of this descriptor.
    pub version: SmVersion,
    /// Supported SM wire encodings.
    pub supports: CodecSupport,
    /// The RAN function definition advertised at E2 Setup.
    pub funcdef: RanFuncDef,
    /// The type-erased codec vtable.
    pub vtable: SmVtable,
}

impl SmDescriptor {
    /// A descriptor with an empty vtable; chain the builder methods to
    /// install codecs.
    pub fn new(
        ran_function_id: u16,
        oid: impl Into<String>,
        version: SmVersion,
        funcdef: RanFuncDef,
    ) -> Self {
        SmDescriptor {
            ran_function_id,
            oid: oid.into(),
            version,
            supports: CodecSupport::default(),
            funcdef,
            vtable: SmVtable::default(),
        }
    }

    /// Installs the trigger codec (most SMs use [`ReportTrigger`]).
    pub fn trigger<T: SmPayload + Send + 'static>(mut self) -> Self {
        self.vtable.decode_trigger = Some(decode_any::<T>);
        self
    }

    /// Installs the action-definition codec.
    pub fn action<T: SmPayload + Send + 'static>(mut self) -> Self {
        self.vtable.decode_action = Some(decode_any::<T>);
        self
    }

    /// Installs the indication-message codec (encode + decode).
    pub fn indication<T: SmPayload + Send + 'static>(mut self) -> Self {
        self.vtable.decode_indication = Some(decode_any::<T>);
        self.vtable.encode_indication = Some(encode_any::<T>);
        self
    }

    /// Installs the control-message codec.
    pub fn ctrl<T: SmPayload + Send + 'static>(mut self) -> Self {
        self.vtable.decode_ctrl = Some(decode_any::<T>);
        self
    }

    /// Installs delta-stream hooks: the indication stream may carry
    /// dirty-field deltas of `T` ([`crate::delta`]).
    pub fn delta<T: DeltaRows + Send + 'static>(mut self) -> Self {
        self.vtable.new_delta_decoder = Some(new_delta_decoder::<T>);
        self
    }

    /// Restricts the supported wire encodings.
    pub fn codecs(mut self, supports: CodecSupport) -> Self {
        self.supports = supports;
        self
    }

    /// Encodes the advertised RAN function definition.
    pub fn funcdef_bytes(&self, codec: SmCodec) -> Vec<u8> {
        self.funcdef.encode(codec)
    }

    /// Decodes an indication message through the vtable.
    pub fn decode_indication(&self, codec: SmCodec, buf: &[u8]) -> Result<AnyPayload> {
        let f = self
            .vtable
            .decode_indication
            .ok_or(CodecError::Malformed { what: "SM has no indication codec" })?;
        f(codec, buf)
    }

    /// Decodes a report trigger through the vtable.
    pub fn decode_trigger(&self, codec: SmCodec, buf: &[u8]) -> Result<AnyPayload> {
        let f = self
            .vtable
            .decode_trigger
            .ok_or(CodecError::Malformed { what: "SM has no trigger codec" })?;
        f(codec, buf)
    }

    /// Encodes an indication message through the vtable; `None` if the SM
    /// has no indication codec or `v` is a different concrete type.
    pub fn encode_indication(&self, v: &(dyn Any + Send), codec: SmCodec) -> Option<Vec<u8>> {
        self.vtable.encode_indication.and_then(|f| f(v, codec))
    }

    /// Starts a fresh delta-stream decoder, if this SM speaks deltas.
    pub fn delta_decoder(&self) -> Option<Box<dyn AnyDeltaDecoder>> {
        self.vtable.new_delta_decoder.map(|f| f())
    }

    /// `oid@major.minor`, the advertisement label.
    pub fn label(&self) -> String {
        format!("{}@{}", self.oid, self.version)
    }

    /// The E2AP advertisement of this descriptor: the [`RanFunctionItem`]
    /// an agent (or relay) sends at E2 Setup.
    pub fn advertisement(&self, sm_codec: SmCodec) -> RanFunctionItem {
        RanFunctionItem {
            id: RanFunctionId::new(self.ran_function_id),
            definition: Bytes::from(self.funcdef_bytes(sm_codec)),
            revision: 1,
            oid: self.oid.clone(),
            version: self.version.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// This OID+version is already registered; re-registration is an
    /// error, never a silent overwrite.
    DuplicateVersion {
        /// The conflicting OID.
        oid: String,
        /// The conflicting version.
        version: SmVersion,
    },
    /// The RAN function id is already owned by a different OID.
    FunctionIdTaken {
        /// The requested id.
        ran_function_id: u16,
        /// The OID that owns it.
        taken_by: String,
    },
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::DuplicateVersion { oid, version } => {
                write!(f, "SM {oid}@{version} is already registered")
            }
            RegisterError::FunctionIdTaken { ran_function_id, taken_by } => {
                write!(f, "RAN function id {ran_function_id} is already owned by {taken_by}")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Why capability negotiation failed for one advertised function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NegotiationError {
    /// No descriptor with this OID is registered.
    UnknownOid {
        /// The offered OID.
        oid: String,
    },
    /// Descriptors exist, but none shares the offered major version.
    MajorMismatch {
        /// The offered OID.
        oid: String,
        /// The offered version.
        offered: SmVersion,
        /// Every registered version of the OID.
        supported: Vec<SmVersion>,
    },
}

impl fmt::Display for NegotiationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegotiationError::UnknownOid { oid } => write!(f, "unknown service model {oid}"),
            NegotiationError::MajorMismatch { oid, offered, supported } => {
                write!(f, "{oid}@{offered} is major-incompatible with registered {supported:?}")
            }
        }
    }
}

impl std::error::Error for NegotiationError {}

#[derive(Default)]
struct Inner {
    /// Descriptors per OID, ascending by version.
    by_oid: HashMap<String, Vec<Arc<SmDescriptor>>>,
    /// Latest descriptor per RAN function id.
    by_rf: HashMap<u16, Arc<SmDescriptor>>,
}

/// A registry of versioned SM descriptors.
///
/// Thread-safe; layers usually share the process-wide [`global()`]
/// instance, but isolated registries (tests, multi-tenant controllers)
/// can be built with [`SmRegistry::new`].
#[derive(Default)]
pub struct SmRegistry {
    inner: RwLock<Inner>,
}

impl SmRegistry {
    /// An empty registry (no bundled SMs).
    pub fn new() -> Self {
        SmRegistry::default()
    }

    /// Registers a descriptor.
    ///
    /// The same OID may register several versions; the same OID+version
    /// twice is a [`RegisterError::DuplicateVersion`], and a RAN function
    /// id owned by a different OID is a [`RegisterError::FunctionIdTaken`].
    pub fn register(
        &self,
        desc: SmDescriptor,
    ) -> std::result::Result<Arc<SmDescriptor>, RegisterError> {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        if let Some(owner) = inner.by_rf.get(&desc.ran_function_id) {
            if owner.oid != desc.oid {
                return Err(RegisterError::FunctionIdTaken {
                    ran_function_id: desc.ran_function_id,
                    taken_by: owner.oid.clone(),
                });
            }
        }
        let entry = inner.by_oid.entry(desc.oid.clone()).or_default();
        if entry.iter().any(|d| d.version == desc.version) {
            return Err(RegisterError::DuplicateVersion {
                oid: desc.oid.clone(),
                version: desc.version,
            });
        }
        let desc = Arc::new(desc);
        entry.push(desc.clone());
        entry.sort_by_key(|d| d.version);
        // The rf index points at the highest registered version.
        match inner.by_rf.get(&desc.ran_function_id) {
            Some(cur) if cur.version > desc.version => {}
            _ => {
                inner.by_rf.insert(desc.ran_function_id, desc.clone());
            }
        }
        Ok(desc)
    }

    /// Resolves an offered `oid@version` to the descriptor that will serve
    /// it: the major must match and the highest registered minor wins.
    pub fn negotiate(
        &self,
        oid: &str,
        offered: SmVersion,
    ) -> std::result::Result<Arc<SmDescriptor>, NegotiationError> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let Some(versions) = inner.by_oid.get(oid) else {
            return Err(NegotiationError::UnknownOid { oid: oid.to_owned() });
        };
        versions
            .iter()
            .rfind(|d| d.version.compatible(offered)) // ascending order: last compatible = highest minor
            .cloned()
            .ok_or_else(|| NegotiationError::MajorMismatch {
                oid: oid.to_owned(),
                offered,
                supported: versions.iter().map(|d| d.version).collect(),
            })
    }

    /// The highest registered version of an OID.
    pub fn latest(&self, oid: &str) -> Option<Arc<SmDescriptor>> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner.by_oid.get(oid).and_then(|v| v.last().cloned())
    }

    /// The descriptor owning a RAN function id (highest version).
    pub fn by_ran_function(&self, ran_function_id: u16) -> Option<Arc<SmDescriptor>> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner.by_rf.get(&ran_function_id).cloned()
    }

    /// Every registered version of an OID, ascending.
    pub fn versions(&self, oid: &str) -> Vec<SmVersion> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner.by_oid.get(oid).map(|v| v.iter().map(|d| d.version).collect()).unwrap_or_default()
    }

    /// Every registered descriptor, sorted by OID then version — the
    /// introspection listing served over the northbound.
    pub fn list(&self) -> Vec<Arc<SmDescriptor>> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut all: Vec<Arc<SmDescriptor>> =
            inner.by_oid.values().flat_map(|v| v.iter().cloned()).collect();
        all.sort_by(|a, b| a.oid.cmp(&b.oid).then(a.version.cmp(&b.version)));
        all
    }

    /// Number of registered descriptors (all versions).
    pub fn len(&self) -> usize {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner.by_oid.values().map(|v| v.len()).sum()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// The process-wide instance + bundled descriptors
// ---------------------------------------------------------------------------

/// Descriptors of the bundled SM set, at their current versions.
pub fn builtin_descriptors() -> Vec<SmDescriptor> {
    vec![
        SmDescriptor::new(
            rf::HW,
            oid::HW,
            SmVersion::V1,
            RanFuncDef::simple("HW", "hello-world ping SM"),
        )
        .trigger::<ReportTrigger>()
        .indication::<crate::hw::HwPing>()
        .ctrl::<crate::hw::HwPing>(),
        SmDescriptor::new(
            rf::MAC_STATS,
            oid::MAC_STATS,
            SmVersion::V1,
            RanFuncDef::simple("MAC_STATS", "MAC layer statistics"),
        )
        .trigger::<ReportTrigger>()
        .indication::<crate::mac::MacStatsInd>()
        .delta::<crate::mac::MacStatsInd>(),
        SmDescriptor::new(
            rf::RLC_STATS,
            oid::RLC_STATS,
            SmVersion::V1,
            RanFuncDef::simple("RLC_STATS", "RLC layer statistics"),
        )
        .trigger::<ReportTrigger>()
        .indication::<crate::rlc::RlcStatsInd>()
        .delta::<crate::rlc::RlcStatsInd>(),
        SmDescriptor::new(
            rf::PDCP_STATS,
            oid::PDCP_STATS,
            SmVersion::V1,
            RanFuncDef::simple("PDCP_STATS", "PDCP layer statistics"),
        )
        .trigger::<ReportTrigger>()
        .indication::<crate::pdcp::PdcpStatsInd>()
        .delta::<crate::pdcp::PdcpStatsInd>(),
        SmDescriptor::new(
            rf::SLICE_CTRL,
            oid::SLICE_CTRL,
            SmVersion::V1,
            RanFuncDef::simple("SLICE_CTRL", "RAN slicing control (SC SM)"),
        )
        .trigger::<ReportTrigger>()
        .indication::<crate::slice::SliceStatsInd>()
        .ctrl::<crate::slice::SliceCtrl>(),
        SmDescriptor::new(
            rf::TC_CTRL,
            oid::TC_CTRL,
            SmVersion::V1,
            RanFuncDef::simple("TC_CTRL", "traffic control (TC SM)"),
        )
        .trigger::<ReportTrigger>()
        .indication::<crate::tc::TcStatsInd>()
        .ctrl::<crate::tc::TcCtrl>(),
        SmDescriptor::new(
            rf::RRC_EVENT,
            oid::RRC_EVENT,
            SmVersion::V1,
            RanFuncDef::simple("RRC_EVENT", "RRC UE-event notifications"),
        )
        .trigger::<ReportTrigger>()
        .indication::<crate::rrc::RrcEventInd>()
        .ctrl::<crate::rrc::RrcCtrl>(),
        SmDescriptor::new(
            rf::KPM,
            oid::KPM,
            SmVersion::V1,
            RanFuncDef::simple("KPM", "key performance metrics (cf. E2SM-KPM)"),
        )
        .trigger::<ReportTrigger>()
        .action::<crate::kpm::KpmActionDef>()
        .indication::<crate::kpm::KpmReport>(),
    ]
}

/// Installs the bundled descriptors into a registry, ignoring duplicates
/// (idempotent).
pub fn install_builtins(reg: &SmRegistry) {
    for desc in builtin_descriptors() {
        let _ = reg.register(desc);
    }
}

/// The process-wide registry, pre-loaded with the bundled SM set on first
/// access.  Third-party SMs register here at startup.
pub fn global() -> &'static SmRegistry {
    static GLOBAL: OnceLock<SmRegistry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let reg = SmRegistry::new();
        install_builtins(&reg);
        reg
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(oid: &str, rf_id: u16, maj: u16, min: u16) -> SmDescriptor {
        SmDescriptor::new(
            rf_id,
            oid,
            SmVersion::new(maj, min),
            RanFuncDef::simple(oid, "test descriptor"),
        )
        .trigger::<ReportTrigger>()
        .indication::<crate::mac::MacStatsInd>()
    }

    #[test]
    fn builtins_register_and_resolve() {
        let reg = global();
        for d in builtin_descriptors() {
            let got = reg
                .negotiate(&d.oid, SmVersion::V1)
                .unwrap_or_else(|e| panic!("builtin {} must negotiate: {e}", d.oid));
            assert_eq!(got.ran_function_id, d.ran_function_id);
            assert_eq!(reg.by_ran_function(d.ran_function_id).unwrap().oid, d.oid);
        }
        // Every builtin speaks a trigger and an indication.
        for d in reg.list() {
            if d.oid.starts_with("flexric.sm.") {
                assert!(d.vtable.decode_trigger.is_some(), "{} trigger", d.oid);
                assert!(d.vtable.decode_indication.is_some(), "{} indication", d.oid);
            }
        }
        // Monitoring SMs carry delta hooks; control SMs carry ctrl codecs.
        assert!(reg.latest(oid::MAC_STATS).unwrap().delta_decoder().is_some());
        assert!(reg.latest(oid::SLICE_CTRL).unwrap().vtable.decode_ctrl.is_some());
        assert!(reg.latest(oid::HW).unwrap().delta_decoder().is_none());
    }

    #[test]
    fn same_oid_two_versions_coexist() {
        let reg = SmRegistry::new();
        reg.register(desc("t.sm.a", 300, 1, 0)).unwrap();
        reg.register(desc("t.sm.a", 300, 1, 1)).unwrap();
        reg.register(desc("t.sm.a", 300, 2, 0)).unwrap();
        assert_eq!(reg.versions("t.sm.a").len(), 3);
        // Highest minor within the offered major wins.
        assert_eq!(
            reg.negotiate("t.sm.a", SmVersion::new(1, 0)).unwrap().version,
            SmVersion::new(1, 1)
        );
        assert_eq!(
            reg.negotiate("t.sm.a", SmVersion::new(1, 7)).unwrap().version,
            SmVersion::new(1, 1)
        );
        assert_eq!(
            reg.negotiate("t.sm.a", SmVersion::new(2, 0)).unwrap().version,
            SmVersion::new(2, 0)
        );
        // latest() is the global maximum.
        assert_eq!(reg.latest("t.sm.a").unwrap().version, SmVersion::new(2, 0));
    }

    #[test]
    fn duplicate_version_is_an_error_not_an_overwrite() {
        let reg = SmRegistry::new();
        let first = reg.register(desc("t.sm.dup", 301, 1, 0)).unwrap();
        // Mark the first registration so an overwrite would be visible.
        assert!(first.vtable.decode_indication.is_some());
        let second = SmDescriptor::new(
            301,
            "t.sm.dup",
            SmVersion::new(1, 0),
            RanFuncDef::simple("imposter", "no codecs at all"),
        );
        let err = reg.register(second).unwrap_err();
        assert_eq!(
            err,
            RegisterError::DuplicateVersion { oid: "t.sm.dup".into(), version: SmVersion::V1 }
        );
        // The original descriptor survived untouched.
        let got = reg.latest("t.sm.dup").unwrap();
        assert!(got.vtable.decode_indication.is_some(), "no silent overwrite");
        assert_eq!(got.funcdef.name, first.funcdef.name);
    }

    #[test]
    fn function_id_collision_across_oids_rejected() {
        let reg = SmRegistry::new();
        reg.register(desc("t.sm.x", 310, 1, 0)).unwrap();
        let err = reg.register(desc("t.sm.y", 310, 1, 0)).unwrap_err();
        assert_eq!(
            err,
            RegisterError::FunctionIdTaken { ran_function_id: 310, taken_by: "t.sm.x".into() }
        );
    }

    #[test]
    fn negotiation_failures_are_explicit() {
        let reg = SmRegistry::new();
        reg.register(desc("t.sm.v", 320, 2, 1)).unwrap();
        match reg.negotiate("t.sm.nope", SmVersion::V1) {
            Err(NegotiationError::UnknownOid { oid }) => assert_eq!(oid, "t.sm.nope"),
            other => panic!("expected UnknownOid, got {other:?}"),
        }
        match reg.negotiate("t.sm.v", SmVersion::new(3, 0)) {
            Err(NegotiationError::MajorMismatch { offered, supported, .. }) => {
                assert_eq!(offered, SmVersion::new(3, 0));
                assert_eq!(supported, vec![SmVersion::new(2, 1)]);
            }
            other => panic!("expected MajorMismatch, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_registration_never_loses_or_overwrites() {
        let reg = Arc::new(SmRegistry::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    let mut wins = 0;
                    for i in 0..32u16 {
                        // All threads race on the same (oid, version) set;
                        // exactly one registration per version may win.
                        match reg.register(desc("t.sm.race", 330, 1, i)) {
                            Ok(_) => wins += 1,
                            Err(RegisterError::DuplicateVersion { .. }) => {}
                            Err(e) => panic!("thread {t}: unexpected {e}"),
                        }
                    }
                    wins
                })
            })
            .collect();
        let total: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, 32, "each version registered exactly once");
        assert_eq!(reg.versions("t.sm.race").len(), 32);
        assert_eq!(
            reg.negotiate("t.sm.race", SmVersion::V1).unwrap().version,
            SmVersion::new(1, 31)
        );
    }

    #[test]
    fn vtable_decodes_and_downcasts() {
        use crate::mac::MacStatsInd;
        let reg = global();
        let d = reg.latest(oid::MAC_STATS).unwrap();
        let snap = MacStatsInd { tstamp_ms: 5, cell_prbs: 106, ues: vec![] };
        for codec in SmCodec::ALL {
            let buf = snap.encode(codec);
            let any = d.decode_indication(codec, &buf).unwrap();
            let back = any.downcast_ref::<MacStatsInd>().expect("concrete type");
            assert_eq!(back, &snap);
            // Encode side round-trips through the erased fn too.
            let enc = (d.vtable.encode_indication.unwrap())(&snap, codec).unwrap();
            assert_eq!(enc, buf);
        }
        let trig = ReportTrigger::every_ms(10);
        let any = d.decode_trigger(SmCodec::Flatb, &trig.encode(SmCodec::Flatb)).unwrap();
        assert_eq!(any.downcast_ref::<ReportTrigger>(), Some(&trig));
    }

    #[test]
    fn erased_delta_stream_reconstructs() {
        use crate::delta::DeltaStreams;
        use crate::mac::{MacStatsInd, MacUeStats};
        use crate::ReportMode;
        let reg = global();
        let d = reg.latest(oid::MAC_STATS).unwrap();
        let mut dec = d.delta_decoder().expect("mac speaks deltas");
        let mut streams: DeltaStreams<u8, MacStatsInd> = DeltaStreams::new();
        let codec = SmCodec::Flatb;
        let mode = ReportMode::Delta { keyframe_every: 4 };
        let mut snap = MacStatsInd {
            tstamp_ms: 0,
            cell_prbs: 106,
            ues: vec![MacUeStats { rnti: 7, ..Default::default() }],
        };
        for step in 0..6u64 {
            snap.tstamp_ms = step * 10;
            snap.ues[0].dl_aggr_bytes += 1000;
            let crate::delta::ReportOut::Send(frame) = streams.report(0, mode, &snap, codec) else {
                continue;
            };
            match dec.apply(&frame, codec).unwrap() {
                AnyDeltaEvent::Snapshot { snap: got, .. } => {
                    let got = got.downcast_ref::<MacStatsInd>().unwrap();
                    assert_eq!(got, &snap, "erased reconstruction is byte-faithful");
                }
                AnyDeltaEvent::NeedKeyframe => panic!("in-order stream never resyncs"),
            }
        }
    }

    #[test]
    fn labels_and_display() {
        let d = desc("t.sm.label", 340, 2, 3);
        assert_eq!(d.label(), "t.sm.label@2.3");
        assert_eq!(SmVersion::new(2, 3).to_string(), "2.3");
        assert!(SmVersion::new(2, 3).compatible(SmVersion::new(2, 9)));
        assert!(!SmVersion::new(2, 3).compatible(SmVersion::new(3, 3)));
        assert_eq!(SmVersion::from_pair((4, 5)).as_pair(), (4, 5));
    }
}
