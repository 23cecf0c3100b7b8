//! E2AP procedure messages and the top-level [`E2apPdu`] choice.

use bytes::Bytes;

use crate::cause::Cause;
use crate::ids::{
    GlobalE2NodeId, GlobalRicId, InterfaceType, RanFunctionId, RicActionId, RicRequestId,
};

/// Service-model version advertised alongside a RAN function: the
/// `major.minor` the E2 node implements.  Negotiation is semver-style —
/// the RIC serves the function iff it has a registered descriptor with
/// the same major (highest minor wins); see `flexric-sm`'s registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnVersion {
    /// Incompatible-change counter; must match exactly.
    pub major: u16,
    /// Backward-compatible revision.
    pub minor: u16,
}

impl FnVersion {
    /// Version 1.0, what pre-versioning peers are assumed to speak (the
    /// wire encodes it as an absent field, so old captures still decode).
    pub const V1: FnVersion = FnVersion { major: 1, minor: 0 };

    /// A version literal.
    pub const fn new(major: u16, minor: u16) -> Self {
        FnVersion { major, minor }
    }
}

impl Default for FnVersion {
    fn default() -> Self {
        FnVersion::V1
    }
}

/// A RAN function as advertised during E2 setup / RIC service update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RanFunctionItem {
    /// The function id, unique within the E2 node.
    pub id: RanFunctionId,
    /// Service-model-encoded RAN function definition (opaque at E2AP level).
    pub definition: Bytes,
    /// Revision of the function definition.
    pub revision: u16,
    /// Service model object identifier, e.g. `"flexric.sm.mac_stats"`.
    pub oid: String,
    /// Service-model version (`major.minor`) behind the OID.
    pub version: FnVersion,
}

impl RanFunctionItem {
    /// A function at revision 1 of its definition and version 1.0 of its
    /// service model.
    pub fn new(id: u16, oid: &str, definition: Bytes) -> Self {
        RanFunctionItem {
            id: RanFunctionId::new(id),
            definition,
            revision: 1,
            oid: oid.to_owned(),
            version: FnVersion::V1,
        }
    }
}

/// Configuration of one E2 node component (interface termination).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2NodeComponentConfig {
    /// The interface this component terminates.
    pub interface: InterfaceType,
    /// Component id (e.g. an interface endpoint name).
    pub component_id: String,
    /// Interface setup request snapshot (opaque).
    pub request_part: Bytes,
    /// Interface setup response snapshot (opaque).
    pub response_part: Bytes,
}

/// Transport network layer information for E2 connection updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TnlInfo {
    /// Endpoint address, e.g. `"127.0.0.1"` or a mem-transport name.
    pub address: String,
    /// Endpoint port.
    pub port: u16,
    /// What the association is used for.
    pub usage: TnlUsage,
}

/// Purpose of a TNL association.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TnlUsage {
    /// RIC service traffic only.
    RicService = 0,
    /// Support functions only.
    SupportFunction = 1,
    /// Both.
    Both = 2,
}

impl TnlUsage {
    /// Decodes a discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(TnlUsage::RicService),
            1 => Some(TnlUsage::SupportFunction),
            2 => Some(TnlUsage::Both),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Global procedures
// ---------------------------------------------------------------------------

/// E2 Setup Request: first message from an agent, advertising its identity
/// and RAN functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2SetupRequest {
    /// Transaction id (matches response to request).
    pub transaction_id: u8,
    /// Identity of the connecting E2 node.
    pub global_node: GlobalE2NodeId,
    /// RAN functions offered by this node.
    pub ran_functions: Vec<RanFunctionItem>,
    /// Component configurations (interface terminations).
    pub component_configs: Vec<E2NodeComponentConfig>,
}

/// E2 Setup Response: the RIC accepts (a subset of) the RAN functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2SetupResponse {
    /// Transaction id echoed from the request.
    pub transaction_id: u8,
    /// Identity of the RIC.
    pub global_ric: GlobalRicId,
    /// Accepted RAN function ids.
    pub accepted: Vec<RanFunctionId>,
    /// Rejected RAN functions with causes.
    pub rejected: Vec<(RanFunctionId, Cause)>,
}

/// E2 Setup Failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2SetupFailure {
    /// Transaction id echoed from the request.
    pub transaction_id: u8,
    /// Why setup failed.
    pub cause: Cause,
    /// Suggested retry delay in milliseconds.
    pub time_to_wait_ms: Option<u32>,
}

/// Reset Request: either side asks to drop all procedure state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetRequest {
    /// Transaction id.
    pub transaction_id: u8,
    /// Why the reset is requested.
    pub cause: Cause,
}

/// Reset Response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetResponse {
    /// Transaction id echoed from the request.
    pub transaction_id: u8,
}

/// Error Indication: reports a protocol error outside a procedure.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ErrorIndication {
    /// Offending request, if attributable.
    pub req_id: Option<RicRequestId>,
    /// Offending RAN function, if attributable.
    pub ran_function: Option<RanFunctionId>,
    /// Error cause, if known.
    pub cause: Option<Cause>,
}

/// E2 Node Configuration Update (agent → RIC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2NodeConfigUpdate {
    /// Transaction id.
    pub transaction_id: u8,
    /// Added component configurations.
    pub additions: Vec<E2NodeComponentConfig>,
    /// Updated component configurations.
    pub updates: Vec<E2NodeComponentConfig>,
    /// Removed components, by `(interface, component id)`.
    pub removals: Vec<(InterfaceType, String)>,
}

/// Acknowledgement of an E2 node configuration update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2NodeConfigUpdateAck {
    /// Transaction id echoed from the request.
    pub transaction_id: u8,
    /// Accepted components.
    pub accepted: Vec<(InterfaceType, String)>,
    /// Rejected components with causes.
    pub rejected: Vec<(InterfaceType, String, Cause)>,
}

/// Failure of an E2 node configuration update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2NodeConfigUpdateFailure {
    /// Transaction id echoed from the request.
    pub transaction_id: u8,
    /// Why the update failed.
    pub cause: Cause,
    /// Suggested retry delay in milliseconds.
    pub time_to_wait_ms: Option<u32>,
}

/// E2 Connection Update (RIC → agent): manage additional TNL associations,
/// the hook the multi-controller support of §4.1.2 builds on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2ConnectionUpdate {
    /// Transaction id.
    pub transaction_id: u8,
    /// Associations to add.
    pub add: Vec<TnlInfo>,
    /// Associations to remove.
    pub remove: Vec<TnlInfo>,
    /// Associations to modify.
    pub modify: Vec<TnlInfo>,
}

/// Acknowledgement of an E2 connection update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2ConnectionUpdateAck {
    /// Transaction id echoed from the request.
    pub transaction_id: u8,
    /// Associations successfully set up.
    pub setup: Vec<TnlInfo>,
    /// Associations that failed, with causes.
    pub failed: Vec<(TnlInfo, Cause)>,
}

/// Failure of an E2 connection update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2ConnectionUpdateFailure {
    /// Transaction id echoed from the request.
    pub transaction_id: u8,
    /// Why the update failed.
    pub cause: Cause,
    /// Suggested retry delay in milliseconds.
    pub time_to_wait_ms: Option<u32>,
}

/// RIC Service Update (agent → RIC): RAN functions changed at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicServiceUpdate {
    /// Transaction id.
    pub transaction_id: u8,
    /// Newly added functions.
    pub added: Vec<RanFunctionItem>,
    /// Modified functions.
    pub modified: Vec<RanFunctionItem>,
    /// Removed function ids.
    pub removed: Vec<RanFunctionId>,
}

/// Acknowledgement of a RIC service update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicServiceUpdateAck {
    /// Transaction id echoed from the request.
    pub transaction_id: u8,
    /// Accepted function ids.
    pub accepted: Vec<RanFunctionId>,
    /// Rejected functions with causes.
    pub rejected: Vec<(RanFunctionId, Cause)>,
}

/// Failure of a RIC service update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicServiceUpdateFailure {
    /// Transaction id echoed from the request.
    pub transaction_id: u8,
    /// Why the update failed.
    pub cause: Cause,
    /// Suggested retry delay in milliseconds.
    pub time_to_wait_ms: Option<u32>,
}

/// RIC Service Query (RIC → agent): asks which functions the RIC believes
/// are registered so the agent can reconcile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicServiceQuery {
    /// Transaction id.
    pub transaction_id: u8,
    /// Function ids the RIC currently has accepted.
    pub accepted: Vec<RanFunctionId>,
}

// ---------------------------------------------------------------------------
// Functional procedures
// ---------------------------------------------------------------------------

/// Action type inside a subscription (report / insert / policy, Appendix A.3
/// of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RicActionType {
    /// E2 node sends information to the RIC on trigger.
    Report = 0,
    /// E2 node suspends a procedure and asks the RIC.
    Insert = 1,
    /// E2 node applies a pre-installed rule on trigger.
    Policy = 2,
}

impl RicActionType {
    /// Decodes a discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(RicActionType::Report),
            1 => Some(RicActionType::Insert),
            2 => Some(RicActionType::Policy),
            _ => None,
        }
    }
}

/// What the RAN function should do after serving an insert action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SubsequentActionType {
    /// Continue the suspended procedure.
    Continue = 0,
    /// Wait for a RIC control message.
    Wait = 1,
}

impl SubsequentActionType {
    /// Decodes a discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(SubsequentActionType::Continue),
            1 => Some(SubsequentActionType::Wait),
            _ => None,
        }
    }
}

/// Subsequent action attached to an action-to-be-setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RicSubsequentAction {
    /// Continue or wait.
    pub kind: SubsequentActionType,
    /// Wait timeout in milliseconds (0 = zero wait).
    pub wait_ms: u32,
}

/// One action requested within a subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicActionToBeSetup {
    /// Action id, unique within the subscription.
    pub id: RicActionId,
    /// Report / insert / policy.
    pub action_type: RicActionType,
    /// SM-encoded action definition (opaque).
    pub definition: Option<Bytes>,
    /// Optional subsequent action.
    pub subsequent: Option<RicSubsequentAction>,
}

/// RIC Subscription Request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicSubscriptionRequest {
    /// Request id chosen by the subscriber.
    pub req_id: RicRequestId,
    /// Target RAN function.
    pub ran_function: RanFunctionId,
    /// SM-encoded event trigger definition (opaque).
    pub event_trigger: Bytes,
    /// Actions requested.
    pub actions: Vec<RicActionToBeSetup>,
}

/// RIC Subscription Response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicSubscriptionResponse {
    /// Request id echoed.
    pub req_id: RicRequestId,
    /// RAN function echoed.
    pub ran_function: RanFunctionId,
    /// Admitted action ids.
    pub admitted: Vec<RicActionId>,
    /// Not-admitted action ids with causes.
    pub not_admitted: Vec<(RicActionId, Cause)>,
}

/// RIC Subscription Failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicSubscriptionFailure {
    /// Request id echoed.
    pub req_id: RicRequestId,
    /// RAN function echoed.
    pub ran_function: RanFunctionId,
    /// Why the subscription failed.
    pub cause: Cause,
}

/// RIC Subscription Delete Request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RicSubscriptionDeleteRequest {
    /// Request id of the subscription to delete.
    pub req_id: RicRequestId,
    /// RAN function of the subscription.
    pub ran_function: RanFunctionId,
}

/// RIC Subscription Delete Response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RicSubscriptionDeleteResponse {
    /// Request id echoed.
    pub req_id: RicRequestId,
    /// RAN function echoed.
    pub ran_function: RanFunctionId,
}

/// RIC Subscription Delete Failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RicSubscriptionDeleteFailure {
    /// Request id echoed.
    pub req_id: RicRequestId,
    /// RAN function echoed.
    pub ran_function: RanFunctionId,
    /// Why the delete failed.
    pub cause: Cause,
}

/// Kind of indication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RicIndicationType {
    /// Report indication.
    Report = 0,
    /// Insert indication.
    Insert = 1,
}

impl RicIndicationType {
    /// Decodes a discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(RicIndicationType::Report),
            1 => Some(RicIndicationType::Insert),
            _ => None,
        }
    }
}

/// RIC Indication: SM data from a RAN function to the subscriber.  This is
/// the hot-path message of every monitoring workload in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicIndication {
    /// Subscription this indication belongs to.
    pub req_id: RicRequestId,
    /// Originating RAN function.
    pub ran_function: RanFunctionId,
    /// Action that fired.
    pub action: RicActionId,
    /// Optional sequence number.
    pub sn: Option<u32>,
    /// Report or insert.
    pub ind_type: RicIndicationType,
    /// SM-encoded indication header (opaque).
    pub header: Bytes,
    /// SM-encoded indication message (opaque).
    pub message: Bytes,
    /// Optional call process id (insert flows).
    pub call_process_id: Option<Bytes>,
}

/// Whether the sender of a control request wants an acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ControlAckRequest {
    /// Never acknowledge.
    NoAck = 0,
    /// Acknowledge on success.
    Ack = 1,
    /// Negative acknowledge on failure only.
    NAck = 2,
}

impl ControlAckRequest {
    /// Decodes a discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(ControlAckRequest::NoAck),
            1 => Some(ControlAckRequest::Ack),
            2 => Some(ControlAckRequest::NAck),
            _ => None,
        }
    }
}

/// RIC Control Request: executes an operation inside a RAN function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicControlRequest {
    /// Request id chosen by the controller application.
    pub req_id: RicRequestId,
    /// Target RAN function.
    pub ran_function: RanFunctionId,
    /// Optional call process id (answers an insert).
    pub call_process_id: Option<Bytes>,
    /// SM-encoded control header (opaque).
    pub header: Bytes,
    /// SM-encoded control message (opaque).
    pub message: Bytes,
    /// Acknowledgement policy.
    pub ack_request: Option<ControlAckRequest>,
}

/// RIC Control Acknowledge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicControlAcknowledge {
    /// Request id echoed.
    pub req_id: RicRequestId,
    /// RAN function echoed.
    pub ran_function: RanFunctionId,
    /// Optional call process id.
    pub call_process_id: Option<Bytes>,
    /// SM-encoded control outcome (opaque).
    pub outcome: Option<Bytes>,
}

/// RIC Control Failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RicControlFailure {
    /// Request id echoed.
    pub req_id: RicRequestId,
    /// RAN function echoed.
    pub ran_function: RanFunctionId,
    /// Optional call process id.
    pub call_process_id: Option<Bytes>,
    /// Why the control failed.
    pub cause: Cause,
    /// SM-encoded control outcome (opaque).
    pub outcome: Option<Bytes>,
}

// ---------------------------------------------------------------------------
// Top-level PDU
// ---------------------------------------------------------------------------

/// Message type discriminant, stable across codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum MsgType {
    E2SetupRequest = 0,
    E2SetupResponse = 1,
    E2SetupFailure = 2,
    ResetRequest = 3,
    ResetResponse = 4,
    ErrorIndication = 5,
    E2NodeConfigUpdate = 6,
    E2NodeConfigUpdateAck = 7,
    E2NodeConfigUpdateFailure = 8,
    E2ConnectionUpdate = 9,
    E2ConnectionUpdateAck = 10,
    E2ConnectionUpdateFailure = 11,
    RicServiceUpdate = 12,
    RicServiceUpdateAck = 13,
    RicServiceUpdateFailure = 14,
    RicServiceQuery = 15,
    RicSubscriptionRequest = 16,
    RicSubscriptionResponse = 17,
    RicSubscriptionFailure = 18,
    RicSubscriptionDeleteRequest = 19,
    RicSubscriptionDeleteResponse = 20,
    RicSubscriptionDeleteFailure = 21,
    RicIndication = 22,
    RicControlRequest = 23,
    RicControlAcknowledge = 24,
    RicControlFailure = 25,
}

impl MsgType {
    /// All message types in discriminant order.
    pub const ALL: [MsgType; 26] = [
        MsgType::E2SetupRequest,
        MsgType::E2SetupResponse,
        MsgType::E2SetupFailure,
        MsgType::ResetRequest,
        MsgType::ResetResponse,
        MsgType::ErrorIndication,
        MsgType::E2NodeConfigUpdate,
        MsgType::E2NodeConfigUpdateAck,
        MsgType::E2NodeConfigUpdateFailure,
        MsgType::E2ConnectionUpdate,
        MsgType::E2ConnectionUpdateAck,
        MsgType::E2ConnectionUpdateFailure,
        MsgType::RicServiceUpdate,
        MsgType::RicServiceUpdateAck,
        MsgType::RicServiceUpdateFailure,
        MsgType::RicServiceQuery,
        MsgType::RicSubscriptionRequest,
        MsgType::RicSubscriptionResponse,
        MsgType::RicSubscriptionFailure,
        MsgType::RicSubscriptionDeleteRequest,
        MsgType::RicSubscriptionDeleteResponse,
        MsgType::RicSubscriptionDeleteFailure,
        MsgType::RicIndication,
        MsgType::RicControlRequest,
        MsgType::RicControlAcknowledge,
        MsgType::RicControlFailure,
    ];

    /// Decodes a discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.get(v as usize).copied()
    }

    /// Whether this message belongs to the functional procedure class
    /// (addressed to a RAN function rather than the E2 connection itself).
    pub fn is_functional(self) -> bool {
        self as u8 >= MsgType::RicSubscriptionRequest as u8
    }
}

/// The top-level E2AP PDU: a choice over all procedure messages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum E2apPdu {
    E2SetupRequest(E2SetupRequest),
    E2SetupResponse(E2SetupResponse),
    E2SetupFailure(E2SetupFailure),
    ResetRequest(ResetRequest),
    ResetResponse(ResetResponse),
    ErrorIndication(ErrorIndication),
    E2NodeConfigUpdate(E2NodeConfigUpdate),
    E2NodeConfigUpdateAck(E2NodeConfigUpdateAck),
    E2NodeConfigUpdateFailure(E2NodeConfigUpdateFailure),
    E2ConnectionUpdate(E2ConnectionUpdate),
    E2ConnectionUpdateAck(E2ConnectionUpdateAck),
    E2ConnectionUpdateFailure(E2ConnectionUpdateFailure),
    RicServiceUpdate(RicServiceUpdate),
    RicServiceUpdateAck(RicServiceUpdateAck),
    RicServiceUpdateFailure(RicServiceUpdateFailure),
    RicServiceQuery(RicServiceQuery),
    RicSubscriptionRequest(RicSubscriptionRequest),
    RicSubscriptionResponse(RicSubscriptionResponse),
    RicSubscriptionFailure(RicSubscriptionFailure),
    RicSubscriptionDeleteRequest(RicSubscriptionDeleteRequest),
    RicSubscriptionDeleteResponse(RicSubscriptionDeleteResponse),
    RicSubscriptionDeleteFailure(RicSubscriptionDeleteFailure),
    RicIndication(RicIndication),
    RicControlRequest(RicControlRequest),
    RicControlAcknowledge(RicControlAcknowledge),
    RicControlFailure(RicControlFailure),
}

impl E2apPdu {
    /// The message type of this PDU.
    pub fn msg_type(&self) -> MsgType {
        match self {
            E2apPdu::E2SetupRequest(_) => MsgType::E2SetupRequest,
            E2apPdu::E2SetupResponse(_) => MsgType::E2SetupResponse,
            E2apPdu::E2SetupFailure(_) => MsgType::E2SetupFailure,
            E2apPdu::ResetRequest(_) => MsgType::ResetRequest,
            E2apPdu::ResetResponse(_) => MsgType::ResetResponse,
            E2apPdu::ErrorIndication(_) => MsgType::ErrorIndication,
            E2apPdu::E2NodeConfigUpdate(_) => MsgType::E2NodeConfigUpdate,
            E2apPdu::E2NodeConfigUpdateAck(_) => MsgType::E2NodeConfigUpdateAck,
            E2apPdu::E2NodeConfigUpdateFailure(_) => MsgType::E2NodeConfigUpdateFailure,
            E2apPdu::E2ConnectionUpdate(_) => MsgType::E2ConnectionUpdate,
            E2apPdu::E2ConnectionUpdateAck(_) => MsgType::E2ConnectionUpdateAck,
            E2apPdu::E2ConnectionUpdateFailure(_) => MsgType::E2ConnectionUpdateFailure,
            E2apPdu::RicServiceUpdate(_) => MsgType::RicServiceUpdate,
            E2apPdu::RicServiceUpdateAck(_) => MsgType::RicServiceUpdateAck,
            E2apPdu::RicServiceUpdateFailure(_) => MsgType::RicServiceUpdateFailure,
            E2apPdu::RicServiceQuery(_) => MsgType::RicServiceQuery,
            E2apPdu::RicSubscriptionRequest(_) => MsgType::RicSubscriptionRequest,
            E2apPdu::RicSubscriptionResponse(_) => MsgType::RicSubscriptionResponse,
            E2apPdu::RicSubscriptionFailure(_) => MsgType::RicSubscriptionFailure,
            E2apPdu::RicSubscriptionDeleteRequest(_) => MsgType::RicSubscriptionDeleteRequest,
            E2apPdu::RicSubscriptionDeleteResponse(_) => MsgType::RicSubscriptionDeleteResponse,
            E2apPdu::RicSubscriptionDeleteFailure(_) => MsgType::RicSubscriptionDeleteFailure,
            E2apPdu::RicIndication(_) => MsgType::RicIndication,
            E2apPdu::RicControlRequest(_) => MsgType::RicControlRequest,
            E2apPdu::RicControlAcknowledge(_) => MsgType::RicControlAcknowledge,
            E2apPdu::RicControlFailure(_) => MsgType::RicControlFailure,
        }
    }

    /// The RIC request id, for functional procedures.
    pub fn ric_request_id(&self) -> Option<RicRequestId> {
        match self {
            E2apPdu::RicSubscriptionRequest(m) => Some(m.req_id),
            E2apPdu::RicSubscriptionResponse(m) => Some(m.req_id),
            E2apPdu::RicSubscriptionFailure(m) => Some(m.req_id),
            E2apPdu::RicSubscriptionDeleteRequest(m) => Some(m.req_id),
            E2apPdu::RicSubscriptionDeleteResponse(m) => Some(m.req_id),
            E2apPdu::RicSubscriptionDeleteFailure(m) => Some(m.req_id),
            E2apPdu::RicIndication(m) => Some(m.req_id),
            E2apPdu::RicControlRequest(m) => Some(m.req_id),
            E2apPdu::RicControlAcknowledge(m) => Some(m.req_id),
            E2apPdu::RicControlFailure(m) => Some(m.req_id),
            E2apPdu::ErrorIndication(m) => m.req_id,
            _ => None,
        }
    }

    /// The RAN function id, for functional procedures.
    pub fn ran_function_id(&self) -> Option<RanFunctionId> {
        match self {
            E2apPdu::RicSubscriptionRequest(m) => Some(m.ran_function),
            E2apPdu::RicSubscriptionResponse(m) => Some(m.ran_function),
            E2apPdu::RicSubscriptionFailure(m) => Some(m.ran_function),
            E2apPdu::RicSubscriptionDeleteRequest(m) => Some(m.ran_function),
            E2apPdu::RicSubscriptionDeleteResponse(m) => Some(m.ran_function),
            E2apPdu::RicSubscriptionDeleteFailure(m) => Some(m.ran_function),
            E2apPdu::RicIndication(m) => Some(m.ran_function),
            E2apPdu::RicControlRequest(m) => Some(m.ran_function),
            E2apPdu::RicControlAcknowledge(m) => Some(m.ran_function),
            E2apPdu::RicControlFailure(m) => Some(m.ran_function),
            E2apPdu::ErrorIndication(m) => m.ran_function,
            _ => None,
        }
    }

    /// The routing header of this PDU, as a [`PduHeader`].
    pub fn header(&self) -> PduHeader {
        PduHeader {
            msg_type: self.msg_type(),
            req_id: self.ric_request_id(),
            ran_function: self.ran_function_id(),
        }
    }
}

/// The routing header of an E2AP PDU: everything the server's subscription
/// management needs to dispatch a message.
///
/// FlatBuffers-style encodings can extract this *without decoding the PDU*
/// (`peek`), which is the mechanism behind the ~4× controller CPU difference
/// the paper reports in Fig. 8b.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PduHeader {
    /// Message type.
    pub msg_type: MsgType,
    /// RIC request id, for functional procedures.
    pub req_id: Option<RicRequestId>,
    /// RAN function id, for functional procedures.
    pub ran_function: Option<RanFunctionId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::MiscCause;
    use crate::ids::Plmn;

    fn sample_indication() -> RicIndication {
        RicIndication {
            req_id: RicRequestId::new(7, 3),
            ran_function: RanFunctionId::new(42),
            action: RicActionId(1),
            sn: Some(99),
            ind_type: RicIndicationType::Report,
            header: Bytes::from_static(b"hdr"),
            message: Bytes::from_static(b"msg"),
            call_process_id: None,
        }
    }

    #[test]
    fn msg_type_roundtrip() {
        for t in MsgType::ALL {
            assert_eq!(MsgType::from_u8(t as u8), Some(t));
        }
        assert_eq!(MsgType::from_u8(26), None);
    }

    #[test]
    fn functional_classification() {
        assert!(!MsgType::E2SetupRequest.is_functional());
        assert!(!MsgType::RicServiceQuery.is_functional());
        assert!(MsgType::RicSubscriptionRequest.is_functional());
        assert!(MsgType::RicIndication.is_functional());
        assert!(MsgType::RicControlFailure.is_functional());
    }

    #[test]
    fn header_extraction_for_functional_pdu() {
        let pdu = E2apPdu::RicIndication(sample_indication());
        let h = pdu.header();
        assert_eq!(h.msg_type, MsgType::RicIndication);
        assert_eq!(h.req_id, Some(RicRequestId::new(7, 3)));
        assert_eq!(h.ran_function, Some(RanFunctionId::new(42)));
    }

    #[test]
    fn header_extraction_for_global_pdu() {
        let pdu = E2apPdu::ResetRequest(ResetRequest {
            transaction_id: 1,
            cause: Cause::Misc(MiscCause::OmIntervention),
        });
        let h = pdu.header();
        assert_eq!(h.msg_type, MsgType::ResetRequest);
        assert_eq!(h.req_id, None);
        assert_eq!(h.ran_function, None);
    }

    #[test]
    fn error_indication_optional_routing() {
        let pdu = E2apPdu::ErrorIndication(ErrorIndication {
            req_id: Some(RicRequestId::new(1, 2)),
            ran_function: None,
            cause: None,
        });
        assert_eq!(pdu.ric_request_id(), Some(RicRequestId::new(1, 2)));
        assert_eq!(pdu.ran_function_id(), None);
    }

    #[test]
    fn setup_request_holds_functions() {
        let req = E2SetupRequest {
            transaction_id: 0,
            global_node: GlobalE2NodeId::new(Plmn::TEST, crate::ids::E2NodeType::Gnb, 1),
            ran_functions: vec![RanFunctionItem {
                id: RanFunctionId::new(2),
                definition: Bytes::from_static(b"def"),
                revision: 1,
                oid: "flexric.sm.mac_stats".into(),
                version: FnVersion::new(1, 2),
            }],
            component_configs: vec![],
        };
        let pdu = E2apPdu::E2SetupRequest(req.clone());
        assert_eq!(pdu.msg_type(), MsgType::E2SetupRequest);
        match pdu {
            E2apPdu::E2SetupRequest(r) => assert_eq!(r, req),
            _ => unreachable!(),
        }
    }

    #[test]
    fn tnl_usage_roundtrip() {
        for v in [TnlUsage::RicService, TnlUsage::SupportFunction, TnlUsage::Both] {
            assert_eq!(TnlUsage::from_u8(v as u8), Some(v));
        }
        assert_eq!(TnlUsage::from_u8(3), None);
    }

    #[test]
    fn enum_discriminant_decoders() {
        for v in [RicActionType::Report, RicActionType::Insert, RicActionType::Policy] {
            assert_eq!(RicActionType::from_u8(v as u8), Some(v));
        }
        assert_eq!(RicActionType::from_u8(3), None);
        for v in [SubsequentActionType::Continue, SubsequentActionType::Wait] {
            assert_eq!(SubsequentActionType::from_u8(v as u8), Some(v));
        }
        assert_eq!(SubsequentActionType::from_u8(2), None);
        for v in [RicIndicationType::Report, RicIndicationType::Insert] {
            assert_eq!(RicIndicationType::from_u8(v as u8), Some(v));
        }
        assert_eq!(RicIndicationType::from_u8(2), None);
        for v in [ControlAckRequest::NoAck, ControlAckRequest::Ack, ControlAckRequest::NAck] {
            assert_eq!(ControlAckRequest::from_u8(v as u8), Some(v));
        }
        assert_eq!(ControlAckRequest::from_u8(3), None);
    }
}
