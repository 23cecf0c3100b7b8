//! Northbound plumbing for FlexRIC controllers.
//!
//! The paper's controller specializations expose their services to xApps
//! through "a custom protocol, such as a simple REST interface (e.g.,
//! FlexRAN), the RMR library (e.g., O-RAN RIC), a message broker (e.g.
//! Redis), or E2AP itself" (§4.2.1).  This crate provides the first and
//! the third from scratch:
//!
//! * [`http`] — a minimal HTTP/1.1 server and client (GET/POST with JSON
//!   bodies) on `std` threads and sockets, the REST northbound of the
//!   slicing and TC controllers;
//! * [`broker`] — a Redis-style pub/sub broker (SUBSCRIBE/PUBLISH in
//!   `flexric-transport` frames, over TCP or `mem:`), a machine on the
//!   SDK's driver, the stats-push channel of the TC controller;
//! * [`mod@json`] — the JSON value, parser and writer both of them (and the
//!   experiment snapshots) go through;
//! * [`metrics`] — a Prometheus-text `/metrics` route for the HTTP
//!   server, exporting the process-wide obs registry;
//! * [`introspect`] — a `GET /sm/registry` route listing every service
//!   model registered in the process (OID, version, codec support), so
//!   xApps discover capabilities without E2AP access.
//!
//! The recursive controller's northbound is the agent library itself and
//! lives in `flexric-ctrl`.

pub mod broker;
pub mod http;
pub mod introspect;
pub mod json;
pub mod metrics;
