#![warn(missing_docs)]

//! # odx-proto — the deployable ODR web service
//!
//! §6.1 presents ODR "as a public web service … deployed on any dedicated
//! servers or virtual machines" (the authors ran it on a $20/month VM).
//! This crate is that deployment surface, built from scratch on `std::net`:
//!
//! * [`json`] — a minimal JSON value model, serializer and recursive-descent
//!   parser (no external codec crates).
//! * [`http`] — an HTTP/1.1 subset: request/response parsing and writing
//!   with `Content-Length` bodies and persistent connections.
//! * [`server`] — a blocking TCP server whose worker threads each accept
//!   directly from the shared listener and serve kept-alive connections,
//!   with graceful shutdown.
//! * [`client`] — a tiny blocking HTTP client for tests and examples.
//! * [`cookie`] — §6.1's auxiliary-information cookie, so users don't
//!   re-enter their ISP/bandwidth/AP details on every request.
//! * [`api`] — the wire schema of the ODR endpoints.
//! * [`service`] — ties the `odx-odr` decision engine and a content
//!   database into the server: `POST /decide`, `GET /popularity/:id`,
//!   `GET /healthz`.
//!
//! A request/response decision service at this scale needs no async runtime:
//! a small thread pool handles it comfortably while keeping the whole stack
//! synchronous and deterministic under test.

pub mod api;
pub mod client;
pub mod cookie;
pub mod http;
pub use odx_config::json;
pub mod server;
pub mod service;

pub use json::Json;
pub use server::Server;
pub use service::OdrService;
