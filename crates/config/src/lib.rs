//! # odx-config — scenarios as data
//!
//! The layered, validated scenario model for the offline-downloading
//! study, plus the zero-dependency canonical JSON codec it serializes
//! through. This crate is deliberately **std-only and dependency-free**:
//! it sits below every other crate in the workspace (`odx-proto`
//! re-exports [`json`]; `odx-backend` resolves [`ScenarioSpec`] into its
//! runnable `Scenario`).
//!
//! Layering order (outermost wins, axes expand last):
//!
//! 1. paper baseline — [`ScenarioSpec::baseline`]
//! 2. named preset delta — the built-ins registered by `odx-backend`
//! 3. user scenario file — [`ScenarioSpec::apply_delta`]
//! 4. CLI `--set dotted.path=value` — [`ScenarioSpec::set_path`]
//! 5. sweep-axis expansion — [`ScenarioSpec::expand_axes`]
//!
//! Every failure is a [`ConfigError`] naming the dotted field path and
//! the violated bound, with a nearest-alternative suggestion for unknown
//! names. [`ScenarioSpec::to_canonical_json`] is byte-stable:
//! `dump → parse → dump` is the identity on bytes.

#![warn(missing_docs)]

pub mod error;
pub mod json;
pub mod spec;

pub use error::{suggest, ConfigError};
pub use json::Json;
pub use spec::{axis_paths, ApSpec, BackendSpec, CacheSpec, ScenarioSpec, KNOWN_PATHS};
