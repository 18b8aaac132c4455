//! # borges-types
//!
//! Shared vocabulary types for the Borges AS-to-Organization mapping
//! framework (Selmo et al., IMC '25).
//!
//! Every crate in the workspace speaks in terms of the identifiers defined
//! here:
//!
//! * [`Asn`] — an Autonomous System Number, the unit being mapped.
//! * [`WhoisOrgId`] / [`PdbOrgId`] — organizational identifiers from WHOIS
//!   (`OID_W`) and PeeringDB (`OID_P`), the two "organization key" sources
//!   of §4.1 of the paper.
//! * [`Url`] — a purpose-built URL type with the normalization and
//!   brand-label (paper: "subdomain") semantics the web-inference module
//!   (§4.3) relies on.
//! * [`FaviconHash`] — a content hash identifying a favicon, the grouping
//!   key of the favicon classifier (§4.3.3).
//! * [`CountryCode`] — ISO-3166 alpha-2 codes for the footprint analysis
//!   (§6.2).
//! * [`AsnInterner`] — dense `u32` ids over a fixed ASN universe, the
//!   basis of the pipeline's allocation-free evidence replay.
//! * [`hash`] — the one FNV-1a and the one splitmix64 every crate uses.
//!
//! The crate is dependency-light on purpose: everything downstream —
//! substrate simulators, the pipeline, baselines and the evaluation harness —
//! depends on it, so it must stay small and allocation-conscious.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asn;
pub mod country;
pub mod errors;
pub mod favicon;
pub mod hash;
pub mod interner;
pub mod orgid;
pub mod url;

pub use asn::Asn;
pub use country::CountryCode;
pub use errors::ParseError;
pub use favicon::FaviconHash;
pub use interner::AsnInterner;
pub use orgid::{OrgName, PdbOrgId, WhoisOrgId};
pub use url::{Host, Url};
