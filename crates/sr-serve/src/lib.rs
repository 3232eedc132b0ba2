//! `sr-serve` — the concurrent multi-client front-end that turns the
//! silkroute pipeline into a long-running middle-ware service.
//!
//! The paper frames SilkRoute as a server fielding many client requests;
//! this crate supplies that serving layer over the in-process engine:
//!
//! * a **frame protocol** ([`frame`]): length-prefixed request/response
//!   frames — submit a named view or inline RXL, stream back the tagged
//!   XML document or the raw wire-encoded tuple streams;
//! * **admission control** ([`admit`]): whole-request slots, per-client
//!   quotas, a bounded wait queue, and quota-aware FIFO fairness, layered
//!   above the engine's per-query `ExecGate`;
//! * the **server** ([`server`]): thread-per-connection with a dedicated
//!   reader per socket, so client disconnects and CANCEL frames abort
//!   in-flight producers through their `CancelToken`s immediately, plus
//!   graceful drain-then-stop shutdown and a mid-frame stall watchdog;
//! * the **request pipeline** ([`pipeline`]): view, XPath and plan-spec
//!   resolution plus [`pipeline::publish`], the one submit → merge → tag
//!   loop the library, the CLI and the socket all run;
//! * a blocking **client** ([`client`]) used by the CLI, the load
//!   generator, and the protocol conformance tests.
//!
//! See `docs/SERVING.md` for the wire format and operational knobs.

#![warn(missing_docs)]

pub mod admit;
pub mod client;
pub mod frame;
pub mod pipeline;
pub mod qlog;
pub mod server;
pub mod stats;

pub use admit::{Admission, AdmitConfig, AdmitPermit, AdmitRejection};
pub use client::{Client, ClientError, QueryResult};
pub use frame::{
    read_frame, read_request, read_response, DoneStats, ErrorCode, Format, ProtoError, RawFrame,
    Request, Response, ViewRef, DOC_CHANNEL, MAX_FRAME_LEN,
};
pub use pipeline::{CancelRegistry, PipelineError, RunStats, ViewCatalog, XPathResolution};
pub use qlog::{QlogRecord, QueryLog};
pub use server::{serve, ServeConfig, ServeHandle};
pub use stats::{prometheus_text, ClientStat, QlogStat, StatsSources, STATS_PROTO};
