//! The per-engine adapters: what each engine kind runs of the IR, one
//! function per operator, called from [`super::run`].

pub(crate) mod graph;
pub(crate) mod ml;
pub(crate) mod relational;
pub(crate) mod text;
pub(crate) mod timeseries;
