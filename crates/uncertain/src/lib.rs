//! # upi-uncertain
//!
//! The uncertain data model underlying the UPI reproduction
//! (Kimura, Madden, Zdonik: *UPI: A Primary Index for Uncertain Databases*,
//! VLDB 2010).
//!
//! The paper uses the standard *possible world semantics* model: every tuple
//! has an **existence probability**, and uncertain attributes are either
//!
//! * **discrete** — a probability mass function over alternative values
//!   ([`DiscretePmf`]), e.g. `Institution = {Brown: 80%, MIT: 20%}`; or
//! * **continuous** — here, as in the paper's Cartel dataset, a
//!   **constrained 2-D Gaussian** ([`ConstrainedGaussian`]): a radially
//!   symmetric Gaussian truncated at a hard boundary circle.
//!
//! The *confidence* of a tuple for predicate `attr = v` is
//! `existence × P(attr = v)` — the probability mass of the possible worlds
//! in which the tuple exists and satisfies the predicate. [`worlds`]
//! provides a brute-force possible-worlds enumerator used as a semantic
//! oracle in tests.
//!
//! [`histogram`] implements the probability + value histograms of §6.1 that
//! drive the cost models' selectivity estimation, and [`zipf`] the Zipfian
//! sampler used to synthesize the paper's long-tailed distributions.

pub mod gaussian;
pub mod hash;
pub mod histogram;
pub mod pmf;
pub mod tuple;
pub mod worlds;
pub mod zipf;

pub use gaussian::ConstrainedGaussian;
pub use hash::{IdMap, IdSet};
pub use histogram::{AttrStats, ProbHistogram};
pub use pmf::DiscretePmf;
pub use tuple::{
    decode_tuple, encode_tuple, Datum, Field, FieldKind, MalformedTuple, Schema, Tuple, TupleId,
    TupleView,
};
pub use zipf::Zipf;
