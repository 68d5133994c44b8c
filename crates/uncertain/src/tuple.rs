//! Tuples, fields, schemas, and their byte serialization.

use crate::gaussian::ConstrainedGaussian;
use crate::pmf::DiscretePmf;

/// Logical tuple identifier. Assigned monotonically by the table layer;
/// never reused (the Fractured UPI's delete sets rely on that, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u64);

/// A certain (deterministic) value.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// Dictionary-encoded id (institutions, countries, journals, segments…).
    U64(u64),
    /// Floating point measure.
    F64(f64),
    /// Free text (names, padding payloads).
    Str(String),
}

/// A field of a tuple: certain, discretely uncertain, or a continuous
/// 2-D location distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Deterministic value.
    Certain(Datum),
    /// Uncertain attribute with a discrete PMF (paper's `Institution_p`).
    Discrete(DiscretePmf),
    /// Uncertain 2-D point (paper's Cartel `location`).
    Point(ConstrainedGaussian),
}

/// Kind tag for schema declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// [`Datum::U64`]
    U64,
    /// [`Datum::F64`]
    F64,
    /// [`Datum::Str`]
    Str,
    /// [`Field::Discrete`]
    Discrete,
    /// [`Field::Point`]
    Point,
}

/// Named field layout of a table.
#[derive(Debug, Clone)]
pub struct Schema {
    fields: Vec<(String, FieldKind)>,
}

impl Schema {
    /// Build from `(name, kind)` pairs.
    pub fn new(fields: Vec<(&str, FieldKind)>) -> Schema {
        Schema {
            fields: fields
                .into_iter()
                .map(|(n, k)| (n.to_string(), k))
                .collect(),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| n == name)
    }

    /// Name and kind of field `i`.
    pub fn field(&self, i: usize) -> (&str, FieldKind) {
        (&self.fields[i].0, self.fields[i].1)
    }
}

/// An uncertain tuple: id, existence probability, and fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Stable identifier.
    pub id: TupleId,
    /// Existence probability (possible-worlds semantics).
    pub exist: f64,
    /// Field values, positionally matching the table [`Schema`].
    pub fields: Vec<Field>,
}

impl Tuple {
    /// Build a tuple; panics if `exist` is outside `(0, 1]`.
    pub fn new(id: TupleId, exist: f64, fields: Vec<Field>) -> Tuple {
        assert!(
            exist > 0.0 && exist <= 1.0,
            "existence probability {exist} out of (0,1]"
        );
        Tuple { id, exist, fields }
    }

    /// The discrete PMF stored in field `idx` (panics if not discrete).
    pub fn discrete(&self, idx: usize) -> &DiscretePmf {
        match &self.fields[idx] {
            Field::Discrete(p) => p,
            other => panic!("field {idx} is not discrete: {other:?}"),
        }
    }

    /// The point distribution stored in field `idx` (panics otherwise).
    pub fn point(&self, idx: usize) -> &ConstrainedGaussian {
        match &self.fields[idx] {
            Field::Point(g) => g,
            other => panic!("field {idx} is not a point: {other:?}"),
        }
    }

    /// Confidence of this tuple for predicate `field[idx] = value`:
    /// `existence × P(value)` (the index key probability of Table 2).
    pub fn confidence_eq(&self, idx: usize, value: u64) -> f64 {
        self.exist * self.discrete(idx).prob_of(value)
    }

    /// Serialized size in bytes: what [`encode_tuple`] would produce,
    /// computed from the fields without encoding.
    pub fn encoded_len(&self) -> usize {
        let fields: usize = self
            .fields
            .iter()
            .map(|f| {
                1 + match f {
                    Field::Certain(Datum::U64(_)) | Field::Certain(Datum::F64(_)) => 8,
                    Field::Certain(Datum::Str(s)) => 4 + s.len(),
                    Field::Discrete(pmf) => 2 + 16 * pmf.support_len(),
                    Field::Point(_) => 32,
                }
            })
            .sum();
        TUPLE_HEADER_LEN + fields
    }
}

/// Length of the fixed header every encoded tuple starts with:
/// `id u64 | exist f64 | field count u16`.
pub const TUPLE_HEADER_LEN: usize = 18;

/// Id and existence probability of an encoded tuple, read from its header
/// without decoding the fields; `None` when `data` is shorter than the
/// header.
pub fn peek_header(data: &[u8]) -> Option<(TupleId, f64)> {
    let header = data.get(..TUPLE_HEADER_LEN)?;
    let id = u64::from_le_bytes(header[0..8].try_into().expect("8-byte slice"));
    let exist = f64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    Some((TupleId(id), exist))
}

/// Serialize a tuple to bytes (little-endian, length-prefixed strings).
pub fn encode_tuple(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(t.encoded_len());
    encode_tuple_into(t, &mut out);
    out
}

/// [`encode_tuple`] appended to `out` — for builders that lay many
/// tuples out back to back in one buffer.
pub fn encode_tuple_into(t: &Tuple, out: &mut Vec<u8>) {
    out.extend_from_slice(&t.id.0.to_le_bytes());
    out.extend_from_slice(&t.exist.to_le_bytes());
    out.extend_from_slice(&(t.fields.len() as u16).to_le_bytes());
    for f in &t.fields {
        match f {
            Field::Certain(Datum::U64(v)) => {
                out.push(0);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Field::Certain(Datum::F64(v)) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Field::Certain(Datum::Str(s)) => {
                out.push(2);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Field::Discrete(pmf) => {
                out.push(3);
                out.extend_from_slice(&(pmf.support_len() as u16).to_le_bytes());
                for &(v, p) in pmf.alternatives() {
                    out.extend_from_slice(&v.to_le_bytes());
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
            Field::Point(g) => {
                out.push(4);
                out.extend_from_slice(&g.cx.to_le_bytes());
                out.extend_from_slice(&g.cy.to_le_bytes());
                out.extend_from_slice(&g.sigma.to_le_bytes());
                out.extend_from_slice(&g.bound.to_le_bytes());
            }
        }
    }
}

/// Why stored bytes are not an encoded tuple: what was being read, and
/// where. Storage layers wrap it with the page the bytes came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedTuple(String);

impl std::fmt::Display for MalformedTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed tuple record: {}", self.0)
    }
}

impl std::error::Error for MalformedTuple {}

/// The record ends before the `n` bytes of `what` that start at `at`.
/// (Takes values, not the reader: the reader then stays in registers.)
#[cold]
#[inline(never)]
fn truncated(what: &str, n: usize, at: usize, len: usize) -> MalformedTuple {
    MalformedTuple(format!(
        "{what} needs {n} bytes at offset {at} of a {len}-byte record"
    ))
}

/// Length-checked little-endian walk over an encoded tuple.
struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    #[inline(always)]
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], MalformedTuple> {
        match self.data.get(self.at..).and_then(|rest| rest.get(..n)) {
            Some(s) => {
                self.at += n;
                Ok(s)
            }
            None => Err(truncated(what, n, self.at, self.data.len())),
        }
    }

    #[inline(always)]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], MalformedTuple> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returned N bytes"))
    }

    #[inline(always)]
    fn u16(&mut self, what: &str) -> Result<usize, MalformedTuple> {
        Ok(u16::from_le_bytes(self.array(what)?) as usize)
    }

    #[inline(always)]
    fn u64(&mut self, what: &str) -> Result<u64, MalformedTuple> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    #[inline(always)]
    fn f64(&mut self, what: &str) -> Result<f64, MalformedTuple> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    /// A string field's bytes (after its tag).
    #[inline(always)]
    fn str_bytes(&mut self) -> Result<&'a [u8], MalformedTuple> {
        let len = u32::from_le_bytes(self.array("string length")?) as usize;
        self.take(len, "string")
    }
}

/// Borrowed peek into an encoded tuple: existence probability plus the
/// first (most probable) alternative of discrete field `attr`, without
/// materializing the tuple.
///
/// Certain fields — including strings — are skipped as borrowed slices,
/// so hot run scans that only need to compare key fields (e.g. the
/// distinct-scan duplicate filter) stop paying one `String` allocation
/// per field per entry. Returns `None` when `attr` is out of bounds or
/// not a discrete field, and when the record is malformed up to there
/// ([`try_decode_tuple`] says how).
pub fn peek_first_alt(data: &[u8], attr: usize) -> Option<(f64, (u64, f64))> {
    let mut r = Reader { data, at: 8 };
    let exist = r.f64("existence").ok()?;
    let nfields = r.u16("field count").ok()?;
    if attr >= nfields {
        return None;
    }
    for field in 0..=attr {
        let skip = match r.take(1, "field tag").ok()?[0] {
            0 | 1 => 8,
            2 => r.str_bytes().ok().map(|_| 0)?,
            3 => {
                let n = r.u16("alternative count").ok()?;
                if field == attr && n > 0 {
                    // Alternatives are stored in descending-probability
                    // order, so the first encoded pair is `first()`.
                    let v = r.u64("alternative").ok()?;
                    let p = r.f64("alternative").ok()?;
                    return Some((exist, (v, p)));
                }
                16 * n
            }
            4 => 32,
            _ => return None,
        };
        r.take(skip, "field").ok()?;
    }
    None
}

/// Deserialize a tuple produced by [`encode_tuple`], for callers that own
/// their bytes (they just encoded them, or a checksum vouches for them).
///
/// # Panics
/// If `data` is not a well-formed record; bytes read back from a data
/// page go through [`try_decode_tuple`].
#[inline]
pub fn decode_tuple(data: &[u8]) -> Tuple {
    #[cold]
    #[inline(never)]
    fn foreign(why: MalformedTuple) -> ! {
        panic!("decode_tuple on bytes encode_tuple did not produce: {why}")
    }
    match try_decode_tuple(data) {
        Ok(t) => t,
        Err(why) => foreign(why),
    }
}

/// Deserialize a stored tuple, checking every length against the record
/// and every decoded value against its type's conditions (field tag,
/// UTF-8, PMF probabilities, Gaussian parameters): damaged bytes come
/// back as [`MalformedTuple`], never as a panic or a wrong tuple shape.
pub fn try_decode_tuple(data: &[u8]) -> Result<Tuple, MalformedTuple> {
    let mut r = Reader { data, at: 0 };
    let id = TupleId(r.u64("tuple id")?);
    let exist = r.f64("existence")?;
    let nfields = r.u16("field count")?;
    // Every field takes at least two bytes: a bound on what to reserve.
    let mut fields = Vec::with_capacity(nfields.min(data.len() / 2));
    for i in 0..nfields {
        let field = match r.take(1, "field tag")?[0] {
            0 => Field::Certain(Datum::U64(r.u64("u64 field")?)),
            1 => Field::Certain(Datum::F64(r.f64("f64 field")?)),
            2 => {
                let s = String::from_utf8(r.str_bytes()?.to_vec())
                    .map_err(|e| MalformedTuple(format!("field {i}: {e}")))?;
                Field::Certain(Datum::Str(s))
            }
            3 => {
                let n = r.u16("alternative count")?;
                let pairs = r.take(16 * n, "alternatives")?;
                let mut alts = Vec::with_capacity(n);
                for pair in pairs.chunks_exact(16) {
                    let (v, p) = pair.split_at(8);
                    alts.push((
                        u64::from_le_bytes(v.try_into().expect("8 bytes")),
                        f64::from_le_bytes(p.try_into().expect("8 bytes")),
                    ));
                }
                Field::Discrete(
                    DiscretePmf::try_new(alts)
                        .map_err(|why| MalformedTuple(format!("field {i}: {why}")))?,
                )
            }
            4 => {
                let (cx, cy) = (r.f64("point")?, r.f64("point")?);
                let (sigma, bound) = (r.f64("point")?, r.f64("point")?);
                if !(sigma > 0.0 && bound > 0.0) {
                    return Err(MalformedTuple(format!(
                        "field {i}: gaussian sigma {sigma} / bound {bound} not positive"
                    )));
                }
                Field::Point(ConstrainedGaussian::new(cx, cy, sigma, bound))
            }
            t => return Err(MalformedTuple(format!("field {i}: unknown field tag {t}"))),
        };
        fields.push(field);
    }
    Ok(Tuple { id, exist, fields })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn alice() -> Tuple {
        // The running example of Table 1.
        Tuple::new(
            TupleId(1),
            0.9,
            vec![
                Field::Certain(Datum::Str("Alice".into())),
                Field::Discrete(DiscretePmf::new(vec![(0, 0.8), (1, 0.2)])),
            ],
        )
    }

    #[test]
    fn confidence_matches_paper_example() {
        // Alice works for MIT (id 1) with conf 90% * 20% = 18%.
        let t = alice();
        assert!((t.confidence_eq(1, 1) - 0.18).abs() < 1e-12);
        assert!((t.confidence_eq(1, 0) - 0.72).abs() < 1e-12);
        assert_eq!(t.confidence_eq(1, 99), 0.0);
    }

    #[test]
    fn roundtrip_all_field_kinds() {
        let t = Tuple::new(
            TupleId(42),
            0.8,
            vec![
                Field::Certain(Datum::U64(7)),
                Field::Certain(Datum::F64(-1.25)),
                Field::Certain(Datum::Str("héllo".into())),
                Field::Discrete(DiscretePmf::new(vec![(1, 0.5), (2, 0.25)])),
                Field::Point(ConstrainedGaussian::new(1.0, 2.0, 3.0, 4.0)),
            ],
        );
        let enc = encode_tuple(&t);
        assert_eq!(decode_tuple(&enc), t);
        assert_eq!(t.encoded_len(), enc.len());
        assert_eq!(peek_header(&enc), Some((TupleId(42), 0.8)));
        assert_eq!(peek_header(&enc[..TUPLE_HEADER_LEN - 1]), None);
    }

    #[test]
    fn peek_first_alt_matches_full_decode() {
        let t = Tuple::new(
            TupleId(42),
            0.8,
            vec![
                Field::Certain(Datum::Str("padding-padding".into())),
                Field::Certain(Datum::U64(7)),
                Field::Discrete(DiscretePmf::new(vec![(1, 0.2), (2, 0.5), (3, 0.1)])),
                Field::Point(ConstrainedGaussian::new(1.0, 2.0, 3.0, 4.0)),
                Field::Discrete(DiscretePmf::new(vec![(9, 0.9)])),
            ],
        );
        let enc = encode_tuple(&t);
        let (exist, first) = peek_first_alt(&enc, 2).unwrap();
        assert_eq!(exist, 0.8);
        assert_eq!(first, t.discrete(2).first());
        let (_, first4) = peek_first_alt(&enc, 4).unwrap();
        assert_eq!(first4, (9, 0.9));
        // Non-discrete or out-of-bounds fields peek as None.
        assert_eq!(peek_first_alt(&enc, 0), None);
        assert_eq!(peek_first_alt(&enc, 1), None);
        assert_eq!(peek_first_alt(&enc, 3), None);
        assert_eq!(peek_first_alt(&enc, 9), None);
    }

    #[test]
    fn damaged_records_are_errors_not_panics() {
        let t = Tuple::new(
            TupleId(42),
            0.8,
            vec![
                Field::Certain(Datum::U64(7)),
                Field::Certain(Datum::Str("héllo".into())),
                Field::Discrete(DiscretePmf::new(vec![(1, 0.5), (2, 0.25)])),
                Field::Point(ConstrainedGaussian::new(1.0, 2.0, 3.0, 4.0)),
            ],
        );
        let enc = encode_tuple(&t);
        assert_eq!(try_decode_tuple(&enc), Ok(t));
        // Every truncation is caught by a length check, in both walkers.
        for cut in 0..enc.len() {
            let err = try_decode_tuple(&enc[..cut]).expect_err("truncated");
            assert!(err.to_string().contains("malformed tuple record"), "{err}");
            let _ = peek_first_alt(&enc[..cut], 2);
        }
        assert_eq!(
            peek_first_alt(&enc[..45], 2),
            None,
            "cut inside the first pair"
        );
        let damaged = |at: usize, with: &[u8]| {
            let mut bad = enc.clone();
            bad[at..at + with.len()].copy_from_slice(with);
            try_decode_tuple(&bad).expect_err("damaged").to_string()
        };
        // Field 0's tag; the string's length and then its bytes; the
        // PMF's count, a probability (NaN, then a sum above one); sigma.
        assert!(damaged(18, &[9]).contains("unknown field tag 9"));
        assert!(damaged(28, &u32::MAX.to_le_bytes()).contains("string needs"));
        assert!(damaged(32, &[0xFF]).contains("utf-8"));
        assert!(damaged(39, &u16::MAX.to_le_bytes()).contains("alternatives needs"));
        assert!(damaged(49, &f64::NAN.to_le_bytes()).contains("out of (0,1]"));
        assert!(damaged(65, &0.75f64.to_le_bytes()).contains("sum"));
        assert!(damaged(90, &(-1.0f64).to_le_bytes()).contains("not positive"));
        // A field count the record cannot hold does not reserve for it.
        assert!(damaged(16, &u16::MAX.to_le_bytes()).contains("field tag needs"));
    }

    #[test]
    #[should_panic(expected = "decode_tuple on bytes encode_tuple did not produce")]
    fn decode_tuple_panics_on_foreign_bytes() {
        decode_tuple(&[1, 2, 3]);
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![
            ("name", FieldKind::Str),
            ("institution", FieldKind::Discrete),
            ("country", FieldKind::Discrete),
        ]);
        assert_eq!(s.index_of("institution"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.field(2).0, "country");
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "existence probability")]
    fn rejects_bad_existence() {
        Tuple::new(TupleId(0), 0.0, vec![]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            id: u64,
            exist in 0.01f64..=1.0,
            v: u64,
            f in -1e6f64..1e6,
            s in "[a-zé]{0,16}",
            p1 in 0.01f64..0.5,
            p2 in 0.01f64..0.5,
            point: bool,
        ) {
            let mut fields = vec![
                Field::Certain(Datum::U64(v)),
                Field::Certain(Datum::F64(f)),
                Field::Certain(Datum::Str(s)),
                Field::Discrete(DiscretePmf::new(vec![(10, p1), (20, p2)])),
            ];
            if point {
                fields.push(Field::Point(ConstrainedGaussian::new(f, -f, p1, p2)));
            }
            let t = Tuple::new(TupleId(id), exist, fields);
            let enc = encode_tuple(&t);
            prop_assert_eq!(t.encoded_len(), enc.len());
            prop_assert_eq!(peek_header(&enc), Some((t.id, t.exist)));
            prop_assert_eq!(decode_tuple(&enc), t);
        }
    }
}
