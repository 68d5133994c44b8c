//! Tuples, fields, schemas, and their byte serialization.

use crate::gaussian::ConstrainedGaussian;
use crate::pmf::{check_alternatives, DiscretePmf};

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

    /// The next field's tag and body, its lengths checked and read in the
    /// steps the format names; an unknown tag has an empty body.
    #[inline(always)]
    fn field(&mut self) -> Result<(u8, &'a [u8]), MalformedTuple> {
        let tag = self.take(1, "field tag")?[0];
        let start = self.at;
        match tag {
            0 => self.u64("u64 field").map(drop)?,
            1 => self.f64("f64 field").map(drop)?,
            2 => self.str_bytes().map(drop)?,
            3 => {
                let n = self.u16("alternative count")?;
                self.take(16 * n, "alternatives").map(drop)?
            }
            4 => (0..4).try_for_each(|_| self.f64("point").map(drop))?,
            _ => {}
        }
        Ok((tag, &self.data[start..self.at]))
    }
}

/// The `(value, probability)` pairs of a discrete field's body.
fn pairs(body: &[u8]) -> impl ExactSizeIterator<Item = (u64, f64)> + Clone + '_ {
    let (pairs, _) = body.as_chunks::<16>();
    pairs.iter().map(|pair| {
        let (v, p) = pair.split_at(8);
        let v = u64::from_le_bytes(v.try_into().expect("8 bytes"));
        (v, f64::from_le_bytes(p.try_into().expect("8 bytes")))
    })
}

/// The `i`-th little-endian `f64` of a field's body.
fn f64_at(body: &[u8], i: usize) -> f64 {
    f64::from_le_bytes(body[8 * i..8 * i + 8].try_into().expect("8 bytes"))
}

/// An encoded tuple, checked where it lies — the one reader of the tuple
/// format. Every length is checked against the record and every value
/// against its type's conditions (field tag, UTF-8, PMF probabilities and
/// distinct ids, Gaussian parameters), plus what [`encode_tuple`] always
/// produces: alternatives in [`DiscretePmf`] order and an existence
/// probability in `(0, 1]`. So `encode_tuple(&view.to_tuple())` is exactly
/// [`bytes`](Self::bytes), and a reader can filter on the view, copy the
/// bytes of the records it keeps, and materialise only the rows it emits.
/// Parsing allocates nothing unless a PMF has more than 16 alternatives.
#[derive(Debug, Clone, Copy)]
pub struct TupleView<'a> {
    /// The record, without whatever followed it in the parsed slice. Only
    /// `parse` sets it: `to_tuple`'s unchecked UTF-8 relies on that.
    data: &'a [u8],
    id: TupleId,
    exist: f64,
}

impl<'a> TupleView<'a> {
    /// Check the record at the front of `data` (bytes after it are not
    /// part of it): damaged bytes come back as [`MalformedTuple`], never
    /// as a panic or a view of the wrong shape.
    pub fn parse(data: &'a [u8]) -> Result<TupleView<'a>, MalformedTuple> {
        let mut r = Reader { data, at: 0 };
        let id = TupleId(r.u64("tuple id")?);
        let exist = r.f64("existence")?;
        // The checks a decoded `Tuple` cannot fail come last, so a record
        // damaged in some other way too is reported for that damage.
        let mut disordered = None;
        for i in 0..r.u16("field count")? {
            let bad = |why: String| MalformedTuple(format!("field {i}: {why}"));
            match r.field()? {
                (0 | 1, _) => {}
                (2, body) => {
                    std::str::from_utf8(&body[4..]).map_err(|e| bad(e.to_string()))?;
                }
                (3, body) => {
                    if !check_alternatives(pairs(&body[2..])).map_err(bad)? {
                        disordered.get_or_insert(i);
                    }
                }
                (4, body) => {
                    let (sigma, bound) = (f64_at(body, 2), f64_at(body, 3));
                    if !(sigma > 0.0 && bound > 0.0) {
                        return Err(bad(format!(
                            "gaussian sigma {sigma} / bound {bound} not positive"
                        )));
                    }
                }
                (t, _) => return Err(bad(format!("unknown field tag {t}"))),
            }
        }
        if !(exist > 0.0 && exist <= 1.0) {
            return Err(MalformedTuple(format!(
                "existence probability {exist} out of (0,1]"
            )));
        }
        if let Some(i) = disordered {
            return Err(MalformedTuple(format!(
                "field {i}: alternatives out of descending-probability order"
            )));
        }
        let data = &data[..r.at];
        Ok(TupleView { data, id, exist })
    }

    /// The tuple id.
    pub fn id(&self) -> TupleId {
        self.id
    }

    /// The existence probability.
    pub fn exist(&self) -> f64 {
        self.exist
    }

    /// The record's bytes — what [`encode_tuple`] wrote, nothing after.
    pub fn bytes(&self) -> &'a [u8] {
        self.data
    }

    /// The alternatives of discrete field `attr`, most probable first;
    /// empty when field `attr` is not discrete.
    pub fn alternatives(
        &self,
        attr: usize,
    ) -> impl ExactSizeIterator<Item = (u64, f64)> + Clone + 'a {
        match self.fields().nth(attr) {
            Some((3, body)) => pairs(&body[2..]),
            _ => pairs(&[]),
        }
    }

    /// The tuple as an owned row. Nothing is checked or sorted again:
    /// [`parse`](Self::parse) did both.
    pub fn to_tuple(&self) -> Tuple {
        let fields = self.fields().map(|(tag, body)| match tag {
            0 => Field::Certain(Datum::U64(u64::from_le_bytes(
                body.try_into().expect("8 bytes"),
            ))),
            1 => Field::Certain(Datum::F64(f64_at(body, 0))),
            2 => {
                // SAFETY: `parse` checked that these very bytes are UTF-8,
                // and the view borrows them immutably.
                let s = unsafe { std::str::from_utf8_unchecked(&body[4..]) };
                Field::Certain(Datum::Str(s.to_owned()))
            }
            3 => Field::Discrete(DiscretePmf {
                alts: pairs(&body[2..]).collect(),
            }),
            _ => Field::Point(ConstrainedGaussian {
                cx: f64_at(body, 0),
                cy: f64_at(body, 1),
                sigma: f64_at(body, 2),
                bound: f64_at(body, 3),
            }),
        });
        Tuple::new(self.id, self.exist, fields.collect())
    }

    /// `(tag, body)` of every field, in order.
    fn fields(&self) -> impl Iterator<Item = (u8, &'a [u8])> + 'a {
        let mut r = Reader {
            data: self.data,
            at: TUPLE_HEADER_LEN,
        };
        let n = u16::from_le_bytes([self.data[16], self.data[17]]);
        (0..n).map(move |_| r.field().expect("parse walked the same lengths"))
    }
}

/// Deserialize a tuple produced by [`encode_tuple`].
///
/// # Panics
/// If `data` is not such a record; stored bytes go through
/// [`TupleView::parse`].
pub fn decode_tuple(data: &[u8]) -> Tuple {
    TupleView::parse(data)
        .unwrap_or_else(|why| panic!("decode_tuple on bytes encode_tuple did not produce: {why}"))
        .to_tuple()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The validating decoder [`TupleView`] replaced: it re-sorts every PMF
    /// and takes any existence probability. Kept only as the reference of
    /// `view_matches_the_reference_decoder`, for as long as that identity
    /// test is the only proof of the view.
    fn try_decode_tuple(data: &[u8]) -> Result<Tuple, MalformedTuple> {
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

    /// The view and the reference agree on `bytes`: the same error, or the
    /// same tuple — or the reference accepts what `encode_tuple` cannot
    /// have written (an existence outside `(0, 1]`, alternatives out of
    /// order), which the view alone rejects.
    fn agree(bytes: &[u8]) {
        match (TupleView::parse(bytes), try_decode_tuple(bytes)) {
            (Ok(view), Ok(t)) => {
                // Bit-for-bit (a damaged f64 field may be a NaN).
                assert_eq!(encode_tuple(&view.to_tuple()), encode_tuple(&t));
                assert_eq!(view.bytes(), encode_tuple(&t));
                assert_eq!(
                    (view.id(), view.exist().to_bits()),
                    (t.id, t.exist.to_bits())
                );
            }
            (Err(why), Err(reference)) => assert_eq!(why, reference),
            (Err(why), Ok(t)) => {
                let canonical = encode_tuple(&t);
                assert!(
                    !(t.exist > 0.0 && t.exist <= 1.0 && bytes.starts_with(&canonical)),
                    "rejected a canonical record: {why}"
                );
            }
            (Ok(_), Err(reference)) => panic!("accepted what the reference rejects: {reference}"),
        }
    }

    /// A random tuple over every field kind: multibyte strings, PMFs of one
    /// to forty alternatives (tied probabilities included), points.
    fn random_tuple(rng: &mut StdRng) -> Tuple {
        let fields = (0..rng.gen_range(0..7usize))
            .map(|_| match rng.gen_range(0..5u32) {
                0 => Field::Certain(Datum::U64(rng.gen())),
                1 => Field::Certain(Datum::F64(rng.gen_range(-1e9..1e9))),
                2 => {
                    let chars = ['a', 'é', '日', '🦀', ' '];
                    let len = rng.gen_range(0..12usize);
                    let s = (0..len).map(|_| chars[rng.gen_range(0..5usize)]).collect();
                    Field::Certain(Datum::Str(s))
                }
                3 => {
                    let n = [1u64, 2, 3, 8, 40][rng.gen_range(0..5usize)];
                    let (base, p) = (rng.gen_range(0..1000u64), 1.0 / n as f64);
                    let alts = (0..n)
                        .map(|i| (base + 7 * i, if rng.gen_bool(0.5) { p } else { p / 3.0 }))
                        .collect();
                    Field::Discrete(DiscretePmf::new(alts))
                }
                _ => Field::Point(ConstrainedGaussian::new(
                    rng.gen_range(-1e3..1e3),
                    rng.gen_range(-1e3..1e3),
                    rng.gen_range(0.1..10.0),
                    rng.gen_range(0.1..10.0),
                )),
            })
            .collect();
        Tuple::new(TupleId(rng.gen()), rng.gen_range(0.01..=1.0), fields)
    }

    #[test]
    fn view_matches_the_reference_decoder() {
        let mut rng = StdRng::seed_from_u64(0x7u64 << 40 | 0x1EE);
        for _ in 0..400 {
            let t = random_tuple(&mut rng);
            let enc = encode_tuple(&t);
            let view = TupleView::parse(&enc).expect("encode_tuple output parses");
            assert_eq!(view.to_tuple(), t);
            agree(&enc);
            // Bytes after the record are not part of it.
            let mut padded = enc.clone();
            padded.extend_from_slice(&[0xAB; 5]);
            assert_eq!(TupleView::parse(&padded).unwrap().bytes(), enc);
            for cut in 0..enc.len() {
                agree(&enc[..cut]);
            }
            // Byte damage anywhere, one to three bytes at a time.
            for _ in 0..40 {
                let mut bad = enc.clone();
                for _ in 0..rng.gen_range(1..=3usize) {
                    let at = rng.gen_range(0..bad.len());
                    bad[at] = rng.gen();
                }
                agree(&bad);
            }
        }
        // The most alternatives a record can carry.
        let n = u16::MAX as u64;
        let most = DiscretePmf::new((0..n).map(|v| (v, 1.0 / n as f64)).collect());
        let t = Tuple::new(TupleId(9), 0.5, vec![Field::Discrete(most)]);
        let enc = encode_tuple(&t);
        assert_eq!(TupleView::parse(&enc).unwrap().to_tuple(), t);
        agree(&enc);
        agree(&enc[..enc.len() - 1]);
        let mut repeated = enc.clone();
        repeated[TUPLE_HEADER_LEN + 3 + 16..][..8].copy_from_slice(&0u64.to_le_bytes());
        agree(&repeated);
    }

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
        let view = TupleView::parse(&enc).unwrap();
        assert_eq!((view.id(), view.exist()), (TupleId(42), 0.8));
        assert!(TupleView::parse(&enc[..TUPLE_HEADER_LEN - 1]).is_err());
    }

    #[test]
    fn view_alternatives_match_full_decode() {
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
        let view = TupleView::parse(&enc).unwrap();
        let alts = |attr| view.alternatives(attr).collect::<Vec<_>>();
        assert_eq!(alts(2), t.discrete(2).alternatives());
        assert_eq!(view.alternatives(2).next(), Some(t.discrete(2).first()));
        assert_eq!(alts(4), vec![(9, 0.9)]);
        // Non-discrete or out-of-bounds fields have no alternatives.
        for attr in [0, 1, 3, 9] {
            assert_eq!(view.alternatives(attr).len(), 0, "field {attr}");
        }
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
        assert_eq!(TupleView::parse(&enc).map(|v| v.to_tuple()), Ok(t));
        // Every truncation is caught by a length check.
        for cut in 0..enc.len() {
            let err = TupleView::parse(&enc[..cut]).expect_err("truncated");
            assert!(err.to_string().contains("malformed tuple record"), "{err}");
        }
        let damaged = |at: usize, with: &[u8]| {
            let mut bad = enc.clone();
            bad[at..at + with.len()].copy_from_slice(with);
            agree(&bad);
            TupleView::parse(&bad).expect_err("damaged").to_string()
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

        // What only the bytes can show — alternatives out of order (a
        // lower probability first; a tie with the larger id first) and an
        // existence outside (0, 1] — is rejected too, though a decode
        // would re-sort or keep it.
        let tie = [3u64.to_le_bytes(), 0.25f64.to_le_bytes()].concat();
        for (at, with) in [(49, &0.2f64.to_le_bytes()[..]), (41, &tie)] {
            assert!(damaged(at, with).contains("field 2: alternatives out of descending"));
        }
        for exist in [1.5, 0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(damaged(8, &exist.to_le_bytes()).contains("existence probability"));
        }
        let mut both = enc.clone();
        both[8..16].copy_from_slice(&1.5f64.to_le_bytes());
        let err = TupleView::parse(&both[..enc.len() - 1]).expect_err("damaged twice");
        assert!(
            err.to_string().contains("point needs"),
            "the older check reports: {err}"
        );
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
            let view = TupleView::parse(&enc).unwrap();
            prop_assert_eq!((view.id(), view.exist()), (t.id, t.exist));
            prop_assert_eq!(decode_tuple(&enc), t);
        }
    }
}
