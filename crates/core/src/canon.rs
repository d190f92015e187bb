//! Canonical byte encoding and stable hashing of problem instances, plus
//! certificate serialization — the substrate of the service layer's wire
//! protocol and result cache.
//!
//! **Canonical** means: the encoding is a pure function of the instance's
//! *semantics* — node count, adjacency lists in port order (adjacency order
//! *is* the port numbering, which the algorithms observe), weights, and the
//! global bounds the anonymous nodes are told. Two instances that the
//! algorithms cannot distinguish encode to byte-identical blobs, so the
//! FNV-1a digest of a blob is a stable cache key:
//!
//! * building a graph from an edge list with endpoint pairs flipped
//!   (`(u, v)` vs `(v, u)`) yields the same adjacency lists, hence the same
//!   bytes;
//! * `encode(decode(encode(x)))` is byte-identical to `encode(x)`
//!   (property-tested);
//! * two different port numberings of the same underlying graph encode
//!   *differently* — deliberately, because port order is observable in the
//!   port-numbering model.
//!
//! Layout (all integers little-endian, no padding): a one-byte tag (`b'V'`
//! for vertex cover, `b'S'` for set cover), then the instance fields; see
//! [`encode_vc`] and [`encode_sc`]. [`encode_certificate`] serialises an
//! exact [`Certificate`] (dual value as sign + little-endian `u64` limbs of
//! numerator and denominator) so a client can re-check `w(C) ≤ factor·Σy`
//! with exact arithmetic at the edge.

use crate::certify::Certificate;
use anonet_bigmath::{BigRat, IBig, PackingValue, Sign, UBig};
use anonet_sim::{Graph, SetCoverInstance};
use std::fmt;

/// 64-bit FNV-1a of `bytes` — a compact, platform-stable digest of a
/// canonical blob for logs and reports. It is **not** a cache key: the
/// service's result cache compares full canonical bytes (a 64-bit digest
/// can collide; full-key comparison cannot serve a wrong result).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors raised when decoding a canonical blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CanonError {
    /// The blob ended before the announced content.
    Truncated,
    /// Unknown leading tag byte.
    BadTag(u8),
    /// A structural invariant failed (message is human-readable).
    Invalid(String),
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanonError::Truncated => write!(f, "blob truncated"),
            CanonError::BadTag(t) => write!(f, "unknown instance tag {t:#04x}"),
            CanonError::Invalid(m) => write!(f, "invalid instance: {m}"),
        }
    }
}

impl std::error::Error for CanonError {}

/// Little-endian byte writer over a growable buffer.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn put_blob(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v);
    }

    /// Finishes, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte reader with truncation checking.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        if self.remaining() < n {
            return Err(CanonError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CanonError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CanonError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CanonError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed blob.
    pub fn get_blob(&mut self) -> Result<&'a [u8], CanonError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }
}

/// Leading tag of a canonical vertex-cover instance blob.
pub const TAG_VC: u8 = b'V';
/// Leading tag of a canonical set-cover instance blob.
pub const TAG_SC: u8 = b'S';

/// Largest declared degree bound Δ a decoded blob may carry. Declared
/// bounds drive the fixed round schedule (O(Δ) rounds, encoder integers of
/// O(Δ log(WΔ)) bits), so an untrusted blob declaring an absurd Δ on a tiny
/// graph would pin a solver essentially forever. 4096 is far above every
/// experiment in this repository.
pub const MAX_DECLARED_DELTA: usize = 4096;

/// Largest declared frequency/size bounds (f, k) a decoded set-cover blob
/// may carry. The §4 colour scale `(k!)^((D+1)²)` with `D = (k−1)·f` grows
/// so violently in the declared bounds that a malicious `k` alone is a
/// memory/CPU blowup; 64 is far above the paper's regime.
pub const MAX_DECLARED_FK: usize = 64;

/// Largest declared weight bound W a decoded blob may carry. Certification
/// sums cover weights in `u64`, and release builds do not trap overflow: an
/// untrusted blob with weights near `u64::MAX` could wrap `w(C)` and forge a
/// "verifying" certificate. With W ≤ 2³² and node counts bounded by the blob
/// size (≥ 12 bytes per node, frames ≤ 2²⁸ bytes), every weight sum stays
/// below 2⁵⁷. 2³² is far above every experiment in this repository.
pub const MAX_DECLARED_W: u64 = 1 << 32;

/// A decoded vertex-cover instance, owning its graph and weights — what the
/// service layer reconstructs from a canonical blob. `delta`/`max_weight`
/// are the global bounds (Δ, W) the anonymous nodes are told.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedVcInstance {
    /// Communication graph (adjacency order = port numbering).
    pub graph: Graph,
    /// Node weights, indexed by node id.
    pub weights: Vec<u64>,
    /// Maximum degree bound Δ.
    pub delta: usize,
    /// Maximum weight bound W.
    pub max_weight: u64,
}

/// A decoded set-cover instance with its global bounds (f, k, W).
#[derive(Clone, Debug)]
pub struct OwnedScInstance {
    /// The bipartite instance (subsets, then elements; ports preserved).
    pub inst: SetCoverInstance,
    /// Maximum element frequency bound f.
    pub f: usize,
    /// Maximum subset size bound k.
    pub k: usize,
    /// Maximum weight bound W.
    pub max_weight: u64,
}

/// Canonically encodes a vertex-cover instance.
///
/// Layout: `TAG_VC`, `n: u32`, per node `deg: u32` + `deg × u32` neighbour
/// ids in port order, `n × u64` weights, `delta: u32`, `max_weight: u64`.
pub fn encode_vc(g: &Graph, weights: &[u64], delta: usize, max_weight: u64) -> Vec<u8> {
    assert_eq!(weights.len(), g.n(), "one weight per node");
    let mut w = ByteWriter::new();
    w.put_u8(TAG_VC);
    w.put_u32(g.n() as u32);
    for v in 0..g.n() {
        w.put_u32(g.degree(v) as u32);
        for (_, u) in g.neighbors(v) {
            w.put_u32(u as u32);
        }
    }
    for &wt in weights {
        w.put_u64(wt);
    }
    w.put_u32(delta as u32);
    w.put_u64(max_weight);
    w.into_bytes()
}

/// Decodes a canonical vertex-cover blob. Inverse of [`encode_vc`]:
/// `encode_vc` of the decoded instance is byte-identical to the input
/// whenever the input itself was produced by `encode_vc`.
pub fn decode_vc(blob: &[u8]) -> Result<OwnedVcInstance, CanonError> {
    let mut r = ByteReader::new(blob);
    let tag = r.get_u8()?;
    if tag != TAG_VC {
        return Err(CanonError::BadTag(tag));
    }
    let n = r.get_u32()? as usize;
    // Every node costs ≥ 4 (degree word) + 8 (weight) bytes, so an honest
    // blob can never declare more nodes than this — and a malicious count
    // cannot drive `with_capacity` past the blob's own size.
    if n > r.remaining() / 12 {
        return Err(CanonError::Truncated);
    }
    let mut adj = Vec::with_capacity(n);
    for _ in 0..n {
        let deg = r.get_u32()? as usize;
        if deg > r.remaining() / 4 {
            return Err(CanonError::Truncated);
        }
        let mut list = Vec::with_capacity(deg);
        for _ in 0..deg {
            list.push(r.get_u32()? as usize);
        }
        adj.push(list);
    }
    let graph =
        Graph::from_adjacency(adj).map_err(|e| CanonError::Invalid(format!("graph: {e}")))?;
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        weights.push(r.get_u64()?);
    }
    let delta = r.get_u32()? as usize;
    let max_weight = r.get_u64()?;
    if graph.max_degree() > delta {
        return Err(CanonError::Invalid(format!(
            "max degree {} exceeds bound Δ = {delta}",
            graph.max_degree()
        )));
    }
    if delta > MAX_DECLARED_DELTA {
        return Err(CanonError::Invalid(format!(
            "declared Δ = {delta} exceeds the sanity cap {MAX_DECLARED_DELTA}"
        )));
    }
    if max_weight > MAX_DECLARED_W {
        return Err(CanonError::Invalid(format!(
            "declared W = {max_weight} exceeds the sanity cap {MAX_DECLARED_W}"
        )));
    }
    if max_weight == 0 || weights.iter().any(|&w| w == 0 || w > max_weight) {
        return Err(CanonError::Invalid(format!("weights must lie in 1..=W = {max_weight}")));
    }
    Ok(OwnedVcInstance { graph, weights, delta, max_weight })
}

/// Canonically encodes a set-cover instance.
///
/// Layout: `TAG_SC`, `n_subsets: u32`, `n_elements: u32`, per subset its
/// `deg: u32` and member element indices in port order, per element its
/// `deg: u32` and containing subset indices in port order, `n_subsets × u64`
/// weights, `f: u32`, `k: u32`, `max_weight: u64`. Both sides' port orders
/// are encoded because both are observable in the broadcast model's
/// bipartite communication graph.
pub fn encode_sc(inst: &SetCoverInstance, f: usize, k: usize, max_weight: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(TAG_SC);
    w.put_u32(inst.n_subsets as u32);
    w.put_u32(inst.n_elements() as u32);
    for s in 0..inst.n_subsets {
        w.put_u32(inst.graph.degree(s) as u32);
        for (_, u) in inst.graph.neighbors(s) {
            w.put_u32((u - inst.n_subsets) as u32);
        }
    }
    for e in 0..inst.n_elements() {
        let node = inst.element_node(e);
        w.put_u32(inst.graph.degree(node) as u32);
        for (_, s) in inst.graph.neighbors(node) {
            w.put_u32(s as u32);
        }
    }
    for &wt in &inst.weights {
        w.put_u64(wt);
    }
    w.put_u32(f as u32);
    w.put_u32(k as u32);
    w.put_u64(max_weight);
    w.into_bytes()
}

/// Decodes a canonical set-cover blob (inverse of [`encode_sc`]).
pub fn decode_sc(blob: &[u8]) -> Result<OwnedScInstance, CanonError> {
    let mut r = ByteReader::new(blob);
    let tag = r.get_u8()?;
    if tag != TAG_SC {
        return Err(CanonError::BadTag(tag));
    }
    let n_subsets = r.get_u32()? as usize;
    let n_elements = r.get_u32()? as usize;
    // Subsets cost ≥ 4 + 8 bytes each (degree word + weight), elements ≥ 4;
    // reject counts the blob cannot possibly back before allocating.
    if n_subsets > r.remaining() / 12 || n_elements > r.remaining() / 4 {
        return Err(CanonError::Truncated);
    }
    let mut read_lists = |count: usize| -> Result<Vec<Vec<usize>>, CanonError> {
        let mut lists = Vec::with_capacity(count);
        for _ in 0..count {
            let deg = r.get_u32()? as usize;
            if deg > r.remaining() / 4 {
                return Err(CanonError::Truncated);
            }
            let mut list = Vec::with_capacity(deg);
            for _ in 0..deg {
                list.push(r.get_u32()? as usize);
            }
            lists.push(list);
        }
        Ok(lists)
    };
    let subset_ports = read_lists(n_subsets)?;
    let element_ports = read_lists(n_elements)?;
    let mut weights = Vec::with_capacity(n_subsets);
    for _ in 0..n_subsets {
        weights.push(r.get_u64()?);
    }
    let f = r.get_u32()? as usize;
    let k = r.get_u32()? as usize;
    let max_weight = r.get_u64()?;
    let inst = SetCoverInstance::with_ports(&subset_ports, &element_ports, weights)
        .map_err(|e| CanonError::Invalid(format!("instance: {e}")))?;
    if f == 0 || k == 0 || f > MAX_DECLARED_FK || k > MAX_DECLARED_FK {
        return Err(CanonError::Invalid(format!(
            "declared bounds (f = {f}, k = {k}) outside 1..={MAX_DECLARED_FK}"
        )));
    }
    if inst.f() > f || inst.k() > k {
        return Err(CanonError::Invalid(format!(
            "instance (f = {}, k = {}) exceeds bounds (f = {f}, k = {k})",
            inst.f(),
            inst.k()
        )));
    }
    if max_weight > MAX_DECLARED_W {
        return Err(CanonError::Invalid(format!(
            "declared W = {max_weight} exceeds the sanity cap {MAX_DECLARED_W}"
        )));
    }
    if max_weight == 0 || inst.weights.iter().any(|&w| w == 0 || w > max_weight) {
        return Err(CanonError::Invalid(format!("weights must lie in 1..=W = {max_weight}")));
    }
    Ok(OwnedScInstance { inst, f, k, max_weight })
}

fn put_ubig(w: &mut ByteWriter, u: &UBig) {
    w.put_u32(u.limbs().len() as u32);
    for &limb in u.limbs() {
        w.put_u64(limb);
    }
}

fn get_ubig(r: &mut ByteReader<'_>) -> Result<UBig, CanonError> {
    let len = r.get_u32()? as usize;
    if len > r.remaining() / 8 {
        return Err(CanonError::Truncated);
    }
    let mut limbs = Vec::with_capacity(len);
    for _ in 0..len {
        limbs.push(r.get_u64()?);
    }
    Ok(UBig::from_limbs(limbs))
}

/// Serialises an exact [`Certificate`] over [`BigRat`].
///
/// Layout: `cover_weight: u64`, `factor: u64`, dual sign byte (0 plus, 1
/// minus), numerator limb count + limbs, denominator limb count + limbs
/// (little-endian `u64` limbs). Exactness matters: the receiving edge
/// re-checks `cover_weight ≤ factor · dual` with exact rational arithmetic,
/// not floats.
pub fn encode_certificate(cert: &Certificate<BigRat>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(cert.cover_weight);
    w.put_u64(cert.factor);
    w.put_u8(u8::from(cert.dual_value.numer().sign() == Sign::Minus));
    put_ubig(&mut w, cert.dual_value.numer().magnitude());
    put_ubig(&mut w, cert.dual_value.denom());
    w.into_bytes()
}

/// Decodes a serialised certificate (inverse of [`encode_certificate`]).
pub fn decode_certificate(blob: &[u8]) -> Result<Certificate<BigRat>, CanonError> {
    let mut r = ByteReader::new(blob);
    let cover_weight = r.get_u64()?;
    let factor = r.get_u64()?;
    let sign = if r.get_u8()? == 0 { Sign::Plus } else { Sign::Minus };
    let num = get_ubig(&mut r)?;
    let den = get_ubig(&mut r)?;
    if den.is_zero() {
        return Err(CanonError::Invalid("zero dual denominator".into()));
    }
    let dual_value = BigRat::new(IBig::from_sign_mag(sign, num), den);
    Ok(Certificate { cover_weight, dual_value, factor })
}

/// Checks the arithmetic content of a certificate with exact arithmetic:
/// `cover_weight ≤ factor · dual`. This is the edge-side check — it trusts
/// the server's claim that the dual is feasible and maximal (the full
/// verification needs the packing itself, which stays server-side).
pub fn certificate_bound_holds(cert: &Certificate<BigRat>) -> bool {
    let lhs = BigRat::from_u64(cert.cover_weight);
    let rhs = cert.dual_value.mul(&BigRat::from_u64(cert.factor));
    lhs <= rhs
}

/// Checks a reply's cover against the instance blob the client itself sent,
/// trusting nothing the server computed: the blob decodes (vertex or set
/// cover, by its tag), the cover has one entry per node (per subset), it
/// covers every edge (element), and `cover_weight` is that cover's weight
/// recomputed from the blob. Together with [`certificate_bound_holds`] this
/// is the client-side reply check; the dual's feasibility would need the
/// packing, which stays server-side.
pub fn cover_holds(blob: &[u8], cover: &[bool], cover_weight: u64) -> bool {
    match blob.first() {
        Some(&TAG_VC) => decode_vc(blob).is_ok_and(|d| {
            cover.len() == d.graph.n()
                && d.graph.edge_iter().all(|(_, u, v)| cover[u] || cover[v])
                && d.weights.iter().zip(cover).filter(|(_, &c)| c).map(|(w, _)| w).sum::<u64>()
                    == cover_weight
        }),
        Some(&TAG_SC) => decode_sc(blob).is_ok_and(|d| {
            cover.len() == d.inst.n_subsets
                && d.inst.is_cover(cover)
                && d.inst.cover_weight(cover) == cover_weight
        }),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_gen::{family, setcover, Rng, WeightSpec};

    #[test]
    fn vc_roundtrip_exact() {
        let g = family::petersen();
        let w = WeightSpec::Uniform(9).draw_many(10, 3);
        let blob = encode_vc(&g, &w, 3, 9);
        let dec = decode_vc(&blob).unwrap();
        assert_eq!(dec.graph, g);
        assert_eq!(dec.weights, w);
        assert_eq!(dec.delta, 3);
        assert_eq!(dec.max_weight, 9);
        // encode ∘ decode ∘ encode is the identity on blobs.
        assert_eq!(encode_vc(&dec.graph, &dec.weights, dec.delta, dec.max_weight), blob);
    }

    #[test]
    fn vc_hash_stable_across_equal_canonicalizations() {
        // Flipping the endpoint order of undirected edges does not change
        // the adjacency (port) structure, so the canonical bytes and the
        // digest are identical.
        let n = 12;
        let edges: Vec<(usize, usize)> =
            (0..n).map(|v| (v, (v + 1) % n)).chain((0..n / 2).map(|v| (v, v + n / 2))).collect();
        let flipped: Vec<(usize, usize)> = edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| if i % 2 == 0 { (v, u) } else { (u, v) })
            .collect();
        let g1 = Graph::from_edges(n, &edges).unwrap();
        let g2 = Graph::from_edges(n, &flipped).unwrap();
        let w = vec![1u64; n];
        let b1 = encode_vc(&g1, &w, 3, 1);
        let b2 = encode_vc(&g2, &w, 3, 1);
        assert_eq!(b1, b2);
        assert_eq!(fnv64(&b1), fnv64(&b2));
        // Re-deriving the graph from its own adjacency is also stable.
        let g3 = Graph::from_adjacency(g1.adjacency()).unwrap();
        assert_eq!(encode_vc(&g3, &w, 3, 1), b1);
    }

    #[test]
    fn vc_port_order_is_observable_and_hashed() {
        // A *different* port numbering of the same graph is a different
        // instance in the PN model and must hash differently.
        let g = family::cycle(8);
        let r = g.reorder_ports(|_, old| old.iter().rev().copied().collect());
        let w = vec![1u64; 8];
        assert_ne!(encode_vc(&g, &w, 2, 1), encode_vc(&r, &w, 2, 1));
    }

    #[test]
    fn vc_decode_rejects_bad_blobs() {
        let g = family::star(3);
        let w = vec![2u64; 4];
        let blob = encode_vc(&g, &w, 3, 2);
        assert_eq!(decode_vc(&blob[..blob.len() - 1]).unwrap_err(), CanonError::Truncated);
        assert_eq!(decode_vc(b"X").unwrap_err(), CanonError::BadTag(b'X'));
        // Degree bound violation.
        let tight = encode_vc(&g, &w, 2, 2);
        assert!(matches!(decode_vc(&tight).unwrap_err(), CanonError::Invalid(_)));
        // Weight above W.
        let heavy = encode_vc(&g, &[2, 2, 2, 3], 3, 2);
        assert!(matches!(decode_vc(&heavy).unwrap_err(), CanonError::Invalid(_)));
        // Absurd degree claim must not OOM.
        let mut w2 = ByteWriter::new();
        w2.put_u8(TAG_VC);
        w2.put_u32(1);
        w2.put_u32(u32::MAX);
        assert_eq!(decode_vc(&w2.into_bytes()).unwrap_err(), CanonError::Truncated);
        // Absurd *node-count* claim in a tiny blob must not allocate either.
        let mut w3 = ByteWriter::new();
        w3.put_u8(TAG_VC);
        w3.put_u32(u32::MAX);
        assert_eq!(decode_vc(&w3.into_bytes()).unwrap_err(), CanonError::Truncated);
        // Declared Δ beyond the sanity cap is rejected (it would pin a
        // solver in an O(Δ)-round schedule).
        let absurd = encode_vc(&g, &w, MAX_DECLARED_DELTA + 1, 2);
        assert!(matches!(decode_vc(&absurd).unwrap_err(), CanonError::Invalid(_)));
        // Declared W beyond the sanity cap is rejected: weights near
        // u64::MAX could wrap the u64 cover-weight sums certification
        // relies on and forge a "verifying" certificate in release builds.
        let heavy_w = encode_vc(&g, &w, 3, MAX_DECLARED_W + 1);
        assert!(matches!(decode_vc(&heavy_w).unwrap_err(), CanonError::Invalid(_)));
        let wrapping = encode_vc(&g, &[1 << 63; 4], 3, u64::MAX);
        assert!(matches!(decode_vc(&wrapping).unwrap_err(), CanonError::Invalid(_)));
    }

    #[test]
    fn sc_decode_rejects_hostile_bounds_and_counts() {
        // Absurd subset/element counts in a tiny blob: no allocation.
        for (subs, elems) in [(u32::MAX, 0u32), (0, u32::MAX), (u32::MAX, u32::MAX)] {
            let mut w = ByteWriter::new();
            w.put_u8(TAG_SC);
            w.put_u32(subs);
            w.put_u32(elems);
            assert_eq!(decode_sc(&w.into_bytes()).unwrap_err(), CanonError::Truncated);
        }
        // Declared f = 0 / k = 0 would panic ScConfig downstream; declared
        // bounds beyond the cap would blow up the (k!)^((D+1)²) scale.
        let inst = setcover::random_bounded(6, 4, 2, 3, WeightSpec::Unit, 1);
        for (f, k) in [(0, 3), (2, 0), (MAX_DECLARED_FK + 1, 3), (2, MAX_DECLARED_FK + 1)] {
            let blob = encode_sc(&inst, f, k, 1);
            assert!(matches!(decode_sc(&blob).unwrap_err(), CanonError::Invalid(_)), "f={f} k={k}");
        }
        // A zero subset weight would panic `ScNode::init` downstream; the
        // decode must reject it like `decode_vc` does (weights lie in 1..=W).
        let mut zeroed = encode_sc(&inst, inst.f(), inst.k(), 1);
        let w0 = zeroed.len() - 16 - 8 * inst.n_subsets;
        zeroed[w0..w0 + 8].fill(0);
        assert!(matches!(decode_sc(&zeroed).unwrap_err(), CanonError::Invalid(_)));
        // Declared W beyond the sanity cap is rejected (overflow hardening,
        // as in `decode_vc`).
        let heavy_w = encode_sc(&inst, inst.f(), inst.k(), MAX_DECLARED_W + 1);
        assert!(matches!(decode_sc(&heavy_w).unwrap_err(), CanonError::Invalid(_)));
    }

    #[test]
    fn sc_roundtrip_exact() {
        let inst = setcover::random_bounded(12, 8, 3, 4, WeightSpec::Uniform(7), 5);
        let (f, k, w) = (inst.f(), inst.k(), inst.max_weight());
        let blob = encode_sc(&inst, f, k, w);
        let dec = decode_sc(&blob).unwrap();
        assert_eq!(dec.inst.graph, inst.graph);
        assert_eq!(dec.inst.n_subsets, inst.n_subsets);
        assert_eq!(dec.inst.weights, inst.weights);
        assert_eq!(encode_sc(&dec.inst, dec.f, dec.k, dec.max_weight), blob);
    }

    #[test]
    fn roundtrip_stability_property() {
        // Random bounded-degree graphs with random weights: encode → decode
        // → encode is byte-identical, the digest is stable, and decoding
        // reconstructs the exact graph (ports included).
        let mut rng = Rng::new(99);
        for case in 0..24u64 {
            let n = 4 + rng.index(24);
            let g = family::gnp_capped(n, 0.25, 5, case);
            let w = WeightSpec::LogUniform(1 << 12).draw_many(n, case);
            let delta = g.max_degree().max(1);
            let blob = encode_vc(&g, &w, delta, 1 << 12);
            let dec = decode_vc(&blob).unwrap();
            assert_eq!(dec.graph, g, "case {case}");
            let blob2 = encode_vc(&dec.graph, &dec.weights, dec.delta, dec.max_weight);
            assert_eq!(blob, blob2, "case {case}");
            assert_eq!(fnv64(&blob), fnv64(&blob2), "case {case}");
        }
    }

    #[test]
    fn certificate_roundtrip_and_bound() {
        let cert = Certificate {
            cover_weight: 41,
            dual_value: BigRat::from_frac(123_456_789, 6_000_000),
            factor: 2,
        };
        let blob = encode_certificate(&cert);
        let dec = decode_certificate(&blob).unwrap();
        assert_eq!(dec.cover_weight, cert.cover_weight);
        assert_eq!(dec.factor, cert.factor);
        assert_eq!(dec.dual_value, cert.dual_value);
        assert!(certificate_bound_holds(&dec)); // 41 ≤ 2 · 20.57…
        let bad = Certificate { cover_weight: 42, dual_value: BigRat::from_u64(20), factor: 2 };
        assert!(!certificate_bound_holds(&bad));
        // A dual too large to fit u64 arithmetic still round-trips exactly.
        let huge = Certificate {
            cover_weight: u64::MAX,
            dual_value: BigRat::new(
                IBig::from_sign_mag(Sign::Plus, UBig::from_u64(7).pow(100)),
                UBig::from_u64(3).pow(60),
            ),
            factor: 2,
        };
        let dec = decode_certificate(&encode_certificate(&huge)).unwrap();
        assert_eq!(dec.dual_value, huge.dual_value);
    }

    #[test]
    fn cover_check_rejects_flipped_bits_and_inflated_weights() {
        let g = family::petersen();
        let w = WeightSpec::Uniform(9).draw_many(10, 3);
        let vc = encode_vc(&g, &w, 3, 9);
        let all = vec![true; 10];
        let total: u64 = w.iter().sum();
        assert!(cover_holds(&vc, &all, total));
        assert!(!cover_holds(&vc, &all, total + 1), "inflated weight");
        assert!(!cover_holds(&vc, &all[..9], total - w[9]), "short cover");
        // Dropping both endpoints of one edge uncovers it.
        let mut holed = all.clone();
        let (_, u, v) = g.edge_iter().next().unwrap();
        holed[u] = false;
        holed[v] = false;
        assert!(!cover_holds(&vc, &holed, total - w[u] - w[v]), "uncovered edge");

        let inst = setcover::random_bounded(12, 8, 2, 3, WeightSpec::Uniform(20), 1);
        let sc = encode_sc(&inst, inst.f(), inst.k(), inst.max_weight());
        let subsets = vec![true; inst.n_subsets];
        let sw = inst.cover_weight(&subsets);
        assert!(cover_holds(&sc, &subsets, sw));
        assert!(!cover_holds(&sc, &subsets, sw + 1), "inflated weight");
        assert!(!cover_holds(&sc, &vec![false; inst.n_subsets], 0), "empty cover");
        // A vertex-cover reply checked against a set-cover blob fails on
        // its length, and garbage never decodes.
        assert!(!cover_holds(&sc, &all, total));
        assert!(!cover_holds(b"junk", &all, total));
    }

    #[test]
    fn fnv64_known_values() {
        // Pin the digest so accidental changes to the hash break loudly —
        // cached results are keyed by it.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }
}
