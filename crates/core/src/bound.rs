//! The tiered lower-bound cascade: one first-class pruning API for every
//! engine.
//!
//! The paper's thesis is that cheap lower bounds prune expensive time-warp
//! verification. This module turns the repo's historically ad-hoc bound
//! calls into a composable pipeline:
//!
//! * [`LowerBound`] — one pruning tier: given a [`PreparedQuery`] and a
//!   [`Candidate`], produce a proven lower bound on the verification
//!   distance (or `None` when the tier does not apply);
//! * [`BoundCascade`] — an ordered sequence of tiers, cheapest first, built
//!   once per query. Each candidate is checked tier by tier and either
//!   `Pruned { tier }` by the first bound exceeding ε or `Pass`ed to DTW;
//! * [`CascadeSpec`] — the builder engines receive through
//!   [`crate::search::EngineOpts`]: which tiers, an optional Sakoe–Chiba
//!   band ratio, the early-abandon switch, and optional ingest-time
//!   candidate envelopes ([`EnvelopeSidecar`]).
//!
//! ## Tiers, ordered by cost
//!
//! | tier | cost per candidate | bound |
//! |------|--------------------|-------|
//! | [`BoundTier::Kim`] | O(n) (O(1) with sidecar) | L∞ over the 4-tuple features (`D_tw-lb`, Definition 3) |
//! | [`BoundTier::Yi`] | O(n) | range-gap bound of Yi et al. |
//! | [`BoundTier::Keogh`] | O(n) | envelope bound of Keogh (symmetric when a candidate envelope is stored) |
//! | [`BoundTier::Improved`] | O(n), two passes | Lemire's LB_Improved |
//!
//! ## Soundness
//!
//! Every tier lower-bounds the distance the verifier actually computes, so
//! pruning never dismisses a true match:
//!
//! * Kim and Yi lower-bound the *unconstrained* distance, which the banded
//!   distance upper-bounds — sound under either verify mode.
//! * Envelope tiers (Keogh, Improved) are built at the verification band
//!   width: full-width envelopes under [`VerifyMode::Exact`] (the envelope
//!   degenerates to the value range, still a valid bound for unconstrained
//!   DTW), band-width envelopes under [`VerifyMode::Banded`]. An envelope
//!   of half-width `w` admits every aligned pair `|i - j| <= w`, hence
//!   lower-bounds any DTW whose paths are so constrained.
//! * LB_Improved's second pass charges the query against the envelope of
//!   `h`, the projection of the candidate onto the query envelope. For any
//!   admissible pair `(s_i, q_j)`: `|s_i - q_j| >= |s_i - h_i| + |h_i -
//!   q_j|` holds *with equality of the split* when `s_i` lies outside the
//!   envelope (the gap decomposes through the clamped value), so the two
//!   passes add for the additive kinds, their squares add under
//!   `SumSquared`, and each pass independently bounds the `MaxAbs` path
//!   maximum — giving `lb_keogh <= lb_improved <= D_tw` by construction.

use std::sync::Arc;

use tw_storage::{lemire_envelope, EnvelopeEntry, EnvelopeSidecar, SeqId};

use crate::distance::{sakoe_chiba_width, DtwKind};
use crate::feature::FeatureVector;
use crate::search::VerifyMode;

/// The pruning tiers, in ascending cost order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoundTier {
    /// `D_tw-lb`: L∞ over the 4-tuple feature vectors (the paper's bound).
    Kim,
    /// Yi et al.'s range-gap bound (the LB-Scan filter).
    Yi,
    /// Keogh's envelope bound.
    Keogh,
    /// Lemire's two-pass LB_Improved.
    Improved,
}

impl BoundTier {
    /// Every tier, cheapest first — the default cascade order.
    pub const ALL: [BoundTier; 4] = [
        BoundTier::Kim,
        BoundTier::Yi,
        BoundTier::Keogh,
        BoundTier::Improved,
    ];

    /// Stable name used in stats tables and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            BoundTier::Kim => "lb_kim",
            BoundTier::Yi => "lb_yi",
            BoundTier::Keogh => "lb_keogh",
            BoundTier::Improved => "lb_improved",
        }
    }

    /// Instantiates the tier's [`LowerBound`] implementation.
    pub fn bound(self) -> Box<dyn LowerBound> {
        match self {
            BoundTier::Kim => Box::new(KimBound),
            BoundTier::Yi => Box::new(YiBound),
            BoundTier::Keogh => Box::new(KeoghBound),
            BoundTier::Improved => Box::new(ImprovedBound),
        }
    }
}

/// What the cascade decided for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadeDecision {
    /// A tier's bound exceeded ε: the candidate provably cannot match.
    Pruned {
        /// The tier whose bound fired (for per-tier accounting).
        tier: BoundTier,
    },
    /// No tier could exclude the candidate; it proceeds to verification.
    Pass,
}

/// The query-side envelope (Lemire streaming min/max), computed once per
/// query: `lower[i] = min(q[i-w ..= i+w])`, `upper` likewise, `band = None`
/// meaning full width.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEnvelope {
    /// Per-position window minimum of the query.
    pub lower: Vec<f64>,
    /// Per-position window maximum of the query.
    pub upper: Vec<f64>,
    /// The Sakoe–Chiba half-width the envelope was built for.
    pub band: Option<usize>,
}

impl QueryEnvelope {
    /// Builds the envelope in O(|query|) regardless of band width.
    pub fn new(query: &[f64], band: Option<usize>) -> Self {
        let (lower, upper) = lemire_envelope(query, band);
        QueryEnvelope { lower, upper, band }
    }
}

/// Everything the tiers need from the query, derived once per query by
/// [`BoundCascade::prepare`]: the values, the recurrence, the 4-tuple
/// feature (absent for an empty query), the value range, and the envelope.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    values: Vec<f64>,
    kind: DtwKind,
    feature: Option<FeatureVector>,
    range: (f64, f64),
    envelope: QueryEnvelope,
}

impl PreparedQuery {
    /// Prepares `query` for cascade evaluation at the given envelope band.
    pub fn new(query: &[f64], kind: DtwKind, band: Option<usize>) -> Self {
        let feature = (!query.is_empty()).then(|| FeatureVector::from_values(query));
        PreparedQuery {
            values: query.to_vec(),
            kind,
            feature,
            range: min_max(query),
            envelope: QueryEnvelope::new(query, band),
        }
    }

    /// The query values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The recurrence the bounds must stay under.
    pub fn kind(&self) -> DtwKind {
        self.kind
    }

    /// The 4-tuple feature; `None` for an empty query.
    pub fn feature(&self) -> Option<&FeatureVector> {
        self.feature.as_ref()
    }

    /// `(min, max)` of the query values (`(+∞, -∞)` when empty).
    pub fn range(&self) -> (f64, f64) {
        self.range
    }

    /// The once-per-query envelope.
    pub fn envelope(&self) -> &QueryEnvelope {
        &self.envelope
    }
}

/// One candidate as the tiers see it: the raw values plus — when the
/// sidecar has a band-matched entry — its ingest-time feature and envelope.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// The candidate's sequence id.
    pub id: SeqId,
    /// The candidate's values.
    pub values: &'a [f64],
    /// Ingest-time feature + envelope, if precomputed at a matching band.
    pub precomputed: Option<&'a EnvelopeEntry>,
}

/// One pruning tier: a proven lower bound on the verification distance.
///
/// `evaluate` returns `None` when the tier cannot bound this pair (e.g. the
/// envelope tiers on unequal lengths) — the cascade then falls through to
/// the next tier, never guessing.
pub trait LowerBound: Send + Sync {
    /// Which tier this bound implements (for cost ordering and accounting).
    fn tier(&self) -> BoundTier;

    /// Stable display name.
    fn name(&self) -> &'static str {
        self.tier().name()
    }

    /// A lower bound on the verification distance between `candidate` and
    /// the prepared query, in the distance's own scale; `None` when the
    /// bound does not apply to this pair.
    fn evaluate(&self, query: &PreparedQuery, candidate: &Candidate<'_>) -> Option<f64>;
}

/// The paper's `D_tw-lb` as a cascade tier.
pub struct KimBound;

impl LowerBound for KimBound {
    fn tier(&self) -> BoundTier {
        BoundTier::Kim
    }

    fn evaluate(&self, query: &PreparedQuery, candidate: &Candidate<'_>) -> Option<f64> {
        let feature = query.feature()?;
        if candidate.values.is_empty() {
            // An empty sequence is at infinite distance from a non-empty
            // query under every kind; prune it here at the cheapest tier.
            return Some(f64::INFINITY);
        }
        let cand = match candidate.precomputed {
            Some(entry) => {
                let [first, last, greatest, smallest] = entry.feature;
                FeatureVector {
                    first,
                    last,
                    greatest,
                    smallest,
                }
            }
            None => FeatureVector::from_values(candidate.values),
        };
        Some(cand.lb_distance(feature))
    }
}

/// Yi et al.'s range-gap bound as a cascade tier.
pub struct YiBound;

impl LowerBound for YiBound {
    fn tier(&self) -> BoundTier {
        BoundTier::Yi
    }

    fn evaluate(&self, query: &PreparedQuery, candidate: &Candidate<'_>) -> Option<f64> {
        Some(yi_value(candidate.values, query.values(), query.kind()))
    }
}

/// Keogh's envelope bound as a cascade tier. When the candidate's own
/// envelope was precomputed at ingest, the symmetric direction (query
/// charged against the candidate envelope) is also evaluated and the larger
/// — each direction is independently sound — is returned.
pub struct KeoghBound;

impl LowerBound for KeoghBound {
    fn tier(&self) -> BoundTier {
        BoundTier::Keogh
    }

    fn evaluate(&self, query: &PreparedQuery, candidate: &Candidate<'_>) -> Option<f64> {
        let q = query.values();
        if candidate.values.len() != q.len() || q.is_empty() {
            return None;
        }
        let env = query.envelope();
        let mut raw = charge_raw(candidate.values, &env.lower, &env.upper, query.kind());
        if let Some(entry) = candidate.precomputed {
            raw = raw.max(charge_raw(q, &entry.lower, &entry.upper, query.kind()));
        }
        Some(finish(query.kind(), raw))
    }
}

/// Lemire's two-pass LB_Improved as a cascade tier.
pub struct ImprovedBound;

impl LowerBound for ImprovedBound {
    fn tier(&self) -> BoundTier {
        BoundTier::Improved
    }

    fn evaluate(&self, query: &PreparedQuery, candidate: &Candidate<'_>) -> Option<f64> {
        let q = query.values();
        if candidate.values.len() != q.len() || q.is_empty() {
            return None;
        }
        let env = query.envelope();
        Some(improved_value(
            candidate.values,
            q,
            &env.lower,
            &env.upper,
            env.band,
            query.kind(),
        ))
    }
}

/// Which tiers run, at which band, with which kernel switches — the
/// cascade's builder, carried by [`crate::search::EngineOpts`].
///
/// `Default` is the full standard cascade ([`CascadeSpec::standard`]);
/// [`CascadeSpec::none`] starts empty for hand-picked tier sets.
#[derive(Debug, Clone)]
pub struct CascadeSpec {
    /// Tiers to evaluate, in the given order (keep cheapest first).
    pub tiers: Vec<BoundTier>,
    /// When set, verification itself switches to a Sakoe–Chiba band of this
    /// ratio of the query length (see [`sakoe_chiba_width`]) and the
    /// envelope tiers are built at that width. `None` keeps the engine's
    /// [`VerifyMode`] — and full-width envelopes under exact verification,
    /// preserving exactness.
    pub band_ratio: Option<f64>,
    /// Whether verification DTW may abandon early against ε (default on;
    /// off forces complete DPs, for ablations).
    pub early_abandon: bool,
    /// Ingest-time candidate envelopes; entries are used only when their
    /// band matches the cascade's effective band.
    pub envelopes: Option<Arc<EnvelopeSidecar>>,
}

impl CascadeSpec {
    /// An empty spec: no tiers, exact-mode band, early abandon on.
    pub fn none() -> Self {
        CascadeSpec {
            tiers: Vec::new(),
            band_ratio: None,
            early_abandon: true,
            envelopes: None,
        }
    }

    /// The standard cascade: every tier, cheapest first.
    pub fn standard() -> Self {
        CascadeSpec::none().tiers(&BoundTier::ALL)
    }

    /// Appends one tier (ignored if already present).
    pub fn tier(mut self, tier: BoundTier) -> Self {
        if !self.tiers.contains(&tier) {
            self.tiers.push(tier);
        }
        self
    }

    /// Appends each tier in order (duplicates ignored).
    pub fn tiers(mut self, tiers: &[BoundTier]) -> Self {
        for &t in tiers {
            self = self.tier(t);
        }
        self
    }

    /// Switches verification to a Sakoe–Chiba band covering `ratio` of the
    /// query length. Banded verification upper-bounds the exact distance,
    /// so results are a subset of the exact answer — an explicit accuracy
    /// trade, as with [`VerifyMode::Banded`].
    ///
    /// # Panics
    /// Panics unless `0.0 <= ratio <= 1.0`.
    pub fn band_ratio(mut self, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "band ratio must be in [0, 1]");
        self.band_ratio = Some(ratio);
        self
    }

    /// Toggles the verifier's early-abandon cutoff.
    pub fn early_abandon(mut self, on: bool) -> Self {
        self.early_abandon = on;
        self
    }

    /// Supplies ingest-time candidate envelopes.
    pub fn envelopes(mut self, sidecar: Arc<EnvelopeSidecar>) -> Self {
        self.envelopes = Some(sidecar);
        self
    }
}

impl Default for CascadeSpec {
    fn default() -> Self {
        CascadeSpec::standard()
    }
}

/// A [`CascadeSpec`] compiled against one concrete query: owns the prepared
/// query (feature, range, envelope — each computed exactly once) and the
/// tier chain, and judges candidates via [`BoundCascade::check`].
pub struct BoundCascade {
    tiers: Vec<Box<dyn LowerBound>>,
    query: PreparedQuery,
    verify: VerifyMode,
    early_abandon: bool,
    envelopes: Option<Arc<EnvelopeSidecar>>,
}

impl std::fmt::Debug for BoundCascade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundCascade")
            .field("tiers", &self.tier_order())
            .field("verify", &self.verify)
            .field("early_abandon", &self.early_abandon)
            .field("envelopes", &self.envelopes.is_some())
            .finish_non_exhaustive()
    }
}

impl BoundCascade {
    /// Compiles `spec` for `query`. The effective verify mode is the
    /// engine's, unless the spec carries a band ratio; the envelope band
    /// follows the effective mode (full width under exact verification — see
    /// the module's soundness notes).
    pub fn prepare(spec: &CascadeSpec, query: &[f64], kind: DtwKind, verify: VerifyMode) -> Self {
        let verify = match spec.band_ratio {
            Some(r) => VerifyMode::Banded(sakoe_chiba_width(query.len(), query.len(), r)),
            None => verify,
        };
        let band = match verify {
            VerifyMode::Exact => None,
            VerifyMode::Banded(w) => Some(w),
        };
        BoundCascade {
            tiers: spec.tiers.iter().map(|t| t.bound()).collect(),
            query: PreparedQuery::new(query, kind, band),
            verify,
            early_abandon: spec.early_abandon,
            envelopes: spec.envelopes.clone(),
        }
    }

    /// The verify mode candidates that pass the cascade must be checked
    /// under (the engine's, or the band the spec demanded).
    pub fn verify_mode(&self) -> VerifyMode {
        self.verify
    }

    /// Whether verification DTW may abandon early.
    pub fn early_abandon(&self) -> bool {
        self.early_abandon
    }

    /// The prepared query the tiers evaluate against.
    pub fn query(&self) -> &PreparedQuery {
        &self.query
    }

    /// The tier order in effect.
    pub fn tier_order(&self) -> Vec<BoundTier> {
        self.tiers.iter().map(|t| t.tier()).collect()
    }

    /// Judges one candidate: the first tier whose bound exceeds `epsilon`
    /// prunes it; a candidate no tier can exclude passes to verification.
    pub fn check(&self, id: SeqId, values: &[f64], epsilon: f64) -> CascadeDecision {
        let precomputed = self
            .envelopes
            .as_deref()
            .filter(|sc| sc.band() == self.query.envelope().band)
            .and_then(|sc| sc.get(id))
            .filter(|e| e.lower.len() == values.len());
        let candidate = Candidate {
            id,
            values,
            precomputed,
        };
        for tier in &self.tiers {
            if let Some(lb) = tier.evaluate(&self.query, &candidate) {
                if lb > epsilon {
                    return CascadeDecision::Pruned { tier: tier.tier() };
                }
            }
        }
        CascadeDecision::Pass
    }
}

/// Lemire's LB_Improved as a free function for equal-length sequences under
/// a Sakoe–Chiba half-width `w` (compare [`KeoghBound`]): Keogh's
/// charge of `s` against the envelope of `q`, plus the charge of `q`
/// against the envelope of `h`, the projection of `s` onto `q`'s envelope.
/// Lower-bounds the banded distance of the same width, and dominates
/// Keogh's bound by construction.
///
/// # Panics
/// Panics when lengths differ.
pub fn lb_improved(s: &[f64], q: &[f64], kind: DtwKind, w: usize) -> f64 {
    assert_eq!(
        s.len(),
        q.len(),
        "LB_Improved requires equal lengths ({} vs {})",
        s.len(),
        q.len()
    );
    if s.is_empty() {
        return 0.0;
    }
    let (lower, upper) = lemire_envelope(q, Some(w));
    improved_value(s, q, &lower, &upper, Some(w), kind)
}

/// Distance of `v` to the interval `[lo, hi]`.
#[inline]
fn range_gap(v: f64, lo: f64, hi: f64) -> f64 {
    if v > hi {
        v - hi
    } else if v < lo {
        lo - v
    } else {
        0.0
    }
}

/// Charges `seq` against an envelope, returning the raw accumulator of the
/// kind (gap sum, squared-gap sum, or gap max) — pre-[`finish`].
fn charge_raw(seq: &[f64], lower: &[f64], upper: &[f64], kind: DtwKind) -> f64 {
    let mut acc = 0.0f64;
    for ((&v, &lo), &hi) in seq.iter().zip(lower).zip(upper) {
        let gap = range_gap(v, lo, hi);
        match kind {
            DtwKind::SumAbs => acc += gap,
            DtwKind::SumSquared => acc += gap * gap,
            DtwKind::MaxAbs => acc = acc.max(gap),
        }
    }
    acc
}

/// Converts a raw accumulator back to the distance scale.
#[inline]
fn finish(kind: DtwKind, raw: f64) -> f64 {
    match kind {
        DtwKind::SumSquared => raw.sqrt(),
        _ => raw,
    }
}

/// `(min, max)` of a slice (`(+∞, -∞)` when empty).
fn min_max(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (lo, hi)
}

/// Yi et al.'s bound for the given recurrence (see [`YiBound`]).
pub(crate) fn yi_value(s: &[f64], q: &[f64], kind: DtwKind) -> f64 {
    let (q_min, q_max) = min_max(q);
    let (s_min, s_max) = min_max(s);
    match kind {
        DtwKind::SumAbs => {
            let from_s: f64 = s.iter().map(|&v| range_gap(v, q_min, q_max)).sum();
            let from_q: f64 = q.iter().map(|&v| range_gap(v, s_min, s_max)).sum();
            from_s.max(from_q)
        }
        // Sum of squares >= square of the max gap; bound in original scale.
        DtwKind::SumSquared | DtwKind::MaxAbs => {
            let from_s = s
                .iter()
                .map(|&v| range_gap(v, q_min, q_max))
                .fold(0.0, f64::max);
            let from_q = q
                .iter()
                .map(|&v| range_gap(v, s_min, s_max))
                .fold(0.0, f64::max);
            from_s.max(from_q)
        }
    }
}

/// The two-pass LB_Improved core: pass 1 charges `s` against `q`'s
/// envelope while building the projection `h`; pass 2 charges `q` against
/// `h`'s envelope (same band). Combination per kind follows the pairwise
/// decomposition `|s_i - q_j| >= |s_i - h_i| + |h_i - q_j|`.
pub(crate) fn improved_value(
    s: &[f64],
    q: &[f64],
    q_lower: &[f64],
    q_upper: &[f64],
    band: Option<usize>,
    kind: DtwKind,
) -> f64 {
    let mut raw1 = 0.0f64;
    let mut h = Vec::with_capacity(s.len());
    for ((&v, &lo), &hi) in s.iter().zip(q_lower).zip(q_upper) {
        let gap = range_gap(v, lo, hi);
        match kind {
            DtwKind::SumAbs => raw1 += gap,
            DtwKind::SumSquared => raw1 += gap * gap,
            DtwKind::MaxAbs => raw1 = raw1.max(gap),
        }
        h.push(v.min(hi).max(lo));
    }
    let (h_lower, h_upper) = lemire_envelope(&h, band);
    let raw2 = charge_raw(q, &h_lower, &h_upper, kind);
    match kind {
        DtwKind::SumAbs => raw1 + raw2,
        DtwKind::SumSquared => (raw1 + raw2).sqrt(),
        DtwKind::MaxAbs => raw1.max(raw2),
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::*;
    use crate::distance::{dtw, dtw_banded};

    const KINDS: [DtwKind; 3] = [DtwKind::SumAbs, DtwKind::SumSquared, DtwKind::MaxAbs];

    fn pseudo_random_seq(seed: u64, len: usize, scale: f64) -> Vec<f64> {
        let mut state = seed.max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 10_000) as f64 / 10_000.0 * scale
            })
            .collect()
    }

    /// One tier's bound on `s` against `q`, evaluated as the cascade does.
    fn bound_of(tier: BoundTier, s: &[f64], q: &[f64], kind: DtwKind, band: Option<usize>) -> f64 {
        let candidate = Candidate {
            id: 0,
            values: s,
            precomputed: None,
        };
        tier.bound()
            .evaluate(&PreparedQuery::new(q, kind, band), &candidate)
            .expect("the tier applies")
    }

    #[test]
    fn each_tier_pins_its_known_answers() {
        let kim = |s: &[f64], q: &[f64]| bound_of(BoundTier::Kim, s, q, DtwKind::MaxAbs, None);
        let yi = |s: &[f64], q: &[f64], kind| bound_of(BoundTier::Yi, s, q, kind, None);
        // Kim, case 1 of Theorem 1's proof: disjoint ranges. Every feature
        // gap is 10, and so is the distance.
        let (s, q) = ([10.0, 11.0, 12.0], [0.0, 1.0, 2.0]);
        assert_eq!(kim(&s, &q), 10.0);
        assert_eq!(dtw(&s, &q, DtwKind::MaxAbs).distance, 10.0);
        // Kim is blind to warping: a replicated pair has no feature gap.
        let s = [20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0, 23.0];
        assert_eq!(kim(&s, &[20.0, 20.0, 21.0, 20.0, 23.0]), 0.0);
        // Yi sees only value ranges: coinciding ranges give zero, and one
        // query element 0.75 below the candidate's range is charged alone.
        let s = [1.0, 5.0, 3.0];
        assert_eq!(yi(&s, &[1.5, 5.0, 1.0, 4.0], DtwKind::SumAbs), 0.0);
        assert_eq!(yi(&s, &[1.5, 5.0, 1.0, 4.0], DtwKind::MaxAbs), 0.0);
        assert_eq!(yi(&s, &[1.5, 5.0, 0.25, 4.0], DtwKind::SumAbs), 0.75);
        // Two candidate elements 4 above the query's max: the sum counts
        // both outliers, the max one.
        let (s, q) = ([10.0, 10.0, 0.0], [0.0, 6.0]);
        assert_eq!(yi(&s, &q, DtwKind::SumAbs), 8.0);
        assert_eq!(yi(&s, &q, DtwKind::MaxAbs), 4.0);
        // Shifted endpoints over equal ranges: Kim is strictly tighter.
        let (s, q) = ([0.0, 5.0, 0.0], [5.0, 0.0, 5.0]);
        assert_eq!(yi(&s, &q, DtwKind::MaxAbs), 0.0);
        assert_eq!(kim(&s, &q), 5.0);
        // Keogh at band width 0 is the pointwise distance.
        let (s, q) = ([1.0, 2.0, 3.0], [1.5, 2.0, 2.0]);
        let keogh = |kind| bound_of(BoundTier::Keogh, &s, &q, kind, Some(0));
        assert_eq!(keogh(DtwKind::SumAbs), 1.5);
        assert_eq!(keogh(DtwKind::MaxAbs), 1.0);
    }

    #[test]
    fn lb_improved_dominates_lb_keogh_and_stays_under_banded_dtw() {
        for seed in 1..30u64 {
            let n = 16 + (seed % 24) as usize;
            let s = pseudo_random_seq(seed, n, 3.0);
            let q = pseudo_random_seq(seed * 31 + 7, n, 3.0);
            for w in [0usize, 2, 5, n] {
                for kind in KINDS {
                    let keogh = bound_of(BoundTier::Keogh, &s, &q, kind, Some(w));
                    let improved = lb_improved(&s, &q, kind, w);
                    let d = dtw_banded(&s, &q, kind, w).distance;
                    assert!(
                        keogh <= improved + 1e-9,
                        "{kind:?} seed {seed} w {w}: keogh {keogh} > improved {improved}"
                    );
                    assert!(
                        improved <= d + 1e-9,
                        "{kind:?} seed {seed} w {w}: improved {improved} > banded {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_width_improved_dominates_yi() {
        // The reason the cascade prunes more than LB-Scan even under exact
        // verification: pass 2 charges the query against the intersection
        // of the two value ranges, which is at least Yi's from-query term.
        for seed in 1..30u64 {
            let n = 10 + (seed % 20) as usize;
            let s = pseudo_random_seq(seed, n, 4.0);
            let q = pseudo_random_seq(seed * 13 + 5, n, 6.0);
            for kind in KINDS {
                let yi = yi_value(&s, &q, kind);
                let (lower, upper) = lemire_envelope(&q, None);
                let improved = improved_value(&s, &q, &lower, &upper, None, kind);
                let d = dtw(&s, &q, kind).distance;
                assert!(
                    yi <= improved + 1e-9,
                    "{kind:?} seed {seed}: yi {yi} > improved {improved}"
                );
                assert!(
                    improved <= d + 1e-9,
                    "{kind:?} seed {seed}: improved {improved} > dtw {d}"
                );
            }
        }
    }

    #[test]
    fn tiers_never_exceed_the_exact_distance_under_exact_mode() {
        // Every tier of the standard cascade, as the cascade itself
        // evaluates it, stays below the unconstrained distance.
        for seed in 1..25u64 {
            let n = 12 + (seed % 12) as usize;
            let s = pseudo_random_seq(seed, n, 5.0);
            let q = pseudo_random_seq(seed * 17 + 3, n, 5.0);
            for kind in KINDS {
                let cascade =
                    BoundCascade::prepare(&CascadeSpec::standard(), &q, kind, VerifyMode::Exact);
                let d = dtw(&s, &q, kind).distance;
                let candidate = Candidate {
                    id: 0,
                    values: &s,
                    precomputed: None,
                };
                for tier in BoundTier::ALL {
                    if let Some(lb) = tier.bound().evaluate(cascade.query(), &candidate) {
                        assert!(
                            lb <= d + 1e-9,
                            "{kind:?} seed {seed} {}: {lb} > {d}",
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn check_attributes_the_prune_to_the_firing_tier() {
        let q = vec![0.0, 1.0, 0.5, 0.2];
        // Far outside the query's range: Kim fires first.
        let cascade = BoundCascade::prepare(
            &CascadeSpec::standard(),
            &q,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        assert_eq!(
            cascade.check(0, &[50.0, 51.0, 52.0, 53.0], 0.5),
            CascadeDecision::Pruned {
                tier: BoundTier::Kim
            }
        );
        // Identical sequence: nothing can prune it.
        assert_eq!(cascade.check(1, &q, 0.5), CascadeDecision::Pass);
        // Without the cheap tiers, the envelope tier takes the credit.
        let keogh_only = BoundCascade::prepare(
            &CascadeSpec::none().tier(BoundTier::Keogh),
            &q,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        assert_eq!(
            keogh_only.check(0, &[50.0, 51.0, 52.0, 53.0], 0.5),
            CascadeDecision::Pruned {
                tier: BoundTier::Keogh
            }
        );
    }

    #[test]
    fn empty_candidate_is_pruned_by_kim() {
        let cascade = BoundCascade::prepare(
            &CascadeSpec::standard(),
            &[1.0, 2.0],
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        assert_eq!(
            cascade.check(0, &[], 1e18),
            CascadeDecision::Pruned {
                tier: BoundTier::Kim
            }
        );
    }

    #[test]
    fn unequal_lengths_skip_envelope_tiers() {
        let q = vec![0.0, 0.0, 0.0];
        let cascade = BoundCascade::prepare(
            &CascadeSpec::none().tiers(&[BoundTier::Keogh, BoundTier::Improved]),
            &q,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        // Length 2 vs 3: envelope tiers don't apply; candidate passes even
        // though it is far away — soundness over aggression.
        assert_eq!(
            cascade.check(0, &[100.0, 100.0], 0.5),
            CascadeDecision::Pass
        );
    }

    #[test]
    fn cascade_never_prunes_a_true_match() {
        for seed in 1..40u64 {
            let n = 8 + (seed % 16) as usize;
            let q = pseudo_random_seq(seed * 3 + 1, n, 2.0);
            let s = pseudo_random_seq(seed * 5 + 2, n, 2.0);
            for kind in KINDS {
                for verify in [VerifyMode::Exact, VerifyMode::Banded(3)] {
                    let cascade = BoundCascade::prepare(&CascadeSpec::standard(), &q, kind, verify);
                    let d = match verify {
                        VerifyMode::Exact => dtw(&s, &q, kind).distance,
                        VerifyMode::Banded(w) => dtw_banded(&s, &q, kind, w).distance,
                    };
                    for eps in [0.1, 0.5, 2.0] {
                        if let CascadeDecision::Pruned { tier } = cascade.check(0, &s, eps) {
                            assert!(
                                d > eps,
                                "{kind:?} {verify:?} seed {seed}: {} pruned a match at {d} <= {eps}",
                                tier.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sidecar_envelopes_tighten_but_stay_sound() {
        use tw_storage::SequenceStore;
        let mut store = SequenceStore::in_memory();
        let mut data = Vec::new();
        for seed in 1..12u64 {
            let s = pseudo_random_seq(seed, 14, 3.0);
            store.append(&s).expect("append");
            data.push(s);
        }
        let sidecar = Arc::new(EnvelopeSidecar::build(&store, None).expect("sidecar"));
        let q = pseudo_random_seq(99, 14, 3.0);
        let with = BoundCascade::prepare(
            &CascadeSpec::standard().envelopes(sidecar.clone()),
            &q,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        let without = BoundCascade::prepare(
            &CascadeSpec::standard(),
            &q,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        for (id, s) in data.iter().enumerate() {
            let d = dtw(s, &q, DtwKind::MaxAbs).distance;
            for eps in [0.2, 0.8, 1.5] {
                let dec = with.check(id as SeqId, s, eps);
                if let CascadeDecision::Pruned { .. } = dec {
                    assert!(d > eps, "sidecar pruned a true match: {d} <= {eps}");
                }
                // Anything the plain cascade prunes, the sidecar-armed one
                // prunes too (possibly at an earlier/cheaper tier).
                if let CascadeDecision::Pruned { .. } = without.check(id as SeqId, s, eps) {
                    assert!(matches!(dec, CascadeDecision::Pruned { .. }));
                }
            }
        }
    }

    #[test]
    fn sidecar_with_mismatched_band_is_ignored() {
        use tw_storage::SequenceStore;
        let mut store = SequenceStore::in_memory();
        store.append(&[0.0, 0.0, 0.0]).expect("append");
        // Sidecar at band 1, cascade at full width: entries must not be used
        // (a narrow envelope would be unsound for exact verification).
        let sidecar = Arc::new(EnvelopeSidecar::build(&store, Some(1)).expect("sidecar"));
        let q = vec![0.0, 0.0, 0.0];
        let cascade = BoundCascade::prepare(
            &CascadeSpec::standard().envelopes(sidecar),
            &q,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        assert_eq!(
            cascade.check(0, &[0.0, 0.0, 0.0], 0.5),
            CascadeDecision::Pass
        );
    }

    #[test]
    fn band_ratio_overrides_the_verify_mode() {
        let q = vec![0.0; 20];
        let spec = CascadeSpec::standard().band_ratio(0.1);
        let cascade = BoundCascade::prepare(&spec, &q, DtwKind::MaxAbs, VerifyMode::Exact);
        assert_eq!(cascade.verify_mode(), VerifyMode::Banded(2));
        assert_eq!(cascade.query().envelope().band, Some(2));
        let plain = BoundCascade::prepare(
            &CascadeSpec::standard(),
            &q,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        assert_eq!(plain.verify_mode(), VerifyMode::Exact);
        assert_eq!(plain.query().envelope().band, None);
    }

    #[test]
    fn spec_builder_composes() {
        let spec = CascadeSpec::none()
            .tier(BoundTier::Kim)
            .tier(BoundTier::Kim) // duplicate ignored
            .tiers(&[BoundTier::Improved])
            .early_abandon(false);
        assert_eq!(spec.tiers, vec![BoundTier::Kim, BoundTier::Improved]);
        assert!(!spec.early_abandon);
        assert!(spec.band_ratio.is_none());
        let standard = CascadeSpec::default();
        assert_eq!(standard.tiers, BoundTier::ALL.to_vec());
        assert!(standard.early_abandon);
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(BoundTier::Kim.name(), "lb_kim");
        assert_eq!(BoundTier::Yi.name(), "lb_yi");
        assert_eq!(BoundTier::Keogh.name(), "lb_keogh");
        assert_eq!(BoundTier::Improved.name(), "lb_improved");
        for tier in BoundTier::ALL {
            assert_eq!(tier.bound().tier(), tier);
            assert_eq!(tier.bound().name(), tier.name());
        }
    }

    #[test]
    fn query_envelope_brackets_the_query() {
        let q = pseudo_random_seq(7, 25, 4.0);
        for band in [None, Some(0), Some(3)] {
            let env = QueryEnvelope::new(&q, band);
            assert_eq!(env.band, band);
            for ((&lo, &hi), &v) in env.lower.iter().zip(&env.upper).zip(&q) {
                assert!(lo <= v && v <= hi);
            }
        }
    }
}
