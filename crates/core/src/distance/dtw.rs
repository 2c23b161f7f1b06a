//! The time-warping distance (Definitions 1 and 2), in three forms:
//!
//! * [`dtw`] — rolling one-column dynamic program, `O(min(|S|,|Q|))` memory;
//! * [`dtw_within`] / [`dtw_decide_lanes`] — early-abandoning variant that
//!   proves or disproves `D_tw <= epsilon` without necessarily completing
//!   the table (§4.1 of the paper explains why the L∞ recurrence abandons
//!   especially early), for one candidate or for many of one query;
//! * [`dtw_with_path`] — full-matrix variant recovering the optimal element
//!   mapping `M`, used by diagnostics and tests.
//!
//! Every thresholded decision runs through one kernel, [`lane_kernel`]: a
//! column-at-a-time DP over `L` equal-length candidates at once, `L` being
//! [`LANES`] for a full batch and 1 otherwise. The candidates are read
//! transposed (`[f64; L]` per row, the query value splatted), each lane is
//! an independent instance of the recurrence, and `min`/`max` are written
//! as compare-selects ([`fmin`]) because `f64::min` is not a hardware min.
//! The recurrence is monomorphized per [`DtwKind`] so the inner loop
//! carries no `match`.
//!
//! The ledger is per lane and unchanged from the scalar DP: a candidate's
//! cells are counted in whole columns of its own table while it is
//! undecided, the abandon check runs before the governor charge, and one
//! `charge_cells` per column covers the live lanes. What the kernel
//! computes in a lane that has already decided is not ledgered, so
//! verdicts, distances and `dtw_cells` are those of the naive DP run on
//! each pair alone, whatever the batch composition or thread count.
//! Inputs must be NaN-free: queries are validated at the read entry points
//! ([`crate::error::validate_query`]); stored `±inf` is tolerated.

use super::DtwKind;
use crate::govern::CancelToken;

/// Result of a full distance computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtwResult {
    /// The time-warping distance.
    pub distance: f64,
    /// DP cells computed (the CPU-cost unit the experiments report).
    pub cells: u64,
}

/// Result of a thresholded computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtwOutcome {
    /// `Some(d)` when `d <= epsilon`; `None` when the distance provably
    /// exceeds the tolerance (the exact value is then not computed).
    pub within: Option<f64>,
    /// DP cells computed before finishing or abandoning.
    pub cells: u64,
    /// `true` when the computation was cut short by early abandoning
    /// (a whole DP column exceeded the tolerance); `false` when it ran to
    /// completion, whatever the verdict.
    pub early_abandoned: bool,
    /// `true` when a query budget/deadline cancelled the computation before
    /// it could decide; `within` is then `None` but the candidate was *not*
    /// rejected — callers must ledger it as skipped, not pruned.
    pub cancelled: bool,
}

/// No cells computed, nothing decided.
const BLANK: DtwOutcome = DtwOutcome {
    within: None,
    cells: 0,
    early_abandoned: false,
    cancelled: false,
};

#[inline]
fn combine(kind: DtwKind, gap: f64, best_prev: f64) -> f64 {
    match kind {
        DtwKind::SumAbs => gap.abs() + best_prev,
        DtwKind::SumSquared => gap * gap + best_prev,
        DtwKind::MaxAbs => gap.abs().max(best_prev),
    }
}

#[inline]
fn finish(kind: DtwKind, raw: f64) -> f64 {
    match kind {
        DtwKind::SumSquared => raw.sqrt(),
        _ => raw,
    }
}

/// Converts a user tolerance into the internal accumulator scale.
#[inline]
fn threshold(kind: DtwKind, epsilon: f64) -> f64 {
    match kind {
        DtwKind::SumSquared => epsilon * epsilon,
        _ => epsilon,
    }
}

/// Compare-select minimum: `a < b ? a : b` is exactly what one hardware
/// `minsd`/`minpd` computes. `f64::min` is *not* that — it must return the
/// non-NaN operand, which lowers to a compare-and-blend sequence three times
/// as long on the DP's `left → min3 → step` dependency chain. The kernels'
/// contract is NaN-free inputs (queries are checked where they enter, stores
/// refuse NaN on append), and on those the two agree bit for bit.
#[inline(always)]
fn fmin(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Compare-select maximum; see [`fmin`].
#[inline(always)]
pub(crate) fn fmax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Three-way minimum over the DP predecessors: two compare-selects.
#[inline(always)]
pub(crate) fn min3(a: f64, b: f64, c: f64) -> f64 {
    fmin(fmin(a, b), c)
}

/// Dispatches `kind` to a monomorphized copy of a DP kernel: each arm hands
/// the kernel a concrete closure, hoisting the per-cell recurrence `match`
/// out of the inner loop entirely (the closures mirror [`combine`]).
macro_rules! dispatch_kind {
    ($kind:expr, |$step:ident| $call:expr) => {
        match $kind {
            DtwKind::SumAbs => {
                let $step = |gap: f64, best: f64| gap.abs() + best;
                $call
            }
            DtwKind::SumSquared => {
                let $step = |gap: f64, best: f64| gap * gap + best;
                $call
            }
            DtwKind::MaxAbs => {
                let $step = |gap: f64, best: f64| $crate::distance::dtw::fmax(gap.abs(), best);
                $call
            }
        }
    };
}
pub(crate) use dispatch_kind;

/// `f` applied lane by lane: the fixed-length loop the compiler vectorises.
#[inline(always)]
fn lanewise<const L: usize>(mut a: [f64; L], b: [f64; L], f: impl Fn(f64, f64) -> f64) -> [f64; L] {
    for (a, b) in a.iter_mut().zip(b) {
        *a = f(*a, b);
    }
    a
}

/// Candidates verified per DP sweep by [`dtw_decide_lanes`].
pub const LANES: usize = 8;

/// The thresholded DP over `L` independent lanes, one column at a time.
///
/// `rows` and `cols` yield element `i` of all `L` lanes at once: for the
/// candidates that is a transposed row, for the query the value splatted. Every lane runs the same recurrence on its own data, so the
/// per-lane loops vectorise and the lanes' `left → min3 → step` chains
/// overlap — inter-sequence SIMD in safe Rust, no feature detection. The
/// one working buffer pairs each row element with its DP cell: the cell
/// holds column `j-1` on entry to column `j` and is updated in place
/// (`diag`/`above` carry the two cells the overwrite would lose).
///
/// The ledger is kept per lane and is the scalar kernel's: while a lane is
/// undecided each column adds `|rows|` to its cells, then the lane abandons
/// if the column minimum exceeds `thr` (when `abandon` is set), and then one
/// `charge_cells` covers the lanes still live. Cells computed in a lane that
/// has already decided are not ledgered, so a lane's outcome depends only on
/// its own pair — not on which candidates share its batch. In the returned
/// outcomes `within` is still the raw accumulator of a completed lane
/// (pre-[`finish`], not yet compared with the tolerance).
fn lane_kernel<const L: usize>(
    rows: impl Iterator<Item = [f64; L]>,
    cols: impl Iterator<Item = [f64; L]>,
    thr: f64,
    abandon: bool,
    token: &CancelToken,
    step: impl Fn(f64, f64) -> f64,
) -> [DtwOutcome; L] {
    let mut col: Vec<([f64; L], [f64; L])> = rows.map(|r| (r, [f64::INFINITY; L])).collect();
    let m = col.len() as u64;
    let mut lanes = [BLANK; L];
    // The dp[0][0] boundary: 0 above the first column, +inf afterwards.
    let mut corner = [0.0f64; L];
    for c in cols {
        let mut diag = corner;
        let mut above = [f64::INFINITY; L];
        let mut col_min = [f64::INFINITY; L];
        for (r, slot) in &mut col {
            let left = *slot;
            let best = lanewise(lanewise(left, diag, fmin), above, fmin);
            above = lanewise(lanewise(*r, c, |r, c| r - c), best, &step);
            col_min = lanewise(col_min, above, fmin);
            diag = left;
            *slot = above;
        }
        corner = [f64::INFINITY; L];
        // Inside this loop a lane is live exactly while it has not abandoned.
        let mut charge = 0u64;
        for (lane, min) in lanes.iter_mut().zip(col_min) {
            if !lane.early_abandoned {
                lane.cells += m;
                if abandon && min > thr {
                    lane.early_abandoned = true;
                } else {
                    charge += m;
                }
            }
        }
        if charge == 0 {
            return lanes;
        }
        if token.charge_cells(charge) {
            for lane in lanes.iter_mut().filter(|lane| !lane.early_abandoned) {
                lane.cancelled = true;
            }
            return lanes;
        }
    }
    let last = col.last().map_or([f64::INFINITY; L], |(_, cell)| *cell);
    for (lane, raw) in lanes.iter_mut().zip(last) {
        if !lane.early_abandoned {
            lane.within = Some(raw);
        }
    }
    lanes
}

/// The time-warping distance between two sequences.
///
/// Empty inputs follow the paper's definition: both empty → 0, one empty →
/// `+∞`.
pub fn dtw(s: &[f64], q: &[f64], kind: DtwKind) -> DtwResult {
    // The decision kernel with nothing to decide: no tolerance, no cutoff.
    let unlimited = CancelToken::unlimited();
    let [outcome] = decide_batch([s], q, kind, f64::INFINITY, false, &unlimited);
    DtwResult {
        distance: outcome.within.unwrap_or(f64::INFINITY),
        cells: outcome.cells,
    }
}

/// Early-abandoning decision procedure for `D_tw(s, q) <= epsilon`.
///
/// Abandons as soon as every cell of the current column exceeds the
/// tolerance: DP values never decrease along a warping path under any
/// [`DtwKind`], so no extension can come back under `epsilon`.
pub fn dtw_within(s: &[f64], q: &[f64], kind: DtwKind, epsilon: f64) -> DtwOutcome {
    dtw_within_governed(s, q, kind, epsilon, &CancelToken::unlimited())
}

/// [`dtw_within`] under a query governor: each completed DP column charges
/// its cells against `token` and the computation stops — undecided, with
/// [`DtwOutcome::cancelled`] set — once the token trips. With an unlimited
/// token the behaviour (verdict *and* cell count) is identical to
/// [`dtw_within`].
pub fn dtw_within_governed(
    s: &[f64],
    q: &[f64],
    kind: DtwKind,
    epsilon: f64,
    token: &CancelToken,
) -> DtwOutcome {
    dtw_decide_governed(s, q, kind, epsilon, true, token)
}

/// [`dtw_within_governed`] with the early-abandon cutoff switchable.
///
/// With `early_abandon` set this is exactly [`dtw_within_governed`]. Without
/// it the DP always runs to completion (or cancellation): candidates are
/// then never `early_abandoned`, which the cascade exposes through
/// [`crate::bound::CascadeSpec::early_abandon`] for ablation runs.
pub fn dtw_decide_governed(
    s: &[f64],
    q: &[f64],
    kind: DtwKind,
    epsilon: f64,
    early_abandon: bool,
    token: &CancelToken,
) -> DtwOutcome {
    let [outcome] = decide_batch([s], q, kind, epsilon, early_abandon, token);
    outcome
}

/// [`dtw_decide_governed`] for many candidates of one query, [`LANES`]
/// equal-length candidates per DP sweep; `out[i]` is the outcome for
/// `candidates[i]`.
///
/// Candidates are grouped by length; each full group of [`LANES`] runs as
/// one batch and the leftovers run one by one, through the same kernel. An
/// outcome is bit-identical to what [`dtw_decide_governed`] returns for the
/// pair alone — only the trip point of a finite budget depends on the
/// grouping, since a batch charges its live lanes' cells together. The token
/// is polled before every sweep; once it trips, the candidates not yet
/// started come back `cancelled` with no cells.
pub fn dtw_decide_lanes(
    candidates: &[&[f64]],
    q: &[f64],
    kind: DtwKind,
    epsilon: f64,
    early_abandon: bool,
    token: &CancelToken,
) -> Vec<DtwOutcome> {
    let mut order: Vec<(usize, &[f64])> = candidates.iter().copied().enumerate().collect();
    order.sort_by_key(|(_, c)| c.len());
    // Outcomes in `order`'s order; a tripped token leaves the tail unstarted.
    let mut done: Vec<DtwOutcome> = Vec::with_capacity(order.len());
    'sweeps: for group in order.chunk_by(|a, b| a.1.len() == b.1.len()) {
        for batch in group.chunks(LANES) {
            match <[(usize, &[f64]); LANES]>::try_from(batch) {
                Ok(full) => {
                    if token.cancelled() {
                        break 'sweeps;
                    }
                    let lanes = full.map(|(_, c)| c);
                    done.extend(decide_batch(lanes, q, kind, epsilon, early_abandon, token));
                }
                Err(_) => {
                    for &(_, c) in batch {
                        if token.cancelled() {
                            break 'sweeps;
                        }
                        done.extend(decide_batch([c], q, kind, epsilon, early_abandon, token));
                    }
                }
            }
        }
    }
    let unstarted = DtwOutcome {
        cancelled: true,
        ..BLANK
    };
    let mut out = vec![unstarted; order.len()];
    for (&(i, _), outcome) in order.iter().zip(done) {
        if let Some(slot) = out.get_mut(i) {
            *slot = outcome;
        }
    }
    out
}

/// Decides `L` equal-length candidates against `q` in one [`lane_kernel`]
/// sweep. Rows are the shorter side, as in [`dtw`].
fn decide_batch<const L: usize>(
    lanes: [&[f64]; L],
    q: &[f64],
    kind: DtwKind,
    epsilon: f64,
    early_abandon: bool,
    token: &CancelToken,
) -> [DtwOutcome; L] {
    debug_assert!(epsilon >= 0.0);
    let n = lanes.first().map_or(0, |s| s.len());
    debug_assert!(lanes.iter().all(|s| s.len() == n));
    if n == 0 || q.is_empty() {
        // The paper's convention: both empty → 0, one empty → +∞.
        let within = (n == q.len()).then_some(0.0);
        return [DtwOutcome { within, ..BLANK }; L];
    }
    // The lanes read side by side: item `i` is element `i` of every lane.
    let mut iters = lanes.map(|s| s.iter());
    let cands = (0..n).map(move |_| {
        let mut row = [f64::NAN; L];
        for (slot, lane) in row.iter_mut().zip(&mut iters) {
            *slot = lane.next().copied().unwrap_or(f64::NAN);
        }
        row
    });
    let query = q.iter().map(|&v| [v; L]);
    let thr = threshold(kind, epsilon);
    let decisions = if n <= q.len() {
        dispatch_kind!(kind, |step| lane_kernel(
            cands,
            query,
            thr,
            early_abandon,
            token,
            step
        ))
    } else {
        dispatch_kind!(kind, |step| lane_kernel(
            query,
            cands,
            thr,
            early_abandon,
            token,
            step
        ))
    };
    decisions.map(|d| DtwOutcome {
        within: d
            .within
            .map(|raw| finish(kind, raw))
            .filter(|&dist| dist <= epsilon),
        ..d
    })
}

/// Full-matrix computation that also recovers the optimal warping path as
/// `(s index, q index)` element mappings (the paper's `M = <m_1 ... m_|M|>`).
pub fn dtw_with_path(s: &[f64], q: &[f64], kind: DtwKind) -> (DtwResult, Vec<(usize, usize)>) {
    if s.is_empty() || q.is_empty() {
        let distance = if s.len() == q.len() {
            0.0
        } else {
            f64::INFINITY
        };
        return (DtwResult { distance, cells: 0 }, Vec::new());
    }
    let (n, m) = (s.len(), q.len());
    // Row-by-row DP: each new row reads the previous one plus a running
    // `left`/`up_left` pair, so no cell is ever reached by raw indexing.
    let mut dp: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    let mut first = vec![f64::INFINITY; m + 1];
    if let Some(origin) = first.first_mut() {
        *origin = 0.0;
    }
    dp.push(first);
    for &sv in s {
        let mut row = vec![f64::INFINITY; m + 1];
        if let Some(prev) = dp.last() {
            let mut up_left = prev.first().copied().unwrap_or(f64::INFINITY);
            let mut left = f64::INFINITY;
            for ((qv, cell), up) in q
                .iter()
                .zip(row.iter_mut().skip(1))
                .zip(prev.iter().skip(1))
            {
                let best_prev = up.min(left).min(up_left);
                let val = combine(kind, sv - qv, best_prev);
                *cell = val;
                up_left = *up;
                left = val;
            }
        }
        dp.push(row);
    }
    let at = |i: usize, j: usize| {
        dp.get(i)
            .and_then(|row| row.get(j))
            .copied()
            .unwrap_or(f64::INFINITY)
    };
    // Backtrack the path (prefer the diagonal on ties: shortest mapping).
    let mut path = Vec::with_capacity(n + m);
    let (mut i, mut j) = (n, m);
    while i >= 1 && j >= 1 {
        path.push((i - 1, j - 1));
        if i == 1 && j == 1 {
            break;
        }
        let diag = at(i - 1, j - 1);
        let up = at(i - 1, j);
        let left = at(i, j - 1);
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    path.reverse();
    (
        DtwResult {
            distance: finish(kind, at(n, m)),
            cells: (n * m) as u64,
        },
        path,
    )
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Just;

    const KINDS: [DtwKind; 3] = [DtwKind::SumAbs, DtwKind::SumSquared, DtwKind::MaxAbs];

    #[test]
    fn paper_intro_example_warps_to_zero() {
        // §1: S and Q transform into the same stretched sequence, so their
        // time-warping distance is 0 under every kind.
        let s = [20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0, 23.0];
        let q = [20.0, 20.0, 21.0, 20.0, 23.0];
        for kind in KINDS {
            assert_eq!(dtw(&s, &q, kind).distance, 0.0, "{kind:?}");
        }
    }

    #[test]
    fn identity_zero_distance() {
        let s = [1.0, 5.0, 3.0, 3.0, 8.0];
        for kind in KINDS {
            assert_eq!(dtw(&s, &s, kind).distance, 0.0, "{kind:?}");
        }
    }

    #[test]
    fn symmetry() {
        let s = [1.0, 2.0, 9.0, 4.0];
        let q = [2.0, 8.0, 5.0];
        for kind in KINDS {
            let a = dtw(&s, &q, kind).distance;
            let b = dtw(&q, &s, kind).distance;
            assert!((a - b).abs() < 1e-12, "{kind:?}: {a} vs {b}");
        }
    }

    #[test]
    fn empty_sequence_conventions() {
        for kind in KINDS {
            assert_eq!(dtw(&[], &[], kind).distance, 0.0);
            assert_eq!(dtw(&[1.0], &[], kind).distance, f64::INFINITY);
            assert_eq!(dtw(&[], &[1.0], kind).distance, f64::INFINITY);
        }
    }

    #[test]
    fn single_elements() {
        assert_eq!(dtw(&[3.0], &[7.0], DtwKind::SumAbs).distance, 4.0);
        assert_eq!(dtw(&[3.0], &[7.0], DtwKind::MaxAbs).distance, 4.0);
        assert_eq!(dtw(&[3.0], &[7.0], DtwKind::SumSquared).distance, 4.0);
    }

    #[test]
    fn hand_computed_small_case() {
        let s = [0.0, 10.0];
        let q = [0.0, 0.0, 10.0];
        // Path: (0,0)(0,1)(1,2) with gaps 0,0,0 — warping absorbs the
        // repeated 0.
        for kind in KINDS {
            assert_eq!(dtw(&s, &q, kind).distance, 0.0, "{kind:?}");
        }
        // Shifted case forces a non-zero gap somewhere.
        let q2 = [1.0, 1.0, 10.0];
        assert_eq!(dtw(&s, &q2, DtwKind::MaxAbs).distance, 1.0);
        assert_eq!(dtw(&s, &q2, DtwKind::SumAbs).distance, 2.0);
    }

    #[test]
    fn max_kind_is_max_over_optimal_path() {
        // §4.1: D_tw(S,Q) = max over the best mapping's element distances.
        let s = [0.0, 5.0, 9.0];
        let q = [1.0, 5.5, 8.0];
        let (res, path) = dtw_with_path(&s, &q, DtwKind::MaxAbs);
        let path_max = path
            .iter()
            .map(|&(i, j)| (s[i] - q[j]).abs())
            .fold(0.0, f64::max);
        assert!((res.distance - path_max).abs() < 1e-12);
        assert_eq!(res.distance, 1.0); // pairs (0,1),(5,5.5),(9,8) -> max 1.0
    }

    #[test]
    fn additive_kind_matches_matrix_version() {
        let s = [1.0, 3.0, 2.0, 8.0, 9.0, 2.0];
        let q = [1.0, 2.0, 8.5, 2.5];
        for kind in KINDS {
            let rolled = dtw(&s, &q, kind);
            let (full, path) = dtw_with_path(&s, &q, kind);
            assert!((rolled.distance - full.distance).abs() < 1e-12, "{kind:?}");
            assert!(!path.is_empty());
            // Path is monotone and starts/ends at corners.
            assert_eq!(path[0], (0, 0));
            assert_eq!(*path.last().unwrap(), (s.len() - 1, q.len() - 1));
            for w in path.windows(2) {
                let (di, dj) = (w[1].0 - w[0].0, w[1].1 - w[0].1);
                assert!(di <= 1 && dj <= 1 && di + dj >= 1);
            }
        }
    }

    #[test]
    fn dtw_within_agrees_with_exact() {
        let s = [2.0, 4.0, 6.0, 8.0];
        let q = [2.5, 4.5, 8.5];
        for kind in KINDS {
            let exact = dtw(&s, &q, kind).distance;
            // Just above the distance: accepted with the same value.
            let hit = dtw_within(&s, &q, kind, exact + 1e-9);
            assert!(hit.within.is_some(), "{kind:?}");
            assert!((hit.within.unwrap() - exact).abs() < 1e-9);
            // Just below: rejected.
            let miss = dtw_within(&s, &q, kind, (exact - 1e-9).max(0.0));
            if exact > 0.0 {
                assert!(miss.within.is_none(), "{kind:?}");
            }
        }
    }

    #[test]
    fn dtw_within_abandons_early_on_distant_pairs() {
        // Two far-apart long sequences: abandonment should happen in the
        // first few columns, far below the full |S|*|Q| cell count.
        let s: Vec<f64> = (0..500).map(|i| i as f64 * 0.01).collect();
        let q: Vec<f64> = (0..500).map(|i| 100.0 + i as f64 * 0.01).collect();
        let full_cells = (s.len() * q.len()) as u64;
        for kind in KINDS {
            let out = dtw_within(&s, &q, kind, 0.5);
            assert!(out.within.is_none());
            assert!(out.early_abandoned, "{kind:?} should abandon");
            assert!(
                out.cells <= full_cells / 100,
                "{kind:?}: {} cells",
                out.cells
            );
        }
    }

    #[test]
    fn early_abandoned_flag_is_false_on_completion() {
        let s = [2.0, 4.0, 6.0];
        let q = [2.5, 4.5, 6.5];
        for kind in KINDS {
            // Generous tolerance: runs to completion and accepts.
            let hit = dtw_within(&s, &q, kind, 100.0);
            assert!(hit.within.is_some());
            assert!(!hit.early_abandoned, "{kind:?}");
        }
        // Empty input: trivially complete, never abandoned.
        let empty = dtw_within(&[], &[1.0], DtwKind::MaxAbs, 1.0);
        assert!(empty.within.is_none());
        assert!(!empty.early_abandoned);
    }

    #[test]
    fn cells_counted() {
        let s = [1.0; 7];
        let q = [1.0; 11];
        let res = dtw(&s, &q, DtwKind::MaxAbs);
        assert_eq!(res.cells, 77);
    }

    #[test]
    fn linf_tolerance_is_length_independent() {
        // §4.1's motivation: under MaxAbs a uniform +delta shift yields
        // distance delta regardless of length; under SumAbs it scales with
        // length.
        for len in [10usize, 100] {
            let s: Vec<f64> = (0..len).map(|i| (i as f64 * 0.3).sin()).collect();
            let q: Vec<f64> = s.iter().map(|v| v + 0.25).collect();
            let dmax = dtw(&s, &q, DtwKind::MaxAbs).distance;
            assert!((dmax - 0.25).abs() < 1e-9, "len {len}: {dmax}");
        }
        let s10: Vec<f64> = (0..10).map(|i| (i as f64 * 0.3).sin()).collect();
        let q10: Vec<f64> = s10.iter().map(|v| v + 0.25).collect();
        let s100: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let q100: Vec<f64> = s100.iter().map(|v| v + 0.25).collect();
        let d10 = dtw(&s10, &q10, DtwKind::SumAbs).distance;
        let d100 = dtw(&s100, &q100, DtwKind::SumAbs).distance;
        assert!(d100 > 5.0 * d10);
    }

    /// The naive column-at-a-time thresholded DP with `std`'s `min`/`max`:
    /// the one oracle. The lane kernel must reproduce its verdict, cell
    /// ledger and flags bit for bit, whatever the batch around a candidate.
    fn reference_decide(
        s: &[f64],
        q: &[f64],
        kind: DtwKind,
        epsilon: f64,
        token: &CancelToken,
    ) -> DtwOutcome {
        let mut out = DtwOutcome {
            within: None,
            cells: 0,
            early_abandoned: false,
            cancelled: false,
        };
        if s.is_empty() || q.is_empty() {
            out.within = (s.len() == q.len()).then_some(0.0);
            return out;
        }
        let (rows, cols) = if s.len() <= q.len() { (s, q) } else { (q, s) };
        let thr = threshold(kind, epsilon);
        let m = rows.len();
        let mut prev = vec![f64::INFINITY; m];
        let mut corner = 0.0f64;
        for &c in cols {
            let mut cur = Vec::with_capacity(m);
            for (i, &r) in rows.iter().enumerate() {
                let up_left = if i == 0 { corner } else { prev[i - 1] };
                let left = if i == 0 { f64::INFINITY } else { cur[i - 1] };
                cur.push(combine(kind, r - c, prev[i].min(up_left).min(left)));
            }
            out.cells += m as u64;
            if cur.iter().copied().fold(f64::INFINITY, f64::min) > thr {
                out.early_abandoned = true;
                return out;
            }
            if token.charge_cells(m as u64) {
                out.cancelled = true;
                return out;
            }
            corner = f64::INFINITY;
            prev = cur;
        }
        out.within = Some(finish(kind, prev[m - 1])).filter(|&d| d <= epsilon);
        out
    }

    fn assert_same(got: &DtwOutcome, want: &DtwOutcome, what: &str) {
        assert_eq!(
            got.within.map(f64::to_bits),
            want.within.map(f64::to_bits),
            "within: {what}"
        );
        assert_eq!(got.cells, want.cells, "cells: {what}");
        assert_eq!(
            got.early_abandoned, want.early_abandoned,
            "abandoned: {what}"
        );
        assert_eq!(got.cancelled, want.cancelled, "cancelled: {what}");
    }

    fn pseudo_seq(len: usize, salt: u64) -> Vec<f64> {
        // Deterministic, aperiodic data with enough spread to exercise both
        // accepting and abandoning paths.
        (0..len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(2654435761).wrapping_add(salt);
                ((x % 1000) as f64) / 61.0 + (i as f64 * 0.37).sin()
            })
            .collect()
    }

    /// Stored values on a quarter grid, so distances tie exactly, with the
    /// occasional ±inf a store may hold (queries are finite by contract).
    fn stored_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            60 => (-12i32..=12).prop_map(|k| f64::from(k) * 0.25),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(150))]

        /// One chunk of 1..=17 candidates over up to three lengths — full
        /// batches, leftovers, `n < m` and `n > m` together — against the
        /// oracle run on each pair alone.
        #[test]
        fn lanes_match_reference_bit_for_bit(
            lens in prop::collection::vec(1usize..=12, 3),
            batch in prop::collection::vec(
                (0usize..3, prop::collection::vec(stored_value(), 12)),
                1..=17,
            ),
            q in prop::collection::vec((-12i32..=12).prop_map(|k| f64::from(k) * 0.25), 1..=12),
            eps_pick in 0usize..4,
            tie_with in 0usize..17,
        ) {
            let cands: Vec<&[f64]> = batch.iter().map(|(l, v)| &v[..lens[*l]]).collect();
            let unlimited = CancelToken::unlimited();
            for kind in KINDS {
                // ε on an exact tie: some candidate's own distance.
                let tie = dtw(cands[tie_with % cands.len()], &q, kind).distance;
                let eps = [0.0, 0.5, 1e6, if tie.is_finite() { tie } else { 0.25 }][eps_pick];
                let got = dtw_decide_lanes(&cands, &q, kind, eps, true, &unlimited);
                prop_assert_eq!(got.len(), cands.len());
                for (i, (g, c)) in got.iter().zip(&cands).enumerate() {
                    let want = reference_decide(c, &q, kind, eps, &unlimited);
                    assert_same(g, &want, &format!("{kind:?} eps={eps} cand {i}"));
                    let alone = dtw_within(c, &q, kind, eps);
                    assert_same(&alone, &want, &format!("{kind:?} eps={eps} cand {i} alone"));
                }
            }
        }
    }

    #[test]
    fn full_batches_of_long_sequences_match_reference() {
        // Sixteen same-length candidates (two full batches) per shape, long
        // enough that lanes abandon at different columns of one sweep.
        for (n, m) in [(40usize, 40usize), (23, 31), (31, 23)] {
            let q = pseudo_seq(m, 1031);
            let cands: Vec<Vec<f64>> = (0..16).map(|i| pseudo_seq(n, 17 + 977 * i)).collect();
            let refs: Vec<&[f64]> = cands.iter().map(Vec::as_slice).collect();
            let unlimited = CancelToken::unlimited();
            for kind in KINDS {
                for eps in [0.0, 2.0, 9.0, 14.0, 1e6] {
                    let got = dtw_decide_lanes(&refs, &q, kind, eps, true, &unlimited);
                    for (g, c) in got.iter().zip(&refs) {
                        let want = reference_decide(c, &q, kind, eps, &unlimited);
                        assert_same(g, &want, &format!("{kind:?} n={n} m={m} eps={eps}"));
                    }
                }
            }
        }
    }

    #[test]
    fn early_abandon_off_completes_every_lane() {
        let q = pseudo_seq(9, 3);
        let cands: Vec<Vec<f64>> = (0..11).map(|i| pseudo_seq(9, 50 * i)).collect();
        let refs: Vec<&[f64]> = cands.iter().map(Vec::as_slice).collect();
        for kind in KINDS {
            let got = dtw_decide_lanes(&refs, &q, kind, 0.0, false, &CancelToken::unlimited());
            assert!(got
                .iter()
                .all(|o| o.cells == 81 && !o.early_abandoned && !o.cancelled));
        }
    }

    fn budget(max_cells: u64) -> CancelToken {
        CancelToken::builder(std::sync::Arc::new(crate::govern::SystemClock::new()))
            .max_cells(max_cells)
            .build()
    }

    #[test]
    fn budget_trip_matches_reference() {
        let s = pseudo_seq(19, 5);
        let q = pseudo_seq(11, 7);
        let full_cells = (s.len() * q.len()) as u64;
        for kind in KINDS {
            for max_cells in [1u64, 10, 33, 80, full_cells, full_cells + 1] {
                let got = dtw_within_governed(&s, &q, kind, 1e9, &budget(max_cells));
                let want = reference_decide(&s, &q, kind, 1e9, &budget(max_cells));
                assert_same(&got, &want, &format!("{kind:?} budget={max_cells}"));
            }
        }
    }

    #[test]
    fn budget_tripping_mid_batch_cancels_only_the_live_lanes() {
        // Eight lanes, 10 rows: lane 0 abandons in column 1, the rest run
        // on. A column charges 10 cells per live lane, so 7 live lanes trip
        // a 100-cell budget in column 2.
        let q = vec![0.0; 10];
        let far = vec![50.0; 10];
        let near = vec![0.25; 10];
        let mut cands: Vec<&[f64]> = vec![&near; 8];
        cands[0] = &far;
        let token = budget(100);
        let got = dtw_decide_lanes(&cands, &q, DtwKind::MaxAbs, 1.0, true, &token);
        assert!(got[0].early_abandoned && !got[0].cancelled);
        assert_eq!(got[0].cells, 10);
        for lane in &got[1..] {
            assert!(lane.cancelled && !lane.early_abandoned && lane.within.is_none());
            assert_eq!(lane.cells, 20);
        }
        // A tripped token starts nothing more.
        let after = dtw_decide_lanes(&cands, &q, DtwKind::MaxAbs, 1.0, true, &token);
        assert!(after.iter().all(|o| o.cancelled && o.cells == 0));
    }

    #[test]
    fn triangular_inequality_fails_for_dtw() {
        // The premise of the whole paper (Yi et al.'s observation): D_tw is
        // not a metric. Classic witness with repeated elements.
        let x = [0.0];
        let y = [0.0, 2.0];
        let z = [2.0, 2.0, 2.0];
        let k = DtwKind::SumAbs;
        let xz = dtw(&x, &z, k).distance; // 6 (0 maps to all three 2s)
        let xy = dtw(&x, &y, k).distance; // 2
        let yz = dtw(&y, &z, k).distance; // 2
        assert!(xz > xy + yz + 1e-12, "{xz} <= {xy} + {yz}");
    }
}
