//! An independent max-abs time-warping oracle.
//!
//! Written from the paper's recurrence alone — it shares no code with
//! `tw_core::distance` — and used outside the timed window to brute-force a
//! few operations per run. Under the L∞ base distance the DP only subtracts,
//! takes absolute values and picks maxima/minima, none of which round, so
//! the oracle's distances must equal the engine's bit for bit.

/// `D_tw(s, q)` under the max-abs recurrence:
/// `D(i,j) = max(|s_i − q_j|, min(D(i−1,j), D(i,j−1), D(i−1,j−1)))`.
pub fn dtw_max_abs(s: &[f64], q: &[f64]) -> f64 {
    dtw_bounded(s, q, f64::INFINITY).unwrap_or(f64::INFINITY)
}

/// `Some(D_tw(s, q))` when it is at most `limit`, else `None`.
///
/// Two shortcuts, both properties of the definition rather than of any
/// implementation: every warping path contains the two corner cells, and DP
/// values never decrease along a path — so a corner above `limit`, or a
/// whole row above it, already decides the answer.
pub fn dtw_bounded(s: &[f64], q: &[f64], limit: f64) -> Option<f64> {
    let (first_s, last_s) = (*s.first()?, *s.last()?);
    let (first_q, last_q) = (*q.first()?, *q.last()?);
    if (first_s - first_q).abs() > limit || (last_s - last_q).abs() > limit {
        return None;
    }
    let mut prev = vec![f64::INFINITY; q.len()];
    let mut row = vec![f64::INFINITY; q.len()];
    for (i, &sv) in s.iter().enumerate() {
        let mut row_min = f64::INFINITY;
        for (j, &qv) in q.iter().enumerate() {
            let reach = if i == 0 && j == 0 {
                0.0
            } else {
                let up = prev[j];
                let left = if j > 0 { row[j - 1] } else { f64::INFINITY };
                let diag = if j > 0 { prev[j - 1] } else { f64::INFINITY };
                up.min(left).min(diag)
            };
            let cell = (sv - qv).abs().max(reach);
            row[j] = cell;
            row_min = row_min.min(cell);
        }
        if row_min > limit {
            return None;
        }
        std::mem::swap(&mut prev, &mut row);
        row.fill(f64::INFINITY);
    }
    let distance = *prev.last()?;
    (distance <= limit).then_some(distance)
}

/// Brute-force answers for a handful of operations, fed the corpus one
/// sequence at a time in id order.
pub enum Expect {
    Range {
        query: Vec<f64>,
        epsilon: f64,
        matches: Vec<(u64, f64)>,
    },
    Knn {
        query: Vec<f64>,
        k: usize,
        /// Ascending by `(distance, id)`, at most `k` long.
        best: Vec<(u64, f64)>,
    },
}

impl Expect {
    pub fn range(query: Vec<f64>, epsilon: f64) -> Self {
        Expect::Range {
            query,
            epsilon,
            matches: Vec::new(),
        }
    }

    pub fn knn(query: Vec<f64>, k: usize) -> Self {
        Expect::Knn {
            query,
            k,
            best: Vec::new(),
        }
    }

    pub fn visit(&mut self, id: u64, values: &[f64]) {
        match self {
            Expect::Range {
                query,
                epsilon,
                matches,
            } => {
                if let Some(d) = dtw_bounded(values, query, *epsilon) {
                    matches.push((id, d));
                }
            }
            Expect::Knn { query, k, best } => {
                // Anything farther than the current k-th best cannot enter.
                let limit = if best.len() == *k {
                    best.last().map_or(f64::INFINITY, |b| b.1)
                } else {
                    f64::INFINITY
                };
                if let Some(d) = dtw_bounded(values, query, limit) {
                    let pos = best.partition_point(|b| (b.1, b.0) < (d, id));
                    best.insert(pos, (id, d));
                    best.truncate(*k);
                }
            }
        }
    }

    /// The expected `(id, distance)` list: id order for a range query,
    /// distance order for kNN.
    pub fn answer(&self) -> &[(u64, f64)] {
        match self {
            Expect::Range { matches, .. } => matches,
            Expect::Knn { best, .. } => best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_distances() {
        // Warped copies are at distance 0; a constant offset is that offset.
        assert_eq!(
            dtw_max_abs(&[1.0, 2.0, 3.0], &[1.0, 1.0, 2.0, 3.0, 3.0]),
            0.0
        );
        assert_eq!(dtw_max_abs(&[1.0, 2.0, 3.0], &[1.5, 2.5, 3.5]), 0.5);
        assert_eq!(dtw_max_abs(&[0.0], &[4.0, -1.0]), 4.0);
        assert_eq!(dtw_max_abs(&[], &[1.0]), f64::INFINITY);
    }

    #[test]
    fn bounded_agrees_with_unbounded() {
        let s = [1.0, 3.0, 2.0, 5.0, 4.0];
        let q = [1.2, 2.6, 2.4, 4.9];
        let d = dtw_max_abs(&s, &q);
        assert_eq!(dtw_bounded(&s, &q, d), Some(d));
        assert_eq!(dtw_bounded(&s, &q, d + 1.0), Some(d));
        assert_eq!(dtw_bounded(&s, &q, d - 1e-9), None);
    }

    #[test]
    fn agrees_with_the_engine_kernel_bit_for_bit() {
        let mut state = 0x2001_0402_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2_000) as f64 / 1_000.0
        };
        for _ in 0..200 {
            let s: Vec<f64> = (0..17).map(|_| next()).collect();
            let q: Vec<f64> = (0..23).map(|_| next()).collect();
            let engine = tw_core::dtw(&s, &q, tw_core::DtwKind::MaxAbs).distance;
            assert_eq!(dtw_max_abs(&s, &q).to_bits(), engine.to_bits());
        }
    }

    #[test]
    fn knn_keeps_the_k_smallest_in_distance_order() {
        let mut expect = Expect::knn(vec![0.0, 0.0], 2);
        for (id, v) in [(0, 5.0), (1, 1.0), (2, 3.0), (3, 0.5)] {
            expect.visit(id, &[v, v]);
        }
        assert_eq!(expect.answer(), &[(3, 0.5), (1, 1.0)]);
    }
}
