//! Subsequence matching (§6, "our method is easily applicable to subsequence
//! matching ... it builds the same index on the feature vectors from
//! subsequences rather than whole sequences").
//!
//! The index enumerates sliding windows of the configured lengths over every
//! stored sequence, extracts each window's 4-tuple feature vector — which is
//! as warping-invariant for a window as for a whole sequence — and stores the
//! `(sequence, offset, length)` triple packed into the R-tree's data id.
//! Queries run the same filter-and-verify loop as whole matching, over
//! windows.

use tw_rtree::{Point, RTree};
use tw_storage::{Pager, SeqId, SequenceStore};

use crate::distance::{dtw_within_governed, DtwKind};
use crate::error::TwError;
use crate::feature::FeatureVector;
use crate::govern::Termination;
use crate::search::pipeline::Scope;
use crate::search::{EngineOpts, SearchStats, TwSimSearch};
use crate::stats::{Phase, QueryStats};

/// Which windows to index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Smallest window length indexed.
    pub min_len: usize,
    /// Largest window length indexed.
    pub max_len: usize,
    /// Multiplicative step between indexed lengths (>= 1 adds every length;
    /// 2 indexes min, 2·min, 4·min, ...). Keeps the index size manageable:
    /// warping absorbs moderate length mismatch, so a geometric ladder of
    /// lengths suffices.
    pub length_step: usize,
    /// Offset stride between window starts (1 = every offset).
    pub offset_stride: usize,
}

impl WindowSpec {
    /// Validates the bounds.
    pub fn new(
        min_len: usize,
        max_len: usize,
        length_step: usize,
        offset_stride: usize,
    ) -> Result<Self, TwError> {
        if min_len == 0 || min_len > max_len || length_step == 0 || offset_stride == 0 {
            return Err(TwError::InvalidWindow { min_len, max_len });
        }
        Ok(Self {
            min_len,
            max_len,
            length_step,
            offset_stride,
        })
    }

    /// The ladder of window lengths this spec indexes.
    pub fn lengths(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut len = self.min_len;
        while len <= self.max_len {
            out.push(len);
            if self.length_step == 1 {
                len += 1;
            } else {
                len = len.saturating_mul(self.length_step);
            }
        }
        out
    }
}

/// A matched window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsequenceMatch {
    pub id: SeqId,
    pub offset: usize,
    pub len: usize,
    pub distance: f64,
}

/// Everything one subsequence query produced: matches plus the same
/// observability and governance surface the range engines report.
#[derive(Debug, Clone, Default)]
pub struct SubsequenceOutcome {
    /// Qualifying windows, sorted by `(id, offset, len)`.
    pub matches: Vec<SubsequenceMatch>,
    /// The legacy work accounting.
    pub stats: SearchStats,
    /// Per-phase observability breakdown; window proposals are the
    /// "candidates" and the accounting invariant holds over them.
    pub query_stats: QueryStats,
    /// Whether the query completed or was cut short by its budget.
    pub termination: Termination,
}

/// The subsequence-matching index.
#[derive(Debug, Clone)]
pub struct SubsequenceIndex {
    tree: RTree<4>,
    spec: WindowSpec,
    windows_indexed: usize,
}

// Packing of (sequence, offset, length) into the R-tree's u64 payload.
const SEQ_BITS: u32 = 24;
const OFF_BITS: u32 = 24;
const LEN_BITS: u32 = 16;

fn pack(id: SeqId, offset: usize, len: usize) -> u64 {
    assert!(id < (1 << SEQ_BITS), "sequence id {id} exceeds 24 bits");
    assert!(offset < (1 << OFF_BITS), "offset {offset} exceeds 24 bits");
    assert!(len < (1 << LEN_BITS), "window length {len} exceeds 16 bits");
    (id << (OFF_BITS + LEN_BITS)) | ((offset as u64) << LEN_BITS) | len as u64
}

fn unpack(word: u64) -> (SeqId, usize, usize) {
    let id = word >> (OFF_BITS + LEN_BITS);
    let offset = ((word >> LEN_BITS) & ((1 << OFF_BITS) - 1)) as usize;
    let len = (word & ((1 << LEN_BITS) - 1)) as usize;
    (id, offset, len)
}

impl SubsequenceIndex {
    /// Builds the window index over every sequence in the store.
    pub fn build<P: Pager>(store: &SequenceStore<P>, spec: WindowSpec) -> Result<Self, TwError> {
        let lengths = spec.lengths();
        let mut items: Vec<(Point<4>, u64)> = Vec::new();
        for (id, values) in store.scan()? {
            for &len in &lengths {
                if len > values.len() {
                    continue;
                }
                let mut offset = 0;
                while offset + len <= values.len() {
                    let feature = FeatureVector::from_values(&values[offset..offset + len]);
                    items.push((feature.as_point(), pack(id, offset, len)));
                    offset += spec.offset_stride;
                }
            }
        }
        store.take_io();
        let windows_indexed = items.len();
        Ok(Self {
            tree: RTree::bulk_load(TwSimSearch::paper_config(), items),
            spec,
            windows_indexed,
        })
    }

    /// Number of indexed windows.
    pub fn window_count(&self) -> usize {
        self.windows_indexed
    }

    /// The window specification the index was built with.
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// Finds indexed windows whose time-warping distance to `query` is within
    /// `epsilon`. Overlapping qualifying windows are all reported; callers
    /// wanting one hit per region can post-process.
    pub fn search<P: Pager>(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        kind: DtwKind,
    ) -> Result<(Vec<SubsequenceMatch>, SearchStats), TwError> {
        let outcome = self.search_governed(store, query, epsilon, &EngineOpts::new().kind(kind))?;
        Ok((outcome.matches, outcome.stats))
    }

    /// [`Self::search`] with the full option set: honours `opts.budget`
    /// (returning partial, still-exact matches with the corresponding
    /// [`Termination`]) and reports the per-phase [`QueryStats`] breakdown.
    pub fn search_governed<P: Pager>(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SubsequenceOutcome, TwError> {
        let mut scope = Scope::open(store, query, epsilon, opts)?;
        let (token, counters, stats) = (&scope.token, &scope.counters, &mut scope.stats);
        stats.db_size = self.windows_indexed;
        let q_point = FeatureVector::from_values(query).as_point();
        let range = counters.time(Phase::Filter, || {
            self.tree.range_centered(&q_point, epsilon)
        });
        stats.index_node_accesses = range.stats.node_accesses();
        stats.candidates = range.ids.len();
        counters.add_index_internal(range.stats.node_accesses());
        counters.add_candidates(range.ids.len() as u64);
        let total_windows = range.ids.len() as u64;

        // Group candidate windows per sequence so each sequence is read once.
        let mut by_seq: std::collections::BTreeMap<SeqId, Vec<(usize, usize)>> =
            std::collections::BTreeMap::new();
        for word in range.ids {
            let (id, offset, len) = unpack(word);
            by_seq.entry(id).or_default().push((offset, len));
        }

        let mut matches = Vec::new();
        let mut verified = 0u64;
        let mut abandoned = 0u64;
        'candidates: for (id, windows) in by_seq {
            if token.cancelled() {
                break;
            }
            let values = store.get(id)?;
            let _ = token.charge_candidate_bytes(std::mem::size_of_val(values.as_slice()) as u64);
            for (offset, len) in windows {
                if token.cancelled() {
                    break 'candidates;
                }
                let window = &values[offset..offset + len];
                let outcome = dtw_within_governed(window, query, opts.kind, epsilon, token);
                stats.dtw_cells += outcome.cells;
                counters.add_dtw_cells(outcome.cells);
                if outcome.cancelled {
                    continue;
                }
                stats.dtw_invocations += 1;
                if outcome.early_abandoned {
                    abandoned += 1;
                } else {
                    verified += 1;
                }
                if let Some(distance) = outcome.within {
                    matches.push(SubsequenceMatch {
                        id,
                        offset,
                        len,
                        distance,
                    });
                }
            }
        }
        counters.add_verified(verified);
        counters.add_abandoned(abandoned);
        // Every proposed window that never got a verdict — unreached or cut
        // mid-DTW — is skipped, keeping the accounting invariant balanced.
        counters.add_skipped_unverified(total_windows - (verified + abandoned));
        let out = scope.finish(Vec::new());
        Ok(SubsequenceOutcome {
            matches,
            stats: out.stats,
            query_stats: out.query_stats,
            termination: out.termination,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::dtw;
    use tw_storage::SequenceStore;

    fn store_with(data: &[Vec<f64>]) -> SequenceStore<tw_storage::MemPager> {
        let mut store = SequenceStore::in_memory();
        for s in data {
            store.append(s).unwrap();
        }
        store
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (id, off, len) in [(0u64, 0usize, 1usize), (77, 1000, 99), (9999, 123, 4000)] {
            assert_eq!(unpack(pack(id, off, len)), (id, off, len));
        }
    }

    #[test]
    fn finds_embedded_pattern() {
        let data = vec![
            vec![0.0, 0.1, 0.0, 7.0, 8.0, 9.0, 0.2, 0.1, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
        ];
        let store = store_with(&data);
        let spec = WindowSpec::new(2, 5, 1, 1).unwrap();
        let index = SubsequenceIndex::build(&store, spec).unwrap();
        let (matches, stats) = index
            .search(&store, &[7.0, 8.0, 9.0], 0.2, DtwKind::MaxAbs)
            .unwrap();
        assert!(matches
            .iter()
            .any(|m| m.id == 0 && m.offset == 3 && m.len == 3 && m.distance == 0.0));
        assert!(matches.iter().all(|m| m.id == 0));
        assert!(stats.candidates < index.window_count());
    }

    #[test]
    fn no_false_dismissal_vs_window_brute_force() {
        let data = vec![vec![3.0, 5.0, 5.2, 6.0, 9.0, 2.0, 5.1, 6.2, 3.3]];
        let store = store_with(&data);
        let spec = WindowSpec::new(2, 4, 1, 1).unwrap();
        let index = SubsequenceIndex::build(&store, spec).unwrap();
        let query = vec![5.0, 6.0];
        let eps = 0.3;
        let (matches, _) = index.search(&store, &query, eps, DtwKind::MaxAbs).unwrap();
        // Brute force over the same window universe.
        let s = &data[0];
        for len in 2..=4usize {
            for offset in 0..=(s.len() - len) {
                let d = dtw(&s[offset..offset + len], &query, DtwKind::MaxAbs).distance;
                if d <= eps {
                    assert!(
                        matches.iter().any(|m| m.offset == offset && m.len == len),
                        "window ({offset},{len}) with d={d} dismissed"
                    );
                }
            }
        }
    }

    #[test]
    fn geometric_length_ladder() {
        let spec = WindowSpec::new(4, 64, 2, 1).unwrap();
        assert_eq!(spec.lengths(), vec![4, 8, 16, 32, 64]);
        let dense = WindowSpec::new(2, 5, 1, 1).unwrap();
        assert_eq!(dense.lengths(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn stride_reduces_index_size() {
        let data = vec![(0..200).map(|i| (i % 13) as f64).collect::<Vec<f64>>()];
        let store = store_with(&data);
        let dense = SubsequenceIndex::build(&store, WindowSpec::new(8, 8, 1, 1).unwrap()).unwrap();
        let sparse = SubsequenceIndex::build(&store, WindowSpec::new(8, 8, 1, 4).unwrap()).unwrap();
        assert!(sparse.window_count() * 3 < dense.window_count());
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(WindowSpec::new(0, 5, 1, 1).is_err());
        assert!(WindowSpec::new(6, 5, 1, 1).is_err());
        assert!(WindowSpec::new(2, 5, 0, 1).is_err());
        assert!(WindowSpec::new(2, 5, 1, 0).is_err());
    }

    #[test]
    fn windows_longer_than_sequence_skipped() {
        let data = vec![vec![1.0, 2.0]];
        let store = store_with(&data);
        let index = SubsequenceIndex::build(&store, WindowSpec::new(5, 10, 1, 1).unwrap()).unwrap();
        assert_eq!(index.window_count(), 0);
        let (matches, _) = index.search(&store, &[1.0], 10.0, DtwKind::MaxAbs).unwrap();
        assert!(matches.is_empty());
    }
}
