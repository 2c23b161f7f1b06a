//! Distance functions: `L_p` on equal-length sequences and the time-warping
//! distance family (Definitions 1 and 2 of the paper).

mod band;
mod dtw;
mod lp;

pub use band::{dtw_banded, dtw_banded_governed, sakoe_chiba_width};
pub use dtw::{
    dtw, dtw_decide_governed, dtw_decide_lanes, dtw_with_path, dtw_within, dtw_within_governed,
    DtwOutcome, DtwResult, LANES,
};
pub use lp::{l1, l2, linf, lp};

/// Which time-warping recurrence is in effect.
///
/// For scalar elements every `L_p` *base* distance coincides with `|a - b|`;
/// what distinguishes the paper's Definition 1 from Definition 2 is how the
/// per-mapping distances are **aggregated** along the warping path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DtwKind {
    /// Definition 1 with `D_base = L1`: sum of `|a - b|` along the path.
    SumAbs,
    /// The common `L2` flavour: square root of the summed squared gaps.
    SumSquared,
    /// Definition 2 (`D_base = L∞`): maximum `|a - b|` along the path. The
    /// paper's similarity model (§4.1); tolerances become length-independent
    /// and early abandoning triggers on any single element pair.
    #[default]
    MaxAbs,
}

impl DtwKind {
    /// Human-readable name used by the experiment harness.
    pub fn name(self) -> &'static str {
        match self {
            DtwKind::SumAbs => "dtw-l1",
            DtwKind::SumSquared => "dtw-l2",
            DtwKind::MaxAbs => "dtw-linf",
        }
    }
}
