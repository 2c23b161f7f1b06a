//! # tw-storage — paged sequence storage with a 2001-era disk cost model
//!
//! The storage substrate of the TW-Sim-Search reproduction:
//!
//! * [`Pager`] — fixed-size page backends ([`MemPager`], [`FilePager`]);
//! * [`BufferPool`] — an LRU page cache with hit/miss counters;
//! * [`SequenceStore`] — the sequence database itself: variable-length
//!   numeric sequences appended to a heap of 1 KB pages, supporting random
//!   `get` (the candidate reads of Algorithm 1, Step 5) and full sequential
//!   `scan` (Naive-Scan / LB-Scan);
//! * [`DiskModel`] / [`IoProfile`] — a cost model pricing page accesses with
//!   the paper's disk constants (9.5 ms seek, §5.1) so experiments can report
//!   disk-bound elapsed times on modern hardware.
//!
//! ## Example
//!
//! ```
//! use tw_storage::{DiskModel, SequenceStore};
//!
//! let mut store = SequenceStore::in_memory();
//! let id = store.append(&[20.0, 21.0, 21.0, 20.0, 23.0]).unwrap();
//! assert_eq!(store.get(id).unwrap(), vec![20.0, 21.0, 21.0, 20.0, 23.0]);
//!
//! // Price the I/O this access performed on the paper's disk.
//! let elapsed = DiskModel::icde2001().elapsed(&store.take_io());
//! assert!(elapsed.as_micros() > 0);
//! ```

#![forbid(unsafe_code)]

mod buffer;
mod checksum;
mod codec;
mod convert;
mod cost;
mod envelope;
mod fault;
mod govern;
mod openfile;
mod pager;
mod retry;
mod seqstore;
mod shard;
mod wal;

pub use buffer::{BufferPool, BufferStats};
pub use checksum::{crc32, ChecksumPager, Crc32, PAGE_FORMAT_CRC, TRAILER_BYTES};
pub use codec::{
    decode_record_slice, encode_record, encode_record_fmt, encode_record_to_bytes,
    encode_record_to_bytes_v2, encode_record_v2, encoded_len, CodecError, Record, RecordFormat,
    MAX_RECORD_ELEMS, RECORD_HEADER_BYTES, RECORD_HEADER_BYTES_V2,
};
pub use cost::{CpuModel, DiskModel, HardwareModel, IoProfile};
pub use envelope::{lemire_envelope, EnvelopeEntry, EnvelopeError, EnvelopeSidecar};
pub use fault::{FaultConfig, FaultHandle, FaultKind, FaultPager, FaultStats};
pub use govern::{CancelCause, CancelToken, CancelTokenBuilder, Clock, ManualClock, SystemClock};
pub use openfile::{
    create_sequence_file, create_sequence_file_shared, open_sequence_file,
    open_sequence_file_shared, DynSequenceStore, SharedSequenceStore, SyncPager,
};
pub use pager::{FilePager, MemPager, Pager, PagerError, DEFAULT_PAGE_SIZE, PAGE_FORMAT_PLAIN};
pub use retry::{RetryPager, RetryPolicy};
pub use seqstore::{GovernorGuard, RecoveryReport, SeqId, SequenceStore, StoreError};
pub use shard::{
    create_shard_segment, manifest_path, open_shard_segment, rtree_path, segment_path,
    sidecar_path, SegmentPager, SegmentStore, ShardEntry, ShardError, ShardManifest,
};
pub use wal::{
    create_wal_file, open_or_create_wal_file, open_wal_file, DynWal, Wal, WalRecord,
    WalRecoveryReport, WAL_FEATURE_DIMS,
};
