//! Hand-rolled argument parsing (the workspace's dependency policy keeps
//! `clap` out; the grammar is small enough for a direct parser).

use std::path::PathBuf;

/// A fully parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Generate {
        kind: DataKind,
        count: usize,
        len: usize,
        seed: u64,
        out: PathBuf,
    },
    Index {
        db: PathBuf,
        out: PathBuf,
    },
    Info {
        db: PathBuf,
        index: Option<PathBuf>,
    },
    Query {
        db: PathBuf,
        index: Option<PathBuf>,
        epsilon: f64,
        source: QuerySource,
        knn: Option<usize>,
        /// Print the per-phase pipeline counter table after the results.
        stats: bool,
        /// Wall-clock budget; the query returns partial results at expiry.
        deadline_ms: Option<u64>,
        /// DTW-cell budget; refinement stops once this much work is spent.
        max_cells: Option<u64>,
    },
    Align {
        db: PathBuf,
        a: u64,
        b: u64,
    },
    Subseq {
        db: PathBuf,
        epsilon: f64,
        values: Vec<f64>,
        min_len: usize,
        max_len: usize,
    },
    VerifyStore {
        db: PathBuf,
        index: Option<PathBuf>,
        /// With a WAL path, also audit the write-ahead log: committed
        /// records, discarded torn tail, and how many acknowledged appends
        /// a recovery would replay into the store.
        wal: Option<PathBuf>,
    },
    /// Serve a store (flat file or sharded corpus directory) over the
    /// TWNP binary protocol.
    Serve {
        db: PathBuf,
        index: Option<PathBuf>,
        /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free one).
        addr: String,
        /// Per-tenant concurrent-query limit.
        max_concurrent: usize,
        /// Per-tenant admission-queue bound; beyond it requests are shed.
        max_queued: usize,
        /// Drain (graceful shutdown) after this long; absent = run until
        /// killed.
        drain_after_ms: Option<u64>,
    },
    /// Send one query to a running `serve` instance and print its typed
    /// reply.
    NetQuery {
        addr: String,
        /// Range query tolerance; exactly one of `epsilon`/`knn` is set.
        epsilon: Option<f64>,
        knn: Option<u32>,
        values: Vec<f64>,
        tenant: u32,
        deadline_ms: Option<u64>,
        max_cells: Option<u64>,
        stats: bool,
    },
    Ingest {
        db: PathBuf,
        /// WAL path (required unless `--shards` selects the sharded path).
        wal: Option<PathBuf>,
        /// Index path (required unless `--shards` selects the sharded path).
        index: Option<PathBuf>,
        /// Sharded corpus ingest: split the run into this many shards under
        /// the `--db` directory (per-shard segment, R-tree and sidecar,
        /// manifest committed last). Mutually exclusive with the WAL path.
        shards: Option<usize>,
        kind: DataKind,
        /// Sequences to generate and append; 0 = open/recover only.
        count: usize,
        len: usize,
        seed: u64,
        /// Fold the tail into the base store + index every N appends
        /// (a final checkpoint always runs).
        checkpoint_every: Option<usize>,
        /// Concurrent reader threads snapshot-querying while the writer
        /// appends.
        readers: usize,
        /// Read sequences from stdin (one comma-separated line each)
        /// instead of generating them; each acknowledged append prints
        /// `acked <id>`.
        follow: bool,
    },
    Help,
}

/// Which generator fills a new database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    Walk,
    Stock,
    Cbf,
}

/// Where the query sequence comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySource {
    /// Comma-separated literal values.
    Values(Vec<f64>),
    /// A stored sequence used as the query.
    FromId(u64),
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage text printed by `twsearch help`.
pub const USAGE: &str = "\
twsearch — similarity search supporting time warping (ICDE 2001 reproduction)

USAGE:
  twsearch generate --kind walk|stock|cbf --count N --len L [--seed S] --out DB
  twsearch index    --db DB --out INDEX
  twsearch info     --db DB [--index INDEX]
  twsearch query    --db DB [--index INDEX] --eps E (--values v1,v2,... | --from-id N) [--knn K] [--stats] [--deadline-ms MS] [--max-cells N]
  twsearch align    --db DB --a ID --b ID
  twsearch subseq   --db DB --eps E --values v1,v2,... [--min-len N] [--max-len N]
  twsearch verify-store --db DB [--index INDEX] [--wal WAL]
  twsearch ingest   --db DB --wal WAL --index INDEX (--count N --len L [--kind walk|stock|cbf] [--seed S] | --follow) [--checkpoint-every N] [--readers N]
  twsearch ingest   --db DIR --shards N --count C --len L [--kind walk|stock|cbf] [--seed S]   (sharded corpus; query it with --db DIR)
  twsearch serve    --db DB|DIR [--index INDEX] --addr HOST:PORT [--max-concurrent N] [--max-queued N] [--drain-after-ms MS]
  twsearch net-query --addr HOST:PORT (--eps E | --knn K) --values v1,v2,... [--tenant T] [--deadline-ms MS] [--max-cells N] [--stats]
  twsearch help";

struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, ParseError> {
        Self::parse_with_switches(args, &[])
    }

    /// Parses `--flag value` pairs; names listed in `switches` are boolean
    /// and take no value.
    fn parse_with_switches(args: &[String], switches: &[&str]) -> Result<Self, ParseError> {
        let mut pairs = Vec::new();
        let mut seen_switches = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(ParseError(format!("unexpected argument '{flag}'")));
            };
            if switches.contains(&name) {
                seen_switches.push(name.to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| ParseError(format!("--{name} needs a value")))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Self {
            pairs,
            switches: seen_switches,
        })
    }

    fn take_switch(&mut self, name: &str) -> bool {
        let before = self.switches.len();
        self.switches.retain(|n| n != name);
        self.switches.len() != before
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let pos = self.pairs.iter().position(|(n, _)| n == name)?;
        Some(self.pairs.remove(pos).1)
    }

    fn require(&mut self, name: &str) -> Result<String, ParseError> {
        self.take(name)
            .ok_or_else(|| ParseError(format!("missing required flag --{name}")))
    }

    fn finish(self) -> Result<(), ParseError> {
        if let Some((name, _)) = self.pairs.into_iter().next() {
            return Err(ParseError(format!("unknown flag --{name}")));
        }
        Ok(())
    }
}

fn parse_num<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, ParseError> {
    raw.parse()
        .map_err(|_| ParseError(format!("--{name}: cannot parse '{raw}'")))
}

/// Parses the full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((verb, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match verb.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let mut flags = Flags::parse(rest)?;
            let kind = match flags.require("kind")?.as_str() {
                "walk" => DataKind::Walk,
                "stock" => DataKind::Stock,
                "cbf" => DataKind::Cbf,
                other => return Err(ParseError(format!("unknown data kind '{other}'"))),
            };
            let count = parse_num("count", &flags.require("count")?)?;
            let len = parse_num("len", &flags.require("len")?)?;
            let seed = match flags.take("seed") {
                Some(raw) => parse_num("seed", &raw)?,
                None => 42,
            };
            let out = PathBuf::from(flags.require("out")?);
            flags.finish()?;
            if count == 0 || len == 0 {
                return Err(ParseError("--count and --len must be positive".into()));
            }
            Ok(Command::Generate {
                kind,
                count,
                len,
                seed,
                out,
            })
        }
        "index" => {
            let mut flags = Flags::parse(rest)?;
            let db = PathBuf::from(flags.require("db")?);
            let out = PathBuf::from(flags.require("out")?);
            flags.finish()?;
            Ok(Command::Index { db, out })
        }
        "info" => {
            let mut flags = Flags::parse(rest)?;
            let db = PathBuf::from(flags.require("db")?);
            let index = flags.take("index").map(PathBuf::from);
            flags.finish()?;
            Ok(Command::Info { db, index })
        }
        "query" => {
            let mut flags = Flags::parse_with_switches(rest, &["stats"])?;
            let db = PathBuf::from(flags.require("db")?);
            let index = flags.take("index").map(PathBuf::from);
            let epsilon: f64 = parse_num("eps", &flags.require("eps")?)?;
            let values = flags.take("values");
            let from_id = flags.take("from-id");
            let knn = match flags.take("knn") {
                Some(raw) => Some(parse_num("knn", &raw)?),
                None => None,
            };
            let stats = flags.take_switch("stats");
            let deadline_ms = match flags.take("deadline-ms") {
                Some(raw) => Some(parse_num("deadline-ms", &raw)?),
                None => None,
            };
            let max_cells = match flags.take("max-cells") {
                Some(raw) => Some(parse_num("max-cells", &raw)?),
                None => None,
            };
            flags.finish()?;
            let source = match (values, from_id) {
                (Some(csv), None) => {
                    let parsed: Result<Vec<f64>, _> = csv
                        .split(',')
                        .map(|tok| parse_num::<f64>("values", tok.trim()))
                        .collect();
                    QuerySource::Values(parsed?)
                }
                (None, Some(raw)) => QuerySource::FromId(parse_num("from-id", &raw)?),
                _ => {
                    return Err(ParseError(
                        "query needs exactly one of --values or --from-id".into(),
                    ))
                }
            };
            if epsilon.is_nan() || epsilon < 0.0 {
                return Err(ParseError(format!(
                    "--eps must be non-negative, got {epsilon}"
                )));
            }
            Ok(Command::Query {
                db,
                index,
                epsilon,
                source,
                knn,
                stats,
                deadline_ms,
                max_cells,
            })
        }
        "subseq" => {
            let mut flags = Flags::parse(rest)?;
            let db = PathBuf::from(flags.require("db")?);
            let epsilon: f64 = parse_num("eps", &flags.require("eps")?)?;
            let csv = flags.require("values")?;
            let values: Vec<f64> = csv
                .split(',')
                .map(|tok| parse_num::<f64>("values", tok.trim()))
                .collect::<Result<_, _>>()?;
            let min_len = match flags.take("min-len") {
                Some(raw) => parse_num("min-len", &raw)?,
                None => values.len().saturating_sub(values.len() / 2).max(1),
            };
            let max_len = match flags.take("max-len") {
                Some(raw) => parse_num("max-len", &raw)?,
                None => values.len() * 2,
            };
            flags.finish()?;
            if values.is_empty() {
                return Err(ParseError("--values must be non-empty".into()));
            }
            if epsilon.is_nan() || epsilon < 0.0 {
                return Err(ParseError(format!(
                    "--eps must be non-negative, got {epsilon}"
                )));
            }
            Ok(Command::Subseq {
                db,
                epsilon,
                values,
                min_len,
                max_len,
            })
        }
        "verify-store" => {
            let mut flags = Flags::parse(rest)?;
            let db = PathBuf::from(flags.require("db")?);
            let index = flags.take("index").map(PathBuf::from);
            let wal = flags.take("wal").map(PathBuf::from);
            flags.finish()?;
            Ok(Command::VerifyStore { db, index, wal })
        }
        "ingest" => {
            let mut flags = Flags::parse_with_switches(rest, &["follow"])?;
            let db = PathBuf::from(flags.require("db")?);
            let shards = match flags.take("shards") {
                Some(raw) => Some(parse_num("shards", &raw)?),
                None => None,
            };
            let wal = flags.take("wal").map(PathBuf::from);
            let index = flags.take("index").map(PathBuf::from);
            let follow = flags.take_switch("follow");
            let kind = match flags.take("kind").as_deref() {
                None | Some("walk") => DataKind::Walk,
                Some("stock") => DataKind::Stock,
                Some("cbf") => DataKind::Cbf,
                Some(other) => return Err(ParseError(format!("unknown data kind '{other}'"))),
            };
            let count = match flags.take("count") {
                Some(raw) => parse_num("count", &raw)?,
                None if follow => 0,
                None => {
                    return Err(ParseError(
                        "ingest needs --count (or --follow to read stdin)".into(),
                    ))
                }
            };
            let len = match flags.take("len") {
                Some(raw) => parse_num("len", &raw)?,
                None => 32,
            };
            let seed = match flags.take("seed") {
                Some(raw) => parse_num("seed", &raw)?,
                None => 42,
            };
            let checkpoint_every = match flags.take("checkpoint-every") {
                Some(raw) => Some(parse_num("checkpoint-every", &raw)?),
                None => None,
            };
            let readers = match flags.take("readers") {
                Some(raw) => parse_num("readers", &raw)?,
                None => 0,
            };
            flags.finish()?;
            if follow && count > 0 {
                return Err(ParseError(
                    "--follow reads stdin; it cannot be combined with --count".into(),
                ));
            }
            if checkpoint_every == Some(0) {
                return Err(ParseError("--checkpoint-every must be positive".into()));
            }
            if count > 0 && len == 0 {
                return Err(ParseError("--len must be positive".into()));
            }
            match shards {
                Some(0) => return Err(ParseError("--shards must be positive".into())),
                Some(_) => {
                    // The sharded path writes its own per-shard files under
                    // --db and commits via the manifest, not a WAL.
                    if wal.is_some() || index.is_some() {
                        return Err(ParseError(
                            "--shards writes per-shard files under --db; \
                             --wal/--index do not apply"
                                .into(),
                        ));
                    }
                    if follow || readers > 0 || checkpoint_every.is_some() {
                        return Err(ParseError(
                            "--shards cannot be combined with --follow, \
                             --readers or --checkpoint-every"
                                .into(),
                        ));
                    }
                    if count == 0 {
                        return Err(ParseError("--shards needs --count > 0".into()));
                    }
                }
                None => {
                    if wal.is_none() || index.is_none() {
                        return Err(ParseError(
                            "ingest needs --wal and --index (or --shards for a \
                             sharded corpus)"
                                .into(),
                        ));
                    }
                }
            }
            Ok(Command::Ingest {
                db,
                wal,
                index,
                shards,
                kind,
                count,
                len,
                seed,
                checkpoint_every,
                readers,
                follow,
            })
        }
        "serve" => {
            let mut flags = Flags::parse(rest)?;
            let db = PathBuf::from(flags.require("db")?);
            let index = flags.take("index").map(PathBuf::from);
            let addr = flags.require("addr")?;
            let max_concurrent = match flags.take("max-concurrent") {
                Some(raw) => parse_num("max-concurrent", &raw)?,
                None => 4,
            };
            let max_queued = match flags.take("max-queued") {
                Some(raw) => parse_num("max-queued", &raw)?,
                None => 8,
            };
            let drain_after_ms = match flags.take("drain-after-ms") {
                Some(raw) => Some(parse_num("drain-after-ms", &raw)?),
                None => None,
            };
            flags.finish()?;
            if max_concurrent == 0 {
                return Err(ParseError("--max-concurrent must be positive".into()));
            }
            Ok(Command::Serve {
                db,
                index,
                addr,
                max_concurrent,
                max_queued,
                drain_after_ms,
            })
        }
        "net-query" => {
            let mut flags = Flags::parse_with_switches(rest, &["stats"])?;
            let addr = flags.require("addr")?;
            let epsilon = match flags.take("eps") {
                Some(raw) => Some(parse_num::<f64>("eps", &raw)?),
                None => None,
            };
            let knn = match flags.take("knn") {
                Some(raw) => Some(parse_num::<u32>("knn", &raw)?),
                None => None,
            };
            let csv = flags.require("values")?;
            let values: Vec<f64> = csv
                .split(',')
                .map(|tok| parse_num::<f64>("values", tok.trim()))
                .collect::<Result<_, _>>()?;
            let tenant = match flags.take("tenant") {
                Some(raw) => parse_num("tenant", &raw)?,
                None => 0,
            };
            let deadline_ms = match flags.take("deadline-ms") {
                Some(raw) => Some(parse_num("deadline-ms", &raw)?),
                None => None,
            };
            let max_cells = match flags.take("max-cells") {
                Some(raw) => Some(parse_num("max-cells", &raw)?),
                None => None,
            };
            let stats = flags.take_switch("stats");
            flags.finish()?;
            match (epsilon, knn) {
                (Some(_), Some(_)) | (None, None) => {
                    return Err(ParseError(
                        "net-query needs exactly one of --eps or --knn".into(),
                    ))
                }
                (Some(e), None) if e.is_nan() || e < 0.0 => {
                    return Err(ParseError(format!("--eps must be non-negative, got {e}")))
                }
                (None, Some(0)) => return Err(ParseError("--knn must be positive".into())),
                _ => {}
            }
            if values.is_empty() {
                return Err(ParseError("--values must be non-empty".into()));
            }
            Ok(Command::NetQuery {
                addr,
                epsilon,
                knn,
                values,
                tenant,
                deadline_ms,
                max_cells,
                stats,
            })
        }
        "align" => {
            let mut flags = Flags::parse(rest)?;
            let db = PathBuf::from(flags.require("db")?);
            let a = parse_num("a", &flags.require("a")?)?;
            let b = parse_num("b", &flags.require("b")?)?;
            flags.finish()?;
            Ok(Command::Align { db, a, b })
        }
        other => Err(ParseError(format!("unknown command '{other}'\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn generate_full() {
        let cmd = parse(&argv(
            "generate --kind walk --count 100 --len 50 --seed 9 --out db.tws",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                kind: DataKind::Walk,
                count: 100,
                len: 50,
                seed: 9,
                out: "db.tws".into(),
            }
        );
    }

    #[test]
    fn generate_defaults_seed() {
        let cmd = parse(&argv("generate --kind stock --count 5 --len 9 --out x")).unwrap();
        assert!(matches!(cmd, Command::Generate { seed: 42, .. }));
    }

    #[test]
    fn generate_rejects_zero_count() {
        assert!(parse(&argv("generate --kind cbf --count 0 --len 9 --out x")).is_err());
    }

    #[test]
    fn query_with_values() {
        let cmd = parse(&argv("query --db d --eps 0.5 --values 1.0,2.5,3")).unwrap();
        match cmd {
            Command::Query {
                epsilon, source, ..
            } => {
                assert_eq!(epsilon, 0.5);
                assert_eq!(source, QuerySource::Values(vec![1.0, 2.5, 3.0]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn query_with_from_id_and_knn() {
        let cmd = parse(&argv("query --db d --index i --eps 1 --from-id 7 --knn 3")).unwrap();
        match cmd {
            Command::Query {
                index, source, knn, ..
            } => {
                assert_eq!(index, Some("i".into()));
                assert_eq!(source, QuerySource::FromId(7));
                assert_eq!(knn, Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn query_stats_switch_takes_no_value() {
        // `--stats` before another flag must not swallow it as a value.
        let cmd = parse(&argv("query --db d --stats --eps 1 --from-id 7")).unwrap();
        assert!(matches!(cmd, Command::Query { stats: true, .. }));
        let cmd = parse(&argv("query --db d --eps 1 --from-id 7")).unwrap();
        assert!(matches!(cmd, Command::Query { stats: false, .. }));
        // Other commands don't accept it.
        assert!(parse(&argv("info --db d --stats")).is_err());
    }

    #[test]
    fn query_budget_flags_parse() {
        let cmd = parse(&argv(
            "query --db d --eps 1 --from-id 0 --deadline-ms 250 --max-cells 100000",
        ))
        .unwrap();
        match cmd {
            Command::Query {
                deadline_ms,
                max_cells,
                ..
            } => {
                assert_eq!(deadline_ms, Some(250));
                assert_eq!(max_cells, Some(100_000));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults stay off.
        let cmd = parse(&argv("query --db d --eps 1 --from-id 0")).unwrap();
        assert!(matches!(
            cmd,
            Command::Query {
                deadline_ms: None,
                max_cells: None,
                ..
            }
        ));
        // Values are validated.
        assert!(parse(&argv("query --db d --eps 1 --from-id 0 --deadline-ms abc")).is_err());
    }

    #[test]
    fn query_needs_exactly_one_source() {
        assert!(parse(&argv("query --db d --eps 1")).is_err());
        assert!(parse(&argv("query --db d --eps 1 --values 1 --from-id 2")).is_err());
    }

    #[test]
    fn query_rejects_negative_eps() {
        let e = parse(&argv("query --db d --eps -1 --from-id 0")).unwrap_err();
        assert!(e.0.contains("non-negative"));
    }

    #[test]
    fn unknown_flags_and_commands_rejected() {
        assert!(parse(&argv(
            "generate --kind walk --count 1 --len 1 --out x --bogus 1"
        ))
        .is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("index --db d")).is_err()); // missing --out
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn subseq_parses_with_defaults() {
        let cmd = parse(&argv("subseq --db d --eps 0.5 --values 1,2,3,4")).unwrap();
        match cmd {
            Command::Subseq {
                epsilon,
                values,
                min_len,
                max_len,
                ..
            } => {
                assert_eq!(epsilon, 0.5);
                assert_eq!(values.len(), 4);
                assert_eq!(min_len, 2);
                assert_eq!(max_len, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("subseq --db d --eps 0.5 --values")).is_err());
    }

    #[test]
    fn align_parses() {
        let cmd = parse(&argv("align --db d --a 3 --b 7")).unwrap();
        assert_eq!(
            cmd,
            Command::Align {
                db: "d".into(),
                a: 3,
                b: 7
            }
        );
        assert!(parse(&argv("align --db d --a 3")).is_err());
    }

    #[test]
    fn verify_store_parses() {
        let cmd = parse(&argv("verify-store --db d --index i")).unwrap();
        assert_eq!(
            cmd,
            Command::VerifyStore {
                db: "d".into(),
                index: Some("i".into()),
                wal: None,
            }
        );
        assert!(matches!(
            parse(&argv("verify-store --db d")).unwrap(),
            Command::VerifyStore {
                index: None,
                wal: None,
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("verify-store --db d --wal w")).unwrap(),
            Command::VerifyStore { wal: Some(_), .. }
        ));
        assert!(parse(&argv("verify-store")).is_err());
    }

    #[test]
    fn ingest_parses_with_defaults() {
        let cmd = parse(&argv(
            "ingest --db d --wal w --index i --count 10 --len 16 --seed 3",
        ))
        .unwrap();
        match cmd {
            Command::Ingest {
                kind,
                count,
                len,
                seed,
                checkpoint_every,
                readers,
                follow,
                ..
            } => {
                assert_eq!(kind, DataKind::Walk);
                assert_eq!((count, len, seed), (10, 16, 3));
                assert_eq!(checkpoint_every, None);
                assert_eq!(readers, 0);
                assert!(!follow);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ingest_flags_and_modes() {
        let cmd = parse(&argv(
            "ingest --db d --wal w --index i --count 8 --checkpoint-every 4 --readers 2",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Ingest {
                checkpoint_every: Some(4),
                readers: 2,
                ..
            }
        ));
        // Follow mode needs no count; count 0 means open/recover only.
        assert!(matches!(
            parse(&argv("ingest --db d --wal w --index i --follow")).unwrap(),
            Command::Ingest {
                follow: true,
                count: 0,
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("ingest --db d --wal w --index i --count 0")).unwrap(),
            Command::Ingest { count: 0, .. }
        ));
        // Invalid combinations are rejected.
        assert!(parse(&argv("ingest --db d --wal w --index i")).is_err());
        assert!(parse(&argv("ingest --db d --wal w --index i --follow --count 3")).is_err());
        assert!(parse(&argv(
            "ingest --db d --wal w --index i --count 2 --checkpoint-every 0"
        ))
        .is_err());
        assert!(parse(&argv("ingest --db d --index i --count 2")).is_err()); // missing --wal
    }

    #[test]
    fn ingest_shards_selects_the_sharded_path() {
        let cmd = parse(&argv(
            "ingest --db corpus --shards 4 --count 100 --len 16 --seed 9",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Ingest {
                shards: Some(4),
                wal: None,
                index: None,
                count: 100,
                ..
            }
        ));
        // The sharded path has no WAL, readers, follow or checkpoints.
        assert!(parse(&argv("ingest --db d --shards 0 --count 1")).is_err());
        assert!(parse(&argv(
            "ingest --db d --shards 2 --count 1 --wal w --index i"
        ))
        .is_err());
        assert!(parse(&argv("ingest --db d --shards 2 --follow")).is_err());
        assert!(parse(&argv("ingest --db d --shards 2 --count 1 --readers 2")).is_err());
        assert!(parse(&argv(
            "ingest --db d --shards 2 --count 1 --checkpoint-every 1"
        ))
        .is_err());
        assert!(parse(&argv("ingest --db d --shards 2 --count 0")).is_err());
    }

    #[test]
    fn serve_parses_with_defaults() {
        let cmd = parse(&argv("serve --db d --addr 127.0.0.1:0")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                db: "d".into(),
                index: None,
                addr: "127.0.0.1:0".into(),
                max_concurrent: 4,
                max_queued: 8,
                drain_after_ms: None,
            }
        );
        let cmd = parse(&argv(
            "serve --db d --index i --addr :7878 --max-concurrent 2 --max-queued 1 --drain-after-ms 500",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                max_concurrent: 2,
                max_queued: 1,
                drain_after_ms: Some(500),
                ..
            }
        ));
        assert!(parse(&argv("serve --db d")).is_err()); // missing --addr
        assert!(parse(&argv("serve --db d --addr a --max-concurrent 0")).is_err());
    }

    #[test]
    fn net_query_needs_exactly_one_mode() {
        let cmd = parse(&argv("net-query --addr a:1 --eps 0.5 --values 1,2")).unwrap();
        assert!(matches!(
            cmd,
            Command::NetQuery {
                epsilon: Some(_),
                knn: None,
                ..
            }
        ));
        let cmd = parse(&argv(
            "net-query --addr a:1 --knn 3 --values 1 --tenant 7 --deadline-ms 250 --max-cells 10 --stats",
        ))
        .unwrap();
        match cmd {
            Command::NetQuery {
                knn,
                tenant,
                deadline_ms,
                max_cells,
                stats,
                ..
            } => {
                assert_eq!(knn, Some(3));
                assert_eq!(tenant, 7);
                assert_eq!(deadline_ms, Some(250));
                assert_eq!(max_cells, Some(10));
                assert!(stats);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("net-query --addr a:1 --values 1")).is_err());
        assert!(parse(&argv("net-query --addr a:1 --eps 1 --knn 2 --values 1")).is_err());
        assert!(parse(&argv("net-query --addr a:1 --knn 0 --values 1")).is_err());
        assert!(parse(&argv("net-query --addr a:1 --eps -1 --values 1")).is_err());
    }
}
