//! # tw-cli — the `twsearch` command-line tool
//!
//! A thin, dependency-free front end over the `tw-search` workspace:
//!
//! ```text
//! twsearch generate --kind walk|stock|cbf --count N --len L --seed S --out DB
//! twsearch index    --db DB --out INDEX
//! twsearch info     --db DB [--index INDEX]
//! twsearch query    --db DB [--index INDEX] --eps E (--values CSV | --from-id N) [--knn K]
//! ```
//!
//! The database file is a `tw-storage` paged sequence store (1 KB pages);
//! the index file is a serialized 4-D R-tree. Everything the binary does is
//! reachable through this library crate, which is what the unit tests cover.

pub mod args;
pub mod commands;

pub use args::{parse, Command, ParseError};
pub use commands::{run, CliError};
