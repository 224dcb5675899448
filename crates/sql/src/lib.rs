//! # redsim-sql
//!
//! The SQL frontend: "the ability to declaratively state one's intent and
//! have it automatically converted into an optimized execution plan that
//! is resilient to changes in access patterns and data distribution is a
//! very significant benefit" (§4). PostgreSQL-flavored surface syntax, in
//! line with the paper's compatibility story.
//!
//! Pipeline: [`lexer`] → [`parser`] (AST in [`ast`]) → [`binder`]
//! (name/type resolution against a [`catalog::CatalogView`]) →
//! [`plan::LogicalPlan`] → [`optimizer`] (column pruning, predicate
//! pushdown, join ordering, join-distribution strategy, scan-range
//! extraction for zone maps). The execution engine consumes the optimized
//! logical plan.
//!
//! Supported statements: `CREATE TABLE` (with `DISTSTYLE`/`DISTKEY`/
//! `SORTKEY`, compound or interleaved), `DROP TABLE`, `INSERT … VALUES`,
//! `SELECT` (joins, `WHERE`, `GROUP BY`, `HAVING`, `ORDER BY`, `LIMIT`,
//! aggregates incl. `APPROX COUNT(DISTINCT …)`), `COPY`, `VACUUM`,
//! `ANALYZE`, `EXPLAIN`.

pub mod ast;
pub mod binder;
pub mod catalog;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;

pub use ast::Statement;
pub use binder::Binder;
pub use catalog::{CatalogView, TableMeta};
pub use plan::{AggFunc, BoundExpr, LogicalPlan};

/// Parse SQL text into a statement.
pub fn parse(sql: &str) -> redsim_common::Result<Statement> {
    parser::Parser::new(sql)?.parse_statement()
}
