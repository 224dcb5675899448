//! Statement shapes over the web-log tables (`clicks`, `products`).
//!
//! Every SELECT the benchmark sends has one of these shapes; per-shape
//! latency and zone-map figures are reported under the shape's name.

use crate::inputs::ts_literal;
use redshift_sim::simkit::SimRng;

pub const BIGINT_FILTER: &str = "bigint_filter";
pub const TS_WINDOW: &str = "ts_window";
pub const GROUP_BIGINT: &str = "group_bigint";
pub const GROUP_URL: &str = "group_url";
pub const JOIN_AGG: &str = "join_agg";
pub const TOP_N: &str = "top_n";
pub const EXPORT: &str = "export";
pub const COUNT: &str = "count";
pub const COUNT_SQL: &str = "SELECT COUNT(*) FROM clicks";

/// The ad-hoc shapes of the paper's §1 analytics, in round-robin order.
/// Time windows, the commonest analytics, appear twice: with seven slots
/// the median falls inside one shape's latency cluster instead of on the
/// gap between two, so it does not jump with the literal draws.
pub const ADHOC: [&str; 7] = [
    BIGINT_FILTER,
    TS_WINDOW,
    GROUP_BIGINT,
    GROUP_URL,
    TS_WINDOW,
    JOIN_AGG,
    TOP_N,
];

/// One statement of `shape` with literals drawn from `rng`, over a click
/// table holding `rows` rows (`rows / 3` distinct users, one click per
/// ms, so `rows / 1000` seconds of timestamps, `bytes` uniform in
/// [200, 4000)). Each filter is a window of fixed width at a random
/// position over a uniform column, so texts never repeat but every
/// statement of a shape selects the same share of rows: a shape's cost
/// does not depend on the draw, and runs with different seeds do the
/// same work.
pub fn statement(shape: &str, rng: &mut SimRng, rows: u64) -> String {
    let users = rows / 3;
    let secs = (rows / 1_000) as i64;
    let pick = |rng: &mut SimRng, lo: u64, hi: u64| lo + rng.gen_range(hi - lo);
    // `bytes` in [b, b + BYTES_W): ~63% of rows.
    const BYTES_W: u64 = 2_400;
    let bytes = |rng: &mut SimRng| pick(rng, 200, 4_000 - BYTES_W);
    // `user_id` in [a, a + w).
    let users_from = |rng: &mut SimRng, w: u64| pick(rng, 0, users - w);
    match shape {
        // ~1% of rows by a non-sort-key BIGINT range. This and the
        // sort-key window below are equally selective, so their latency
        // and zone-map figures compare directly.
        BIGINT_FILTER => {
            let w = users / 100;
            let a = users_from(rng, w);
            let b = pick(rng, 0, 400);
            format!(
                "SELECT COUNT(*), SUM(bytes) FROM clicks WHERE user_id >= {a} AND user_id < {} AND bytes >= {b}",
                a + w
            )
        }
        // ~1% of rows by a window on the sort key.
        TS_WINDOW => {
            let w = (secs / 100).max(1);
            let a = pick(rng, 0, (secs - w) as u64) as i64;
            let b = pick(rng, 0, 400);
            format!(
                "SELECT COUNT(*), SUM(bytes) FROM clicks WHERE ts >= {} AND ts < {} AND bytes >= {b}",
                ts_literal(a),
                ts_literal(a + w)
            )
        }
        GROUP_BIGINT => {
            let b = bytes(rng);
            format!(
                "SELECT product_id, COUNT(*) AS n FROM clicks WHERE bytes >= {b} AND bytes < {} \
                 GROUP BY product_id ORDER BY n DESC, product_id LIMIT 10",
                b + BYTES_W
            )
        }
        // ~10% of users.
        GROUP_URL => {
            let w = users / 10;
            let a = users_from(rng, w);
            format!(
                "SELECT url, SUM(bytes) AS b FROM clicks WHERE user_id >= {a} AND user_id < {} \
                 GROUP BY url ORDER BY b DESC, url LIMIT 10",
                a + w
            )
        }
        JOIN_AGG => {
            let b = bytes(rng);
            format!(
                "SELECT p.category, COUNT(*) AS n, SUM(c.bytes) AS b FROM clicks c \
                 JOIN products p ON c.product_id = p.id WHERE c.bytes >= {b} AND c.bytes < {} \
                 GROUP BY p.category ORDER BY n DESC",
                b + BYTES_W
            )
        }
        // Half the users.
        TOP_N => {
            let w = users / 2;
            let a = users_from(rng, w);
            format!(
                "SELECT user_id, product_id, ts, bytes FROM clicks WHERE user_id >= {a} AND user_id < {} \
                 ORDER BY bytes DESC, ts LIMIT 20",
                a + w
            )
        }
        // ~5k rows shipped to the client.
        EXPORT => {
            let w = 5_000 / 3;
            let a = users_from(rng, w);
            format!(
                "SELECT user_id, product_id, ts, url, bytes FROM clicks \
                 WHERE user_id >= {a} AND user_id < {}",
                a + w
            )
        }
        COUNT => COUNT_SQL.to_string(),
        _ => unreachable!("unknown shape {shape}"),
    }
}
