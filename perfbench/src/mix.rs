//! The seeded statement streams of `serve-hot` and `write-mix`.
//!
//! Both workloads draw from the same 24 parameterized read shapes: key
//! lookups, index-range aggregates, `ORDER BY … LIMIT` and 2–3-table key
//! joins over both schemas. Literals come from the seed, over each key
//! domain of the loaded data. Every shape is single-row or fully ordered
//! (the `ORDER BY` covers every output column), and aggregates over doubles
//! are only `MIN`/`MAX`, so replies compare exactly against any correct
//! plan. `write-mix` replaces every tenth statement with a single-row
//! `INSERT`, alternating TPC-H `orders` and TPC-DS `store_sales`, with keys
//! beyond the generated range.
//!
//! The warm-up pass that compiles each shape draws its literals from a
//! fixed generator, not from the seed. The plan cache keeps the plan
//! compiled for the first literal it sees, and for some shapes that plan
//! depends on the literal (shape 7 caches a full index scan under a filter
//! for small keys and an index range scan for large ones). With a fixed
//! warm-up every run serves the same cached plans, and the seed varies
//! only the timed statements.

use taurus_catalog::Catalog;
use taurus_common::datetime::format_date;
use taurus_common::{Row, Value};
use taurus_workloads::gen::SmallRng;

/// Which engine (and server connection) a statement goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schema {
    Tpch,
    Tpcds,
}

impl Schema {
    pub fn index(self) -> usize {
        match self {
            Schema::Tpch => 0,
            Schema::Tpcds => 1,
        }
    }
}

/// What a statement does.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Read,
    /// A single-row insert; `row` holds the same values as the SQL text.
    Insert {
        table: &'static str,
        row: Row,
    },
}

/// One generated statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub schema: Schema,
    pub kind: Kind,
    pub sql: String,
}

/// Key-domain sizes read from the loaded catalogs.
#[derive(Debug, Clone, Copy)]
pub struct Domains {
    orders: i64,
    customer: i64,
    part: i64,
    supplier: i64,
    item: i64,
    ds_customer: i64,
    address: i64,
    date_dim: i64,
    store: i64,
    store_sales: i64,
    cdemo: i64,
    hdemo: i64,
    promotion: i64,
}

fn rows(cat: &Catalog, table: &str) -> i64 {
    cat.table_by_name(table).map_or(1, |t| t.num_rows().max(1) as i64)
}

impl Domains {
    pub fn read(tpch: &Catalog, tpcds: &Catalog) -> Domains {
        Domains {
            orders: rows(tpch, "orders"),
            customer: rows(tpch, "customer"),
            part: rows(tpch, "part"),
            supplier: rows(tpch, "supplier"),
            item: rows(tpcds, "item"),
            ds_customer: rows(tpcds, "customer"),
            address: rows(tpcds, "customer_address"),
            date_dim: rows(tpcds, "date_dim"),
            store: rows(tpcds, "store"),
            store_sales: rows(tpcds, "store_sales"),
            cdemo: rows(tpcds, "customer_demographics"),
            hdemo: rows(tpcds, "household_demographics"),
            promotion: rows(tpcds, "promotion"),
        }
    }
}

type ShapeFn = fn(&mut SmallRng, &Domains) -> String;

fn k(rng: &mut SmallRng, n: i64) -> i64 {
    rng.gen_range(0..n)
}

/// The read shapes: schema plus a generator of one statement.
pub const SHAPES: &[(Schema, ShapeFn)] = &[
    (Schema::Tpch, |r, d| {
        format!(
            "SELECT o_orderdate, o_totalprice, o_orderstatus FROM orders WHERE o_orderkey = {}",
            k(r, d.orders)
        )
    }),
    (Schema::Tpch, |r, d| {
        format!(
            "SELECT c_name, c_acctbal, c_nationkey FROM customer WHERE c_custkey = {}",
            k(r, d.customer)
        )
    }),
    (Schema::Tpch, |r, d| {
        format!("SELECT p_name, p_retailprice FROM part WHERE p_partkey = {}", k(r, d.part))
    }),
    (Schema::Tpch, |r, d| {
        let a = k(r, d.orders);
        format!(
            "SELECT COUNT(*), MIN(o_totalprice), MAX(o_totalprice) FROM orders \
             WHERE o_orderkey BETWEEN {a} AND {}",
            a + 40
        )
    }),
    (Schema::Tpch, |r, d| {
        let a = k(r, d.orders);
        format!(
            "SELECT COUNT(*), MAX(l_extendedprice) FROM lineitem \
             WHERE l_orderkey BETWEEN {a} AND {}",
            a + 10
        )
    }),
    (Schema::Tpch, |r, d| {
        format!(
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = {} \
             ORDER BY o_orderkey LIMIT 5",
            k(r, d.customer)
        )
    }),
    (Schema::Tpch, |r, d| {
        format!(
            "SELECT l_partkey, l_suppkey, l_quantity FROM lineitem WHERE l_orderkey = {} \
             ORDER BY l_partkey, l_suppkey, l_quantity LIMIT 10",
            k(r, d.orders)
        )
    }),
    (Schema::Tpch, |r, d| {
        format!(
            "SELECT o_orderkey, o_orderdate FROM orders WHERE o_orderkey > {} \
             ORDER BY o_orderkey LIMIT 10",
            k(r, d.orders)
        )
    }),
    (Schema::Tpch, |r, d| {
        format!(
            "SELECT c_name, o_orderkey, n_name FROM customer, orders, nation \
             WHERE o_custkey = c_custkey AND c_nationkey = n_nationkey AND o_orderkey = {}",
            k(r, d.orders)
        )
    }),
    (Schema::Tpch, |r, d| {
        format!(
            "SELECT COUNT(*), MAX(l_extendedprice) FROM customer, orders, lineitem \
             WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey AND c_custkey = {}",
            k(r, d.customer)
        )
    }),
    (Schema::Tpch, |r, d| {
        format!(
            "SELECT s_name, n_name FROM supplier, nation \
             WHERE s_nationkey = n_nationkey AND s_suppkey = {}",
            k(r, d.supplier)
        )
    }),
    (Schema::Tpch, |r, d| {
        format!(
            "SELECT p_name, s_name, ps_availqty FROM part, partsupp, supplier \
             WHERE ps_partkey = p_partkey AND ps_suppkey = s_suppkey AND p_partkey = {} \
             ORDER BY p_name, s_name, ps_availqty",
            k(r, d.part)
        )
    }),
    (Schema::Tpcds, |r, d| {
        format!(
            "SELECT i_item_id, i_current_price, i_category FROM item WHERE i_item_sk = {}",
            k(r, d.item)
        )
    }),
    (Schema::Tpcds, |r, d| {
        format!(
            "SELECT c_customer_id, c_last_name FROM customer WHERE c_customer_sk = {}",
            k(r, d.ds_customer)
        )
    }),
    (Schema::Tpcds, |r, d| {
        format!("SELECT d_date, d_year, d_moy FROM date_dim WHERE d_date_sk = {}", k(r, d.date_dim))
    }),
    (Schema::Tpcds, |r, d| {
        format!(
            "SELECT COUNT(*), SUM(ss_quantity), MAX(ss_net_profit) FROM store_sales \
             WHERE ss_item_sk = {}",
            k(r, d.item)
        )
    }),
    (Schema::Tpcds, |r, d| {
        let a = k(r, d.date_dim);
        format!(
            "SELECT COUNT(*), MIN(ss_sales_price) FROM store_sales \
             WHERE ss_sold_date_sk BETWEEN {a} AND {}",
            a + 7
        )
    }),
    (Schema::Tpcds, |r, d| {
        format!(
            "SELECT ss_ticket_number, ss_quantity FROM store_sales WHERE ss_customer_sk = {} \
             ORDER BY ss_ticket_number, ss_quantity LIMIT 5",
            k(r, d.ds_customer)
        )
    }),
    (Schema::Tpcds, |r, d| {
        format!(
            "SELECT ca_state, ca_gmt_offset FROM customer_address WHERE ca_address_sk = {}",
            k(r, d.address)
        )
    }),
    (Schema::Tpcds, |r, d| {
        format!(
            "SELECT i_item_id, ss_quantity FROM store_sales, item \
             WHERE ss_item_sk = i_item_sk AND ss_ticket_number = {}",
            k(r, d.store_sales)
        )
    }),
    (Schema::Tpcds, |r, d| {
        format!(
            "SELECT d_year, COUNT(*) FROM store_sales, date_dim \
             WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = {} \
             GROUP BY d_year ORDER BY d_year",
            k(r, d.item)
        )
    }),
    (Schema::Tpcds, |r, d| {
        format!(
            "SELECT s_store_name, i_item_id, ss_quantity FROM store_sales, store, item \
             WHERE ss_store_sk = s_store_sk AND ss_item_sk = i_item_sk \
             AND ss_ticket_number = {}",
            k(r, d.store_sales)
        )
    }),
    (Schema::Tpcds, |r, d| {
        format!(
            "SELECT c_last_name, ca_state FROM customer, customer_address \
             WHERE c_current_addr_sk = ca_address_sk AND c_customer_sk = {}",
            k(r, d.ds_customer)
        )
    }),
    (Schema::Tpcds, |r, d| {
        format!(
            "SELECT sr_ticket_number, sr_return_amt FROM store_returns WHERE sr_item_sk = {} \
             ORDER BY sr_ticket_number, sr_return_amt LIMIT 5",
            k(r, d.item)
        )
    }),
];

/// Every `WRITE_EVERY`-th statement of `write-mix` is an insert.
pub const WRITE_EVERY: usize = 10;

/// A money value with two decimals, exactly as the SQL text parses.
fn money(rng: &mut SmallRng, lo: i64, hi: i64) -> f64 {
    rng.gen_range(lo * 100..hi * 100) as f64 / 100.0
}

fn sql_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Double(d) => format!("{d:.2}"),
        Value::Date(days) => format!("DATE '{}'", format_date(*days)),
        Value::Str(s) => format!("'{s}'"),
        other => panic!("insert generator produced {other:?}"),
    }
}

/// Seed of the warm-up literals, the same for every run.
pub const WARMUP_SEED: u64 = 0;

/// The infinite seeded stream of one workload, preceded by a warm-up
/// pass that issues every shape once with literals from [`WARMUP_SEED`].
pub struct Stream {
    rng: SmallRng,
    warm_rng: SmallRng,
    dom: Domains,
    writes: bool,
    /// Statements emitted so far (warm-up included).
    emitted: usize,
    inserts: i64,
    /// First insert key of each schema, beyond the generated range.
    key_base: [i64; 2],
}

impl Stream {
    /// `writes` selects `write-mix` (one insert in [`WRITE_EVERY`]).
    pub fn new(seed: u64, dom: Domains, writes: bool) -> Stream {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_F00D);
        let offset = rng.gen_range(0..1_000_000i64);
        Stream {
            rng,
            warm_rng: SmallRng::seed_from_u64(WARMUP_SEED),
            dom,
            writes,
            emitted: 0,
            inserts: 0,
            key_base: [dom.orders + 1 + offset, dom.store_sales + 1 + offset],
        }
    }

    /// Number of warm-up statements at the head of the stream.
    pub fn warmup_len() -> usize {
        SHAPES.len()
    }

    fn insert(&mut self) -> Stmt {
        let schema = if self.inserts % 2 == 0 { Schema::Tpch } else { Schema::Tpcds };
        let key = self.key_base[schema.index()] + self.inserts / 2;
        self.inserts += 1;
        let (r, d) = (&mut self.rng, &self.dom);
        let (table, row) = match schema {
            Schema::Tpch => (
                "orders",
                vec![
                    Value::Int(key),
                    Value::Int(k(r, d.customer)),
                    Value::str("O"),
                    Value::Double(money(r, 1000, 400_000)),
                    Value::Date(r.gen_range(9131..10440)), // 1995-01-01 .. 1998-07-31
                    Value::str("3-MEDIUM"),
                    Value::str("perfbench insert"),
                ],
            ),
            Schema::Tpcds => (
                "store_sales",
                vec![
                    Value::Int(k(r, d.date_dim)),
                    Value::Int(k(r, d.item)),
                    Value::Int(k(r, d.ds_customer)),
                    Value::Int(k(r, d.store)),
                    Value::Int(k(r, d.cdemo)),
                    Value::Int(k(r, d.hdemo)),
                    Value::Int(k(r, d.promotion)),
                    Value::Int(key),
                    Value::Int(r.gen_range(1..100)),
                    Value::Double(money(r, 1, 200)),
                    Value::Double(money(r, 1, 20_000)),
                    Value::Double(money(r, 1, 10_000)),
                ],
            ),
        };
        let values: Vec<String> = row.iter().map(sql_value).collect();
        let sql = format!("INSERT INTO {table} VALUES ({})", values.join(", "));
        Stmt { schema, kind: Kind::Insert { table, row }, sql }
    }
}

impl Iterator for Stream {
    type Item = Stmt;

    fn next(&mut self) -> Option<Stmt> {
        let i = self.emitted;
        self.emitted += 1;
        let warm = Stream::warmup_len();
        if i >= warm && self.writes && (i - warm) % WRITE_EVERY == WRITE_EVERY - 1 {
            return Some(self.insert());
        }
        let (shape, rng) = if i < warm {
            (i, &mut self.warm_rng)
        } else {
            (self.rng.gen_range(0..SHAPES.len()), &mut self.rng)
        };
        let (schema, gen) = SHAPES[shape];
        Some(Stmt { schema, kind: Kind::Read, sql: gen(rng, &self.dom) })
    }
}
