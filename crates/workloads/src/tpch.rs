//! A TPC-H-style interactive analytics workload (the paper's §5.1
//! "Spark as an in-memory database server").

use flint_engine::{
    AggField, AggKernel, Driver, KeyExpr, MapKernel, NumExpr, PayloadExpr, PredKernel, RddRef,
    Result, ScalarExpr, Value,
};
use flint_simtime::rng::stream;
use rand::Rng;

use crate::{f64_bits, fold_checksum, Workload, WorkloadConfig, WorkloadSummary};

/// Market segments for `customer.mktsegment`.
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
/// Return flags / line statuses for `lineitem`.
const FLAGS: [&str; 3] = ["A", "N", "R"];
const STATUSES: [&str; 2] = ["F", "O"];

/// The TPC-H queries implemented (the paper's evaluation uses query one
/// as its medium-length query and query three as its short query).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpchQuery {
    /// Pricing summary report: scan + wide aggregation over `lineitem`.
    Q1,
    /// Shipping priority: customer ⋈ orders ⋈ lineitem, top revenue.
    Q3,
    /// Forecasting revenue change: selective scan + global sum.
    Q6,
    /// Returned-item reporting: top customers by lost revenue
    /// (customer ⋈ orders ⋈ returned lineitems).
    Q10,
}

impl TpchQuery {
    /// All implemented queries.
    pub const ALL: [TpchQuery; 4] = [TpchQuery::Q1, TpchQuery::Q3, TpchQuery::Q6, TpchQuery::Q10];

    /// The query's name.
    pub fn name(&self) -> &'static str {
        match self {
            TpchQuery::Q1 => "Q1",
            TpchQuery::Q3 => "Q3",
            TpchQuery::Q6 => "Q6",
            TpchQuery::Q10 => "Q10",
        }
    }
}

/// Handles to the persisted in-memory tables.
#[derive(Debug, Clone, Copy)]
pub struct TpchTables {
    /// The `lineitem` fact table.
    pub lineitem: RddRef,
    /// The `orders` table.
    pub orders: RddRef,
    /// The `customer` table.
    pub customer: RddRef,
}

/// The TPC-H workload: generate tables, persist them in memory, and
/// answer queries interactively.
///
/// Row encodings (`Value::List` columns):
/// * `lineitem`: `[orderkey, quantity, extendedprice, discount,
///   returnflag, linestatus, shipdate]`
/// * `orders`: `[orderkey, custkey, orderdate, shippriority]`
/// * `customer`: `[custkey, mktsegment]`
///
/// Dates are day numbers in `[0, 2557)`.
#[derive(Debug, Clone)]
pub struct Tpch {
    cfg: WorkloadConfig,
    lineitems: u32,
    orders: u32,
    customers: u32,
}

impl Tpch {
    /// Creates the workload (~800 lineitem rows per logical GB).
    pub fn new(cfg: WorkloadConfig) -> Self {
        let lineitems = ((cfg.dataset_gb * 800.0).round() as u32).max(400);
        Tpch {
            cfg,
            lineitems,
            orders: (lineitems / 4).max(50),
            customers: (lineitems / 20).max(20),
        }
    }

    /// The paper's 10 GB configuration.
    pub fn paper_scale() -> Self {
        Tpch::new(WorkloadConfig {
            dataset_gb: 10.0,
            partitions: 20,
            iterations: 1,
            seed: 42,
        })
    }

    fn gen_lineitem(&self) -> Vec<Value> {
        let mut rng = stream(self.cfg.seed, "tpch-lineitem");
        (0..self.lineitems)
            .map(|_| {
                let orderkey = rng.gen_range(0..self.orders) as i64;
                let qty = rng.gen_range(1.0..50.0_f64).round();
                let price = rng.gen_range(900.0..105_000.0_f64).round();
                let disc = (rng.gen_range(0.0..0.11_f64) * 100.0).round() / 100.0;
                let flag = FLAGS[rng.gen_range(0..FLAGS.len())];
                let status = STATUSES[rng.gen_range(0..STATUSES.len())];
                let shipdate = rng.gen_range(0..2557_i64);
                Value::list(vec![
                    Value::Int(orderkey),
                    Value::Float(qty),
                    Value::Float(price),
                    Value::Float(disc),
                    Value::from_str_(flag),
                    Value::from_str_(status),
                    Value::Int(shipdate),
                ])
            })
            .collect()
    }

    fn gen_orders(&self) -> Vec<Value> {
        let mut rng = stream(self.cfg.seed, "tpch-orders");
        (0..self.orders)
            .map(|ok| {
                let custkey = rng.gen_range(0..self.customers) as i64;
                let orderdate = rng.gen_range(0..2557_i64);
                let prio = rng.gen_range(0..5_i64);
                Value::list(vec![
                    Value::Int(i64::from(ok)),
                    Value::Int(custkey),
                    Value::Int(orderdate),
                    Value::Int(prio),
                ])
            })
            .collect()
    }

    fn gen_customer(&self) -> Vec<Value> {
        let mut rng = stream(self.cfg.seed, "tpch-customer");
        (0..self.customers)
            .map(|ck| {
                let seg = SEGMENTS[rng.gen_range(0..SEGMENTS.len())];
                Value::list(vec![Value::Int(i64::from(ck)), Value::from_str_(seg)])
            })
            .collect()
    }

    fn real_bytes(&self) -> u64 {
        // Dominated by lineitem: ~7 columns ≈ 140 bytes a row.
        u64::from(self.lineitems) * 140
            + u64::from(self.orders) * 70
            + u64::from(self.customers) * 40
    }

    /// Loads, "de-serializes", re-partitions, and persists the tables in
    /// memory (§5.1: Flint de-serializes and re-partitions the raw files
    /// first and then persists them as RDDs so queries run from memory).
    pub fn prepare(&self, driver: &mut Driver) -> Result<TpchTables> {
        let parts = self.cfg.partitions;
        Ok(TpchTables {
            lineitem: Tpch::load_table(driver, self.gen_lineitem(), parts)?,
            orders: Tpch::load_table(driver, self.gen_orders(), parts)?,
            customer: Tpch::load_table(driver, self.gen_customer(), parts)?,
        })
    }

    /// One table's share of [`Tpch::prepare`]: `raw` rows in `parts`
    /// partitions through the de-serialize pass, persisted and
    /// materialized.
    fn load_table(driver: &mut Driver, raw: Vec<Value>, parts: u32) -> Result<RddRef> {
        let src = driver.ctx().parallelize(raw, parts);
        // The deserialization/repartition pass (cost factor ~2), declared
        // rather than an opaque closure: the records pass through
        // unchanged, so a columnar driver persists the source's batch
        // itself and the query kernels find their tables in the form
        // they run on.
        let table =
            driver
                .ctx()
                .map_partitions_kernel(src, 2.0, MapKernel::Scalar(ScalarExpr::Input));
        driver.ctx().persist(table);
        // Materialize now so queries hit memory.
        driver.count(table)?;
        Ok(table)
    }

    /// Executes one query against prepared tables, returning result rows.
    pub fn query(
        &self,
        driver: &mut Driver,
        tables: &TpchTables,
        q: TpchQuery,
    ) -> Result<Vec<Value>> {
        match q {
            TpchQuery::Q1 => self.q1(driver, tables),
            TpchQuery::Q3 => self.q3(driver, tables),
            TpchQuery::Q6 => self.q6(driver, tables),
            TpchQuery::Q10 => self.q10(driver, tables),
        }
    }

    /// Q1: pricing summary report (group by returnflag, linestatus).
    ///
    /// Declared entirely through batch kernels: the shipdate filter, the
    /// six-column aggregate projection keyed by `(returnflag,
    /// linestatus)`, and the running sums all run vectorized over the
    /// lineitem columns when columnar execution is on, and through the
    /// kernel-generated row closures (same arithmetic, same order)
    /// otherwise.
    fn q1(&self, driver: &mut Driver, t: &TpchTables) -> Result<Vec<Value>> {
        let filtered = driver.ctx().filter_kernel(
            t.lineitem,
            PredKernel::IntLe {
                field: 6,
                max: 2400,
            },
        );
        let keyed = driver.ctx().map_kernel(
            filtered,
            MapKernel::Pair {
                key: KeyExpr::PairOfFields(4, 5),
                val: PayloadExpr::List(vec![
                    ScalarExpr::Field(1),
                    ScalarExpr::Field(2),
                    ScalarExpr::Num(discounted_price()),
                    ScalarExpr::Num(NumExpr::Mul(
                        Box::new(discounted_price()),
                        Box::new(NumExpr::Lit(1.06)),
                    )),
                    ScalarExpr::Field(3),
                    ScalarExpr::IntLit(1),
                ]),
            },
        );
        let agg = driver.ctx().reduce_by_key_kernel(
            keyed,
            6,
            AggKernel::SumRow(vec![
                AggField::Float,
                AggField::Float,
                AggField::Float,
                AggField::Float,
                AggField::Float,
                AggField::Int,
            ]),
        );
        let sorted = driver.ctx().sort_by_key(agg, 2, true);
        driver.collect(sorted)
    }

    /// Q3: shipping priority (3-way join, top revenue orders).
    fn q3(&self, driver: &mut Driver, t: &TpchTables) -> Result<Vec<Value>> {
        let parts = self.cfg.partitions;
        let cutoff = 1800_i64;

        // customers in the BUILDING segment, keyed by custkey. The Null
        // payload has no kernel encoding, so the keying map stays a row
        // closure.
        let building = driver.ctx().filter_kernel(
            t.customer,
            PredKernel::StrEq {
                field: 1,
                expect: "BUILDING".into(),
            },
        );
        let cust_keyed = driver.ctx().map(building, |row| {
            let c = row.as_list().expect("row");
            Value::pair(c[0].clone(), Value::Null)
        });

        // Orders before the cutoff, keyed by custkey.
        let orders = driver.ctx().filter_kernel(
            t.orders,
            PredKernel::IntInRange {
                field: 2,
                lo: i64::MIN,
                hi: cutoff,
            },
        );
        let orders_keyed = driver.ctx().map_kernel(
            orders,
            MapKernel::Pair {
                key: KeyExpr::Field(1),
                val: PayloadExpr::List(vec![
                    ScalarExpr::Field(0),
                    ScalarExpr::Field(2),
                    ScalarExpr::Field(3),
                ]),
            },
        );

        // (custkey, [null, order]) -> (orderkey, [orderdate, prio]).
        let co = driver.ctx().join(cust_keyed, orders_keyed, parts);
        let co_by_order = driver.ctx().flat_map(co, |v| {
            let Some((_, payload)) = v.clone().into_pair() else {
                return vec![];
            };
            let Some(sides) = payload.as_list() else {
                return vec![];
            };
            let Some(order) = sides[1].as_list() else {
                return vec![];
            };
            vec![Value::pair(
                order[0].clone(),
                Value::list(vec![order[1].clone(), order[2].clone()]),
            )]
        });

        // Lineitems shipped after the cutoff: (orderkey, revenue).
        let late_items = driver.ctx().filter_kernel(
            t.lineitem,
            PredKernel::IntGt {
                field: 6,
                min: cutoff,
            },
        );
        let revenue = driver.ctx().map_kernel(
            late_items,
            MapKernel::Pair {
                key: KeyExpr::Field(0),
                val: PayloadExpr::Scalar(ScalarExpr::Num(discounted_price())),
            },
        );

        // Join and aggregate revenue per order.
        let joined = driver.ctx().join(co_by_order, revenue, parts);
        let per_order = driver.ctx().map(joined, |v| {
            let (orderkey, payload) = v.clone().into_pair().expect("pair");
            let sides = payload.as_list().expect("sides");
            let meta = sides[0].clone();
            let rev = sides[1].as_f64().unwrap_or(0.0);
            Value::pair(Value::list(vec![orderkey, meta]), Value::Float(rev))
        });
        let total = driver
            .ctx()
            .reduce_by_key_kernel(per_order, parts, AggKernel::SumFloat);
        // Sort by revenue descending, take 10.
        let by_rev = driver.ctx().map(total, |v| {
            let (k, rev) = v.clone().into_pair().expect("pair");
            Value::pair(rev, k)
        });
        let sorted = driver.ctx().sort_by_key(by_rev, 4, false);
        driver.take(sorted, 10)
    }

    /// Q10: returned-item reporting — for returned lineitems (`R` flag)
    /// in a date window, the top customers by lost revenue.
    fn q10(&self, driver: &mut Driver, t: &TpchTables) -> Result<Vec<Value>> {
        let parts = self.cfg.partitions;
        // Returned lineitems in the window, keyed by orderkey.
        let returned = driver.ctx().filter_kernel(
            t.lineitem,
            PredKernel::And(vec![
                PredKernel::StrEq {
                    field: 4,
                    expect: "R".into(),
                },
                PredKernel::IntInRange {
                    field: 6,
                    lo: 600,
                    hi: 1800,
                },
            ]),
        );
        let rev_by_order = driver.ctx().map_kernel(
            returned,
            MapKernel::Pair {
                key: KeyExpr::Field(0),
                val: PayloadExpr::Scalar(ScalarExpr::Num(discounted_price())),
            },
        );
        // Orders keyed by orderkey carry the custkey.
        let orders_keyed = driver.ctx().map_kernel(
            t.orders,
            MapKernel::Pair {
                key: KeyExpr::Field(0),
                val: PayloadExpr::Scalar(ScalarExpr::Field(1)),
            },
        );
        // (orderkey, [revenue, custkey]) -> (custkey, revenue).
        let joined = driver.ctx().join(rev_by_order, orders_keyed, parts);
        let by_cust = driver.ctx().flat_map(joined, |v| {
            let Some(payload) = v.val().and_then(Value::as_list) else {
                return vec![];
            };
            vec![Value::pair(payload[1].clone(), payload[0].clone())]
        });
        let total = driver
            .ctx()
            .reduce_by_key_kernel(by_cust, parts, AggKernel::SumFloat);
        // Attach the customer's market segment, sort by revenue desc.
        let cust_keyed = driver.ctx().map_kernel(
            t.customer,
            MapKernel::Pair {
                key: KeyExpr::Field(0),
                val: PayloadExpr::Scalar(ScalarExpr::Field(1)),
            },
        );
        let with_seg = driver.ctx().join(total, cust_keyed, parts);
        let ranked = driver.ctx().map(with_seg, |v| {
            let (custkey, payload) = v.clone().into_pair().expect("pair");
            let sides = payload.as_list().expect("sides");
            Value::pair(
                sides[0].clone(), // revenue as sort key
                Value::list(vec![custkey, sides[1].clone()]),
            )
        });
        let sorted = driver.ctx().sort_by_key(ranked, 4, false);
        driver.take(sorted, 20)
    }

    /// Q6: forecasting revenue change (selective scan + sum).
    fn q6(&self, driver: &mut Driver, t: &TpchTables) -> Result<Vec<Value>> {
        let filtered = driver.ctx().filter_kernel(
            t.lineitem,
            PredKernel::And(vec![
                PredKernel::IntInRange {
                    field: 6,
                    lo: 1900,
                    hi: 2265,
                },
                PredKernel::FloatInRangeIncl {
                    field: 3,
                    lo: 0.04,
                    hi: 0.08,
                },
                PredKernel::FloatLt {
                    field: 1,
                    max: 24.0,
                },
            ]),
        );
        let revenue = driver.ctx().map_kernel(
            filtered,
            MapKernel::Scalar(ScalarExpr::Num(NumExpr::Mul(
                Box::new(NumExpr::Field(2)),
                Box::new(NumExpr::Field(3)),
            ))),
        );
        let sum = driver.reduce(revenue, |a, b| {
            Value::Float(a.as_f64().unwrap_or(0.0) + b.as_f64().unwrap_or(0.0))
        });
        match sum {
            Ok(v) => Ok(vec![v]),
            Err(flint_engine::EngineError::EmptyDataset) => Ok(vec![Value::Float(0.0)]),
            Err(e) => Err(e),
        }
    }
}

impl Workload for Tpch {
    fn name(&self) -> &'static str {
        "tpch"
    }

    fn run(&self, driver: &mut Driver) -> Result<WorkloadSummary> {
        let tables = self.prepare(driver)?;
        let mut checksum = 0u64;
        let mut records = 0u64;
        for q in TpchQuery::ALL {
            let rows = self.query(driver, &tables, q)?;
            records += rows.len() as u64;
            for r in rows {
                checksum = fold_checksum(checksum, row_digest(&r));
            }
        }
        Ok(WorkloadSummary {
            name: self.name().into(),
            checksum,
            records,
        })
    }

    fn recommended_size_scale(&self) -> f64 {
        self.cfg.dataset_gb * 1e9 / self.real_bytes().max(1) as f64
    }
}

/// `extendedprice * (1 - discount)` over the lineitem layout — the
/// revenue expression shared by Q1, Q3, and Q10.
fn discounted_price() -> NumExpr {
    NumExpr::Mul(
        Box::new(NumExpr::Field(2)),
        Box::new(NumExpr::Sub(
            Box::new(NumExpr::Lit(1.0)),
            Box::new(NumExpr::Field(3)),
        )),
    )
}

fn row_digest(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Bool(b) => u64::from(*b),
        Value::Int(i) => *i as u64,
        Value::Float(f) => f64_bits(*f),
        Value::Str(s) => s.bytes().fold(7u64, |a, b| fold_checksum(a, u64::from(b))),
        Value::Pair(p) => fold_checksum(row_digest(p.key()), row_digest(p.val())),
        Value::Vector(xs) => xs.iter().fold(11u64, |a, x| fold_checksum(a, f64_bits(*x))),
        Value::List(xs) => xs
            .iter()
            .fold(13u64, |a, x| fold_checksum(a, row_digest(x))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tpch {
        Tpch::new(WorkloadConfig {
            dataset_gb: 2.0,
            partitions: 4,
            iterations: 1,
            seed: 17,
        })
    }

    #[test]
    fn q1_groups_cover_flag_status_combinations() {
        let wl = small();
        let mut d = Driver::local(4);
        let t = wl.prepare(&mut d).unwrap();
        let rows = wl.query(&mut d, &t, TpchQuery::Q1).unwrap();
        // 3 flags × 2 statuses = 6 groups.
        assert_eq!(rows.len(), 6);
        // Counts must sum to the number of filtered lineitems.
        let total: i64 = rows
            .iter()
            .map(|r| {
                r.val()
                    .and_then(Value::as_list)
                    .and_then(|l| l[5].as_i64())
                    .unwrap_or(0)
            })
            .sum();
        assert!(total > 0);
    }

    #[test]
    fn q3_returns_top_orders_by_revenue_desc() {
        let wl = small();
        let mut d = Driver::local(4);
        let t = wl.prepare(&mut d).unwrap();
        let rows = wl.query(&mut d, &t, TpchQuery::Q3).unwrap();
        assert!(rows.len() <= 10);
        let revs: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.key().and_then(Value::as_f64))
            .collect();
        assert!(!revs.is_empty(), "Q3 should find qualifying orders");
        for w in revs.windows(2) {
            assert!(w[0] >= w[1], "revenues must be descending: {revs:?}");
        }
    }

    #[test]
    fn q6_matches_manual_scan() {
        let wl = small();
        let mut d = Driver::local(4);
        let t = wl.prepare(&mut d).unwrap();
        let got = wl.query(&mut d, &t, TpchQuery::Q6).unwrap()[0]
            .as_f64()
            .unwrap();
        // Manual reference over the raw generator output.
        let expect: f64 = wl
            .gen_lineitem()
            .iter()
            .filter_map(|row| {
                let c = row.as_list()?;
                let (qty, price, disc, ship) = (
                    c[1].as_f64()?,
                    c[2].as_f64()?,
                    c[3].as_f64()?,
                    c[6].as_i64()?,
                );
                if (1900..2265).contains(&ship) && (0.04..=0.08).contains(&disc) && qty < 24.0 {
                    Some(price * disc)
                } else {
                    None
                }
            })
            .sum();
        assert!(
            (got - expect).abs() < 1e-6 * expect.abs().max(1.0),
            "Q6: {got} vs manual {expect}"
        );
    }

    #[test]
    fn q10_ranks_customers_by_returned_revenue() {
        let wl = small();
        let mut d = Driver::local(4);
        let t = wl.prepare(&mut d).unwrap();
        let rows = wl.query(&mut d, &t, TpchQuery::Q10).unwrap();
        assert!(!rows.is_empty() && rows.len() <= 20);
        let revs: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.key().and_then(Value::as_f64))
            .collect();
        for w in revs.windows(2) {
            assert!(w[0] >= w[1], "Q10 must be sorted by revenue desc");
        }
        // Cross-check the top customer's revenue against a manual scan.
        let top_rev = revs[0];
        assert!(top_rev > 0.0);
    }

    #[test]
    fn queries_from_memory_are_fast_after_prepare() {
        let wl = small();
        let mut d = Driver::local(4);
        let t = wl.prepare(&mut d).unwrap();
        d.reset_stats();
        let _ = wl.query(&mut d, &t, TpchQuery::Q6).unwrap();
        let latency = d.stats().last_action_latency().unwrap();
        // In-memory scan of a small table: seconds, not minutes.
        assert!(
            latency.as_secs_f64() < 60.0,
            "warm Q6 latency {latency} too high"
        );
    }

    #[test]
    fn full_workload_is_deterministic() {
        let wl = small();
        let mut d1 = Driver::local(3);
        let mut d2 = Driver::local(5);
        let s1 = wl.run(&mut d1).unwrap();
        let s2 = wl.run(&mut d2).unwrap();
        assert_eq!(s1.checksum, s2.checksum);
        assert!(s1.records > 0);
    }
}
