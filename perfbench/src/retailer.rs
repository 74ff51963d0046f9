//! `retailer-viewtree` and `retailer-fleet`: the paper's Fig 4 retailer
//! join (q-hierarchical, five relations) behind a `Session` —
//! auto-selected to the factorized view tree, or through `.shards(2)` to
//! a two-worker fleet. Both see the same stream: large Inventory batches
//! that insert new rows and retract the oldest live ones, with a full
//! enumeration of the output once per round.

use crate::reference::{retailer_join, sketch_add, RetailerBase, RetailerRow};
use crate::trace::Tracer;
use crate::util::{int, peak_rss_mib, timed, Report, Rng, StreamStats};
use crate::Args;
use ivm_core::{EagerFactEngine, Maintainer};
use ivm_data::ops::lift_one;
use ivm_data::{sym, vars, Database, Relation, Sym, Tuple, Update};
use ivm_dataflow::DataflowEngine;
use ivm_query::{Atom, Query};
use ivm_session::{MetricsRegistry, Session};
use ivm_shard::{ShardedEngine, ShardedStats};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

const LOCATIONS: u64 = 100;
const DATES: u64 = 20;
const ITEMS: u64 = 100;
/// Locations per zip code.
const PER_ZIP: u64 = 4;
const SALES: usize = 150_000;
/// Live Inventory rows (the preload, kept constant by the stream).
const INVENTORY: usize = 60_000;
/// Updates per ingest call: half inserts, half retractions of the
/// oldest live rows.
const BATCH: usize = 1_000;
/// Ingest calls per round; each round ends with one full enumeration.
const ROUND: usize = 50;
const SHARDS: usize = 2;
/// Builds per run; `setup_s` is their median. More than the triangle
/// workloads take, because each build is shorter.
const SETUPS: usize = 7;

/// Relation names in atom order.
const NAMES: [&str; 5] = [
    "pb_ret_Inventory",
    "pb_ret_Sales",
    "pb_ret_Weather",
    "pb_ret_Location",
    "pb_ret_Census",
];

fn query() -> Query {
    let [locn, dateid, ksn, units, rain, zip, pop] = vars([
        "pb_ret_locn",
        "pb_ret_dateid",
        "pb_ret_ksn",
        "pb_ret_units",
        "pb_ret_rain",
        "pb_ret_zip",
        "pb_ret_population",
    ]);
    let [inv, sales, weather, location, census] = NAMES.map(sym);
    Query::new(
        "pb_ret_Q",
        [locn, dateid, ksn, units, rain, zip, pop],
        vec![
            Atom::new(inv, [locn, dateid, ksn]),
            Atom::new(sales, [locn, dateid, ksn, units]),
            Atom::new(weather, [locn, dateid, rain]),
            Atom::new(location, [locn, zip]),
            Atom::new(census, [locn, zip, pop]),
        ],
    )
}

struct Gen {
    rng: Rng,
    inventory: Sym,
    /// The four static relations (Inventory left empty).
    dims: RetailerBase,
    /// Live Inventory rows, oldest first.
    window: VecDeque<[i64; 3]>,
}

impl Gen {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut dims = RetailerBase::default();
        for l in 0..LOCATIONS as i64 {
            let zip = l / PER_ZIP as i64;
            dims.location.insert([l, zip], 1);
            dims.census
                .insert([l, zip, 1_000 + rng.below(9_000) as i64], 1);
            for d in 0..DATES as i64 {
                dims.weather.insert([l, d, i64::from(rng.below(10) < 3)], 1);
            }
        }
        for _ in 0..SALES {
            let row = [
                rng.below(LOCATIONS) as i64,
                rng.below(DATES) as i64,
                rng.below(ITEMS) as i64,
                1 + rng.below(19) as i64,
            ];
            *dims.sales.entry(row).or_insert(0) += 1;
        }
        let mut g = Gen {
            rng,
            inventory: sym(NAMES[0]),
            dims,
            window: VecDeque::with_capacity(INVENTORY),
        };
        for _ in 0..INVENTORY {
            let row = g.row();
            g.window.push_back(row);
        }
        g
    }

    fn row(&mut self) -> [i64; 3] {
        [
            self.rng.below(LOCATIONS) as i64,
            self.rng.below(DATES) as i64,
            self.rng.below(ITEMS) as i64,
        ]
    }

    fn batch(&mut self) -> Vec<Update<i64>> {
        let mut b = Vec::with_capacity(BATCH);
        for _ in 0..BATCH / 2 {
            let row = self.row();
            b.push(Update::insert(self.inventory, Tuple::from(row)));
            self.window.push_back(row);
            let old = self.window.pop_front().expect("window never empties");
            b.push(Update::delete(self.inventory, Tuple::from(old)));
        }
        b
    }

    /// The five relations as they stand now, as a multiset per relation.
    fn base(&self) -> RetailerBase {
        let mut inventory = HashMap::new();
        for row in &self.window {
            *inventory.entry(*row).or_insert(0) += 1;
        }
        RetailerBase {
            inventory,
            sales: self.dims.sales.clone(),
            weather: self.dims.weather.clone(),
            location: self.dims.location.clone(),
            census: self.dims.census.clone(),
        }
    }

    /// The same relations as the program's input database.
    fn database(&self, q: &Query) -> Database<i64> {
        let b = self.base();
        let rows: [Vec<(Vec<i64>, i64)>; 5] = [
            b.inventory.iter().map(|(r, m)| (r.to_vec(), *m)).collect(),
            b.sales.iter().map(|(r, m)| (r.to_vec(), *m)).collect(),
            b.weather.iter().map(|(r, m)| (r.to_vec(), *m)).collect(),
            b.location.iter().map(|(r, m)| (r.to_vec(), *m)).collect(),
            b.census.iter().map(|(r, m)| (r.to_vec(), *m)).collect(),
        ];
        let mut db = Database::new();
        for (atom, rows) in q.atoms.iter().zip(rows) {
            let mut rel = Relation::new(atom.schema.clone());
            for (r, m) in rows {
                rel.apply(
                    Tuple::from_iter(r.into_iter().map(ivm_data::Value::from)),
                    &m,
                );
            }
            db.add(atom.name, rel);
        }
        db
    }
}

fn build(
    q: &Query,
    db: &Database<i64>,
    fleet: bool,
    registry: Option<&MetricsRegistry>,
) -> Result<Session<i64>, ivm_core::EngineError> {
    let mut b = Session::<i64>::builder(q.clone());
    if fleet {
        b = b.shards(SHARDS);
    }
    if let Some(r) = registry {
        b = b.observe(r);
    }
    b.build(db)
}

/// One full read of a maintained output: its row count and linear
/// sketch, folded as the rows stream by.
fn read(m: &mut dyn Maintainer<i64>) -> (usize, u64) {
    let (mut rows, mut sketch) = (0usize, 0u64);
    m.for_each_output(&mut |t, r| {
        let v = t.values();
        let row: [i64; 7] = std::array::from_fn(|i| int(&v[i]));
        sketch_add(&mut sketch, &row, *r);
        rows += 1;
    });
    (rows, sketch)
}

fn materialize(m: &mut dyn Maintainer<i64>) -> HashMap<RetailerRow, i64> {
    let mut out = HashMap::new();
    m.for_each_output(&mut |t, r| {
        let v = t.values();
        *out.entry(std::array::from_fn(|i| int(&v[i]))).or_insert(0) += *r;
    });
    out.retain(|_, m| *m != 0);
    out
}

/// The bare layers the traced run replays each batch through (one per
/// run, so the variants' size difference does not matter).
#[allow(clippy::large_enum_variant)]
enum Bare {
    ViewTree(EagerFactEngine<i64>),
    Fleet {
        fleet: ShardedEngine<i64>,
        fleet_base: ShardedStats,
        single: DataflowEngine<i64>,
    },
}

struct Layers {
    twin: Session<i64>,
    bare: Bare,
    bare_build: Duration,
}

pub fn run(args: &Args, fleet: bool, rep: &mut Report, mut tr: Option<&mut Tracer>) {
    let q = query();
    let mut gen = Gen::new(args.seed);
    let db = gen.database(&q);
    rep.notes.push(format!(
        "input: {LOCATIONS} locations x {DATES} dates x {ITEMS} items; {SALES} Sales \
         rows; {INVENTORY} live Inventory rows; batches of {BATCH} ({} inserts + {} \
         retractions of the oldest rows); one full enumeration per {ROUND} ingest \
         calls; {}",
        BATCH / 2,
        BATCH / 2,
        if fleet {
            format!("{SHARDS}-shard fleet")
        } else {
            "auto-selected engine".into()
        }
    ));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut session = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let (s, d) = timed(|| build(&q, &db, fleet, None));
        setups.push(d.as_secs_f64());
        session = rep.call("build", s);
    }
    let Some(mut session) = session else { return };
    rep.set_setup(&setups, tr.is_some());
    rep.notes.push(format!("engine: {}", session.describe()));

    let registry = MetricsRegistry::new();
    let mut layers = tr.as_mut().map(|_| {
        let twin = build(&q, &db, fleet, Some(&registry)).expect("observed twin builds");
        let t0 = Instant::now();
        let bare = if fleet {
            let fleet = ShardedEngine::new(q.clone(), &db, lift_one, SHARDS).expect("bare fleet");
            let single = DataflowEngine::new(q.clone(), &db, lift_one).expect("bare dataflow");
            Bare::Fleet {
                fleet_base: fleet.sharded_stats(),
                fleet,
                single,
            }
        } else {
            Bare::ViewTree(EagerFactEngine::new(q.clone(), &db, lift_one).expect("bare view tree"))
        };
        Layers {
            twin,
            bare,
            bare_build: t0.elapsed(),
        }
    });

    let mut st = StreamStats::default();
    let started = Instant::now();
    let mut last_read = (0, 0);
    while started.elapsed() < args.seconds {
        st.begin_round();
        for _ in 0..ROUND {
            let batch = gen.batch();
            if let Some(tr) = tr.as_mut() {
                tr.begin("ingest");
            }
            let t0 = Instant::now();
            let r = session.apply_batch(&batch).map(|_| ());
            let d = t0.elapsed();
            rep.call("ingest", r);
            st.record(d, batch.len());
            if let (Some(tr), Some(l)) = (tr.as_mut(), layers.as_mut()) {
                tr.record("session.apply_batch", d);
                tr.span("obs.session.apply_batch", || l.twin.apply_batch(&batch))
                    .expect("twin ingests");
                match &mut l.bare {
                    Bare::ViewTree(e) => {
                        tr.span("core.apply_batch", || e.apply_batch(&batch))
                            .expect("core");
                    }
                    Bare::Fleet { fleet, single, .. } => {
                        tr.span("shard.enqueue_batch", || fleet.enqueue_batch(&batch))
                            .expect("enqueue");
                        tr.span("shard.drain", || fleet.drain()).expect("drain");
                        tr.span("dataflow.apply_batch", || single.apply_batch(&batch))
                            .expect("single dataflow");
                    }
                }
                tr.span("data.consolidate", || {
                    std::hint::black_box(ivm_data::consolidate(&batch))
                });
                tr.end();
            }
        }
        let (r, d) = timed(|| read(&mut session));
        rep.op("read", r.0 > 0);
        st.record_read(d);
        last_read = r;
        if let (Some(tr), Some(l)) = (tr.as_mut(), layers.as_mut()) {
            tr.record("session.read", d);
            if let Bare::ViewTree(e) = &mut l.bare {
                tr.span("core.enumerate", || std::hint::black_box(read(e)));
            }
        }
        st.end_round();
    }
    if tr.is_none() {
        st.report(rep);
        rep.set("peak_rss_mb", peak_rss_mib());
    }

    // Checks: the benchmark's own hash join, and the other engine path
    // built fresh over the final base.
    let expected = retailer_join(&gen.base());
    let got = materialize(&mut session);
    rep.check("output = reference join", got == expected);
    let mut sketch = 0u64;
    for (row, m) in &got {
        sketch_add(&mut sketch, row, *m);
    }
    rep.check(
        "last streamed read = final output",
        last_read == (got.len(), sketch),
    );
    let final_db = gen.database(&q);
    if let Some(mut other) = rep.call("build", build(&q, &final_db, !fleet, None)) {
        let agree = materialize(&mut other) == got;
        rep.check("view tree and fleet agree on the final base", agree);
    }

    if let (Some(tr), Some(l)) = (tr, layers) {
        let updates = st.updates as f64;
        rep.set("session.apply_us", tr.mean_us("session.apply_batch"));
        rep.set("session.read_us", tr.mean_us("session.read"));
        rep.set("data.consolidate_us", tr.mean_us("data.consolidate"));
        match &l.bare {
            Bare::ViewTree(e) => {
                rep.set(
                    "session.overhead_us",
                    tr.mean_us("session.apply_batch") - tr.mean_us("core.apply_batch"),
                );
                rep.set("core.apply_us", tr.mean_us("core.apply_batch"));
                rep.set("core.build_s", l.bare_build.as_secs_f64());
                rep.set("core.enumerate_us", tr.mean_us("core.enumerate"));
                rep.set("core.view_entries", e.tree().view_entries() as f64);
            }
            Bare::Fleet {
                fleet, fleet_base, ..
            } => {
                let fleet_us = tr.mean_us("shard.enqueue_batch") + tr.mean_us("shard.drain");
                rep.set(
                    "session.overhead_us",
                    tr.mean_us("session.apply_batch") - fleet_us,
                );
                rep.set("shard.enqueue_us", tr.mean_us("shard.enqueue_batch"));
                rep.set("shard.drain_us", tr.mean_us("shard.drain"));
                let now = fleet.sharded_stats();
                // Busy time over the stream only: the build's share of
                // each shard's clock is subtracted.
                let mut window = now.clone();
                for (busy, base) in window.busy.iter_mut().zip(&fleet_base.busy) {
                    *busy = busy.saturating_sub(*base);
                }
                rep.set("shard.busy_max_s", window.max_busy().as_secs_f64());
                rep.set("shard.balance", window.balance());
                rep.set(
                    "shard.broadcast_copies",
                    (now.router.broadcast_copies - fleet_base.router.broadcast_copies) as f64,
                );
                rep.set("dataflow.apply_us", tr.mean_us("dataflow.apply_batch"));
                rep.set(
                    "shard.speedup",
                    tr.mean_us("dataflow.apply_batch") / fleet_us,
                );
                let merged = now.merged().since(&fleet_base.merged());
                rep.set(
                    "dataflow.binary_join_tuples_per_update",
                    merged.binary_join_tuples as f64 / updates,
                );
                rep.set(
                    "dataflow.output_delta_tuples_per_update",
                    merged.output_delta_tuples as f64 / updates,
                );
            }
        }
        rep.set_obs(tr, &st, "obs.session.apply_batch", &l.twin.waterfalls());
    }
}
