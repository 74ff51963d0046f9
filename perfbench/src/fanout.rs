//! `tri-fanout-serve`: one `ServeNode` with 64 callback subscribers over
//! a four-query catalog — the self-join triangle count, an α-renamed
//! copy of it, the triangle listing and the 4-cycle count — which dedups
//! to three engines over a shared store. A skewed sliding-window stream
//! of medium batches is interleaved with full reads of a listing view.

use crate::reference::{edges, four_cycle_count, sketch_add, triangle_listing, Edges};
use crate::trace::Tracer;
use crate::util::{int, peak_rss_mib, timed, Report, Rng, StreamStats};
use crate::Args;
use ivm_core::Maintainer;
use ivm_data::ops::lift_one;
use ivm_data::{sym, tup, vars, Database, Relation, Sym, Update};
use ivm_dataflow::{DataflowEngine, DataflowStats, JoinStrategy};
use ivm_query::{Atom, Query};
use ivm_serve::{ServeNode, SubId, ViewDelta};
use ivm_session::MetricsRegistry;
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

const SUBSCRIBERS: usize = 64;
/// Edges land among the hub nodes with probability `HUB_SHARE` (per
/// relation), otherwise over the tail nodes.
const HUB: u64 = 32;
const TAIL: u64 = 4_000;
const HUB_SHARE: [f64; 5] = [0.75, 0.25, 0.25, 0.25, 0.25];
/// Relations: the triangle edge relation, then the 4-cycle's four.
const NAMES: [&str; 5] = ["pb_sv_E", "pb_sv_4R", "pb_sv_4S", "pb_sv_4T", "pb_sv_4U"];
/// Window (= preload) size and inserts per batch, per relation; every
/// insert is paired with a delete of the relation's oldest edge.
const WINDOW: [usize; 5] = [20_000, 6_000, 6_000, 6_000, 6_000];
const PER_BATCH: [usize; 5] = [16, 2, 2, 2, 2];
/// Ingest calls per round; each round ends with one full read.
const ROUND: usize = 16;
const SETUPS: usize = 5;

/// Catalog entry `i % 4`: 0 the count, 1 its α-renamed rotation, 2 the
/// listing, 3 the 4-cycle count.
fn catalog(i: usize) -> Query {
    let [e, r, s, t, u] = NAMES.map(sym);
    match i % 4 {
        0 => {
            let [a, b, c] = vars(["pb_sv_A", "pb_sv_B", "pb_sv_C"]);
            let atoms = vec![
                Atom::new(e, [a, b]),
                Atom::new(e, [b, c]),
                Atom::new(e, [c, a]),
            ];
            Query::new("pb_sv_tri", [], atoms)
        }
        1 => {
            let [x, y, z] = vars(["pb_sv_X", "pb_sv_Y", "pb_sv_Z"]);
            let atoms = vec![
                Atom::new(e, [y, z]),
                Atom::new(e, [z, x]),
                Atom::new(e, [x, y]),
            ];
            Query::new("pb_sv_tri_renamed", [], atoms)
        }
        2 => {
            let [a, b, c] = vars(["pb_sv_LA", "pb_sv_LB", "pb_sv_LC"]);
            let atoms = vec![
                Atom::new(e, [a, b]),
                Atom::new(e, [b, c]),
                Atom::new(e, [c, a]),
            ];
            Query::new("pb_sv_tri_listing", [a, b, c], atoms)
        }
        _ => {
            let [a, b, c, d] = vars(["pb_sv_4A", "pb_sv_4B", "pb_sv_4C", "pb_sv_4D"]);
            let atoms = vec![
                Atom::new(r, [a, b]),
                Atom::new(s, [b, c]),
                Atom::new(t, [c, d]),
                Atom::new(u, [d, a]),
            ];
            Query::new("pb_sv_cycle4", [], atoms)
        }
    }
}

struct Gen {
    rng: Rng,
    names: [Sym; 5],
    window: [VecDeque<(u64, u64)>; 5],
}

impl Gen {
    fn new(seed: u64) -> Self {
        let mut g = Gen {
            rng: Rng::new(seed),
            names: NAMES.map(sym),
            window: Default::default(),
        };
        for (i, &n) in WINDOW.iter().enumerate() {
            for _ in 0..n {
                let e = g.edge(i);
                g.window[i].push_back(e);
            }
        }
        g
    }

    fn edge(&mut self, rel: usize) -> (u64, u64) {
        if self.rng.unit() < HUB_SHARE[rel] {
            (self.rng.below(HUB), self.rng.below(HUB))
        } else {
            (HUB + self.rng.below(TAIL), HUB + self.rng.below(TAIL))
        }
    }

    fn preload(&self) -> Vec<Update<i64>> {
        let mut b = Vec::new();
        for (i, w) in self.window.iter().enumerate() {
            for &(x, y) in w {
                b.push(Update::insert(self.names[i], tup![x as i64, y as i64]));
            }
        }
        b
    }

    fn batch(&mut self) -> Vec<Update<i64>> {
        let mut b = Vec::new();
        for (i, &n) in PER_BATCH.iter().enumerate() {
            for _ in 0..n {
                let (x, y) = self.edge(i);
                b.push(Update::insert(self.names[i], tup![x as i64, y as i64]));
                self.window[i].push_back((x, y));
                let (ox, oy) = self.window[i].pop_front().expect("window never empties");
                b.push(Update::delete(self.names[i], tup![ox as i64, oy as i64]));
            }
        }
        b
    }

    fn relation(&self, i: usize) -> Edges {
        edges(self.window[i].iter().map(|&(x, y)| (x, y, 1)))
    }
}

/// Callback times of the current epoch: first and last delivery.
#[derive(Default)]
struct Deliveries {
    first: Cell<Option<Instant>>,
    last: Cell<Option<Instant>>,
}

/// What every subscriber folded out of its deltas: the running count for
/// the count views, a linear sketch for the listing.
struct Tally {
    entry: usize,
    count: Rc<Cell<i64>>,
    sketch: Rc<Cell<u64>>,
}

struct Node {
    node: ServeNode<i64>,
    listing_id: SubId,
    tallies: Vec<Tally>,
    deliveries: Rc<Deliveries>,
}

/// Subscribe the catalog and ingest the preload: the serve workload's
/// set-up.
fn build(preload: &[Update<i64>], registry: Option<&MetricsRegistry>) -> Result<Node, String> {
    let mut node = ServeNode::<i64>::new();
    if let Some(r) = registry {
        node.observe(r);
    }
    let deliveries = Rc::new(Deliveries::default());
    let mut tallies = Vec::with_capacity(SUBSCRIBERS);
    let mut listing_id = None;
    for i in 0..SUBSCRIBERS {
        let tally = Tally {
            entry: i % 4,
            count: Rc::default(),
            sketch: Rc::default(),
        };
        let (count, sketch, dl) = (
            tally.count.clone(),
            tally.sketch.clone(),
            deliveries.clone(),
        );
        let listing = i % 4 == 2;
        let id = node
            .subscribe_with(catalog(i), move |vd: &ViewDelta<i64>| {
                if listing {
                    let mut acc = sketch.get();
                    for (t, m) in vd.delta.iter() {
                        let v = t.values();
                        sketch_add(&mut acc, &[int(&v[0]), int(&v[1]), int(&v[2])], *m);
                    }
                    sketch.set(acc);
                } else {
                    count.set(count.get() + vd.delta.iter().map(|(_, m)| *m).sum::<i64>());
                }
                let now = Instant::now();
                if dl.first.get().is_none() {
                    dl.first.set(Some(now));
                }
                dl.last.set(Some(now));
            })
            .map_err(|e| e.to_string())?;
        if listing && listing_id.is_none() {
            listing_id = Some(id);
        }
        tallies.push(tally);
    }
    node.apply_batch(preload).map_err(|e| e.to_string())?;
    Ok(Node {
        node,
        listing_id: listing_id.expect("the catalog has a listing entry"),
        tallies,
        deliveries,
    })
}

impl Node {
    /// Ingest one batch; returns the call's own duration and the time
    /// from its start until the epoch's last callback ran.
    fn ingest(&mut self, batch: &[Update<i64>]) -> (Result<(), String>, Duration, Duration) {
        self.deliveries.first.set(None);
        self.deliveries.last.set(None);
        let t0 = Instant::now();
        let r = self.node.apply_batch(batch).map_err(|e| e.to_string());
        let d = t0.elapsed();
        let visible = self.deliveries.last.get().map_or(d, |t| t - t0);
        (r, d, visible)
    }

    fn fanout(&self) -> Duration {
        match (self.deliveries.first.get(), self.deliveries.last.get()) {
            (Some(a), Some(b)) => b - a,
            _ => Duration::ZERO,
        }
    }
}

/// The three deduped engines, bare: count, listing, 4-cycle.
const BARE: [(usize, &str); 3] = [
    (0, "dataflow.tri_count_apply"),
    (2, "dataflow.tri_listing_apply"),
    (3, "dataflow.cycle4_apply"),
];

struct Layers {
    twin: Node,
    /// Each bare engine with the relations its query reads.
    bare: Vec<(DataflowEngine<i64>, Vec<Sym>)>,
    base: Vec<DataflowStats>,
    /// Where the bare engines publish their per-operator counters.
    op_registry: MetricsRegistry,
}

pub fn run(args: &Args, rep: &mut Report, mut tr: Option<&mut Tracer>) {
    let mut gen = Gen::new(args.seed);
    let preload = gen.preload();
    rep.notes.push(format!(
        "input: {SUBSCRIBERS} callback subscribers over 4 catalog queries; windows \
         E={} and 4R..4U={} edges each; an edge joins two of {HUB} hub nodes with \
         probability {} (E) or {} (4R..4U), else two of {TAIL} tail nodes; batches \
         of {} updates (half inserts, half deletes of the oldest); one full listing \
         read per {ROUND} ingest calls",
        WINDOW[0],
        WINDOW[1],
        HUB_SHARE[0],
        HUB_SHARE[1],
        2 * PER_BATCH.iter().sum::<usize>()
    ));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut node = None;
    for _ in 0..SETUPS {
        drop(node.take());
        let (n, d) = timed(|| build(&preload, None));
        setups.push(d.as_secs_f64());
        node = rep.call("build", n);
    }
    let Some(mut node) = node else { return };
    rep.set_setup(&setups, tr.is_some());
    rep.notes.push(format!(
        "groups: {} engines for {} subscribers",
        node.node.group_count(),
        node.node.subscriber_count()
    ));

    let registry = MetricsRegistry::new();
    let mut layers = tr.as_mut().map(|_| {
        let twin = build(&preload, Some(&registry)).expect("observed twin builds");
        let mut db = Database::new();
        for (i, name) in gen.names.iter().enumerate() {
            let atom = if i == 0 {
                catalog(0).atoms[0].clone()
            } else {
                catalog(3).atoms[i - 1].clone()
            };
            let mut rel = Relation::new(atom.schema);
            for &(x, y) in &gen.window[i] {
                rel.apply(tup![x as i64, y as i64], &1);
            }
            db.add(*name, rel);
        }
        let op_registry = MetricsRegistry::new();
        let bare: Vec<(DataflowEngine<i64>, Vec<Sym>)> = BARE
            .iter()
            .map(|&(entry, label)| {
                let q = catalog(entry);
                let rels = q.atoms.iter().map(|a| a.name).collect();
                let mut e =
                    DataflowEngine::new_with_strategy(q, &db, lift_one, JoinStrategy::Multiway)
                        .expect("bare engine builds");
                e.observe(&op_registry, label);
                (e, rels)
            })
            .collect();
        let base = bare.iter().map(|(e, _)| e.stats()).collect();
        Layers {
            twin,
            bare,
            base,
            op_registry,
        }
    });

    let mut st = StreamStats::default();
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        st.begin_round();
        for _ in 0..ROUND {
            let batch = gen.batch();
            if let Some(tr) = tr.as_mut() {
                tr.begin("ingest");
            }
            let (r, d, visible) = node.ingest(&batch);
            rep.call("ingest", r);
            st.record_visible(d, visible, batch.len());
            if let (Some(tr), Some(l)) = (tr.as_mut(), layers.as_mut()) {
                tr.record("serve.apply_batch", d);
                tr.record("serve.fanout", node.fanout());
                tr.begin("obs.serve.apply_batch");
                let (r, _, _) = l.twin.ingest(&batch);
                tr.end();
                r.expect("twin ingests");
                for ((e, rels), &(_, label)) in l.bare.iter_mut().zip(&BARE) {
                    let sub: Vec<Update<i64>> = batch
                        .iter()
                        .filter(|u| rels.contains(&u.relation))
                        .cloned()
                        .collect();
                    tr.span(label, || e.apply_batch(&sub))
                        .expect("bare engine ingests");
                }
                tr.span("data.consolidate", || {
                    std::hint::black_box(ivm_data::consolidate(&batch))
                });
                tr.end();
            }
        }
        let (view, d) = timed(|| node.node.view(node.listing_id));
        rep.op("read", view.as_ref().is_some_and(|v| !v.is_empty()));
        st.record_read(d);
        if let Some(tr) = tr.as_mut() {
            tr.record("serve.view", d);
        }
        st.end_round();
    }
    if tr.is_none() {
        st.report(rep);
        rep.set("peak_rss_mb", peak_rss_mib());
    }

    // Checks against the benchmark's own listing and 4-cycle count.
    let e = gen.relation(0);
    let listing = triangle_listing(&e);
    let count: i64 = listing.values().sum();
    let mut sketch = 0u64;
    for (&(a, b, c), &m) in &listing {
        sketch_add(&mut sketch, &[a as i64, b as i64, c as i64], m);
    }
    let cycles = four_cycle_count(
        &gen.relation(1),
        &gen.relation(2),
        &gen.relation(3),
        &gen.relation(4),
    );
    let mut agree = [true; 4];
    for t in &node.tallies {
        agree[t.entry] &= match t.entry {
            0 | 1 => t.count.get() == count,
            2 => t.sketch.get() == sketch,
            _ => t.count.get() == cycles,
        };
    }
    rep.check("count subscribers = reference count", agree[0]);
    rep.check("α-renamed subscribers = reference count", agree[1]);
    rep.check(
        "listing subscribers' deltas sum to the reference listing",
        agree[2],
    );
    rep.check("4-cycle subscribers = reference 4-cycle count", agree[3]);
    let full = node.node.view(node.listing_id).map(|v| {
        v.len() == listing.len()
            && v.iter().all(|(t, m)| {
                let x = t.values();
                let key = (int(&x[0]) as u64, int(&x[1]) as u64, int(&x[2]) as u64);
                listing.get(&key) == Some(m)
            })
    });
    rep.check("full listing read = reference listing", full == Some(true));

    if let (Some(tr), Some(l)) = (tr, layers) {
        let updates = st.updates as f64;
        let bare_us: f64 = BARE.iter().map(|(_, label)| tr.mean_us(label)).sum();
        rep.set("serve.apply_us", tr.mean_us("serve.apply_batch"));
        rep.set(
            "serve.overhead_us",
            tr.mean_us("serve.apply_batch") - bare_us,
        );
        rep.set("serve.fanout_us", tr.mean_us("serve.fanout"));
        rep.set("serve.groups", node.node.group_count() as f64);
        rep.set("serve.resident_tuples", node.node.resident_tuples() as f64);
        rep.set("serve.view_us", tr.mean_us("serve.view"));
        rep.set("dataflow.apply_us", bare_us);
        rep.set("dataflow.tri_count_apply_us", tr.mean_us(BARE[0].1));
        rep.set("dataflow.tri_listing_apply_us", tr.mean_us(BARE[1].1));
        rep.set("dataflow.cycle4_apply_us", tr.mean_us(BARE[2].1));
        let mut delta = DataflowStats::default();
        for ((e, _), b) in l.bare.iter().zip(&l.base) {
            delta.merge(&e.stats().since(b));
        }
        rep.set(
            "dataflow.multiway_seeds_per_update",
            delta.multiway_seeds as f64 / updates,
        );
        rep.set(
            "dataflow.multiway_probes_per_update",
            delta.multiway_probes as f64 / updates,
        );
        rep.set(
            "dataflow.intersections_per_update",
            delta.multiway_intersections as f64 / updates,
        );
        rep.set(
            "dataflow.output_delta_tuples_per_update",
            delta.output_delta_tuples as f64 / updates,
        );
        rep.set(
            "dataflow.binary_join_tuples_per_update",
            delta.binary_join_tuples as f64 / updates,
        );
        let calls = st.visible_us.len() as f64;
        let ops = l.op_registry.snapshot();
        let op_us = |kind: &str| {
            let ns: u64 = ops
                .counters
                .iter()
                .filter(|(k, _)| k.ends_with(&format!(".{kind}.apply_ns")))
                .map(|(_, v)| v)
                .sum();
            ns as f64 / 1e3 / calls
        };
        rep.set("dataflow.multiway_join_us", op_us("multiway_join"));
        rep.set("dataflow.group_aggregate_us", op_us("group_aggregate"));
        rep.set("data.consolidate_us", tr.mean_us("data.consolidate"));
        let waterfalls = ivm_obs::EpochWaterfall::from_events(&registry.tracer().events());
        rep.set_obs(tr, &st, "obs.serve.apply_batch", &waterfalls);
    }
}
