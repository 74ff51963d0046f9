//! `tri-hub-durable`: the triangle count over three relations in an
//! adaptive, durable `Session` (auto-selected heavy-light, IVMε) with
//! `auto_snapshot`. A Zipf hub graph is preloaded; a sliding window of
//! small mixed-sign batches follows. After the timed stream come an
//! explicit snapshot, a fixed journal tail, a kill and a recovery.

use crate::reference::{edges, triangle_count, Edges};
use crate::trace::Tracer;
use crate::util::{count_of, peak_rss_mib, timed, Report, Rng, StreamStats, Zipf};
use crate::Args;
use ivm_core::Maintainer;
use ivm_data::ops::lift_one;
use ivm_data::{sym, tup, vars, Database, Relation, Sym, Update};
use ivm_hl::HeavyLightEngine;
use ivm_query::{Atom, Query};
use ivm_session::{MetricsRegistry, ReplanPolicy, Session};
use ivm_store::{Journal, Store};
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

/// Node ids drawn Zipf(`SKEW`) over `NODES` for both endpoints.
const NODES: usize = 50_000;
const SKEW: f64 = 1.0;
/// Edges preloaded per relation; also the sliding window's size.
const PRELOAD: usize = 100_000;
/// Updates per ingest call: half inserts, half deletes of the window's
/// oldest edges, spread round-robin over R, S, T.
const BATCH: usize = 192;
/// Ingest calls per round; a run attempts whole rounds.
const ROUND: usize = 16;
/// Builds per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `auto_snapshot` threshold on the journal size.
const AUTO_SNAPSHOT_BYTES: u64 = 16 << 20;
/// Ingest calls journaled after the explicit snapshot, before the kill.
const TAIL_CALLS: usize = 200;

const NAMES: [&str; 3] = ["pb_tri_R", "pb_tri_S", "pb_tri_T"];

fn query() -> Query {
    let [a, b, c] = vars(["pb_tri_A", "pb_tri_B", "pb_tri_C"]);
    let [r, s, t] = NAMES.map(sym);
    Query::new(
        "pb_tri_hub",
        [],
        vec![
            Atom::new(r, [a, b]),
            Atom::new(s, [b, c]),
            Atom::new(t, [c, a]),
        ],
    )
}

/// The seeded edge source and the live window of each relation — the
/// window is exactly the base the program should hold.
struct Gen {
    rng: Rng,
    zipf: Zipf,
    names: [Sym; 3],
    window: [VecDeque<(u64, u64)>; 3],
}

impl Gen {
    fn new(seed: u64) -> Self {
        let mut g = Gen {
            rng: Rng::new(seed),
            zipf: Zipf::new(NODES, SKEW),
            names: NAMES.map(sym),
            window: Default::default(),
        };
        for i in 0..3 {
            for _ in 0..PRELOAD {
                let e = g.edge();
                g.window[i].push_back(e);
            }
        }
        g
    }

    fn edge(&mut self) -> (u64, u64) {
        (
            self.zipf.sample(&mut self.rng),
            self.zipf.sample(&mut self.rng),
        )
    }

    fn preload_db(&self, q: &Query) -> Database<i64> {
        let mut db = Database::new();
        for (i, atom) in q.atoms.iter().enumerate() {
            let mut rel = Relation::new(atom.schema.clone());
            for &(x, y) in &self.window[i] {
                rel.apply(tup![x as i64, y as i64], &1);
            }
            db.add(atom.name, rel);
        }
        db
    }

    fn batch(&mut self) -> Vec<Update<i64>> {
        let mut b = Vec::with_capacity(BATCH);
        for i in 0..BATCH / 2 {
            let rel = i % 3;
            let (x, y) = self.edge();
            b.push(Update::insert(self.names[rel], tup![x as i64, y as i64]));
            self.window[rel].push_back((x, y));
            let (ox, oy) = self.window[rel].pop_front().expect("window never empties");
            b.push(Update::delete(self.names[rel], tup![ox as i64, oy as i64]));
        }
        b
    }

    fn reference_count(&self) -> i64 {
        let rel = |i: usize| -> Edges { edges(self.window[i].iter().map(|&(x, y)| (x, y, 1))) };
        triangle_count(&rel(0), &rel(1), &rel(2))
    }
}

fn build(
    q: &Query,
    db: &Database<i64>,
    dir: &Path,
    registry: Option<&MetricsRegistry>,
) -> Result<Session<i64>, ivm_core::EngineError> {
    let mut b = Session::<i64>::builder(q.clone())
        .adaptive(ReplanPolicy::default())
        .durable(dir)
        .auto_snapshot(AUTO_SNAPSHOT_BYTES);
    if let Some(r) = registry {
        b = b.observe(r);
    }
    b.build(db)
}

pub fn run(args: &Args, rep: &mut Report, mut tr: Option<&mut Tracer>) {
    let q = query();
    let mut gen = Gen::new(args.seed);
    let db = gen.preload_db(&q);
    let dir = args
        .state_dir
        .join(format!("tri-hub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    rep.notes.push(format!(
        "input: R,S,T each {PRELOAD} Zipf({SKEW}) edges over {NODES} nodes; \
         sliding-window batches of {BATCH} ({} inserts + {} deletes), {ROUND} calls \
         per round; auto_snapshot at {AUTO_SNAPSHOT_BYTES} journal bytes; tail \
         {TAIL_CALLS} calls; journal in {}; flush policy: the program's own, one \
         fsync per ingest call",
        BATCH / 2,
        BATCH / 2,
        dir.display()
    ));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut session = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let (s, d) = timed(|| build(&q, &db, &dir, None));
        setups.push(d.as_secs_f64());
        session = rep.call("build", s);
    }
    let Some(mut session) = session else { return };
    rep.set_setup(&setups, tr.is_some());
    rep.notes.push(format!("engine: {}", session.describe()));
    let count = count_of(&mut session);
    rep.check("preload count = reference", count == gen.reference_count());

    // Traced run only: the same batches through an observed twin
    // session, the bare heavy-light engine and a bare journal.
    let registry = MetricsRegistry::new();
    let mut layers = tr.as_mut().map(|tr| {
        let twin_dir = args
            .state_dir
            .join(format!("tri-hub-obs-{}", std::process::id()));
        let twin = build(&q, &db, &twin_dir, Some(&registry)).expect("observed twin builds");
        tr.begin("hl.build");
        let hl = HeavyLightEngine::new(q.clone(), &db, lift_one).expect("bare heavy-light builds");
        let hl_build = tr.end();
        let journal = Journal::create(twin_dir.join("bare-journal.ivm")).expect("bare journal");
        Layers {
            twin,
            twin_dir,
            hl,
            hl_build,
            journal,
        }
    });
    let hl_base = layers.as_ref().map(|l| l.hl.stats());

    let mut st = StreamStats::default();
    let started = Instant::now();
    let mut epoch = 0u64;
    while started.elapsed() < args.seconds {
        st.begin_round();
        for _ in 0..ROUND {
            let batch = gen.batch();
            epoch += 1;
            if let Some(tr) = tr.as_mut() {
                tr.begin("ingest");
            }
            let t0 = Instant::now();
            let ok = session.apply_batch(&batch).map(|_| ());
            let d = t0.elapsed();
            rep.call("ingest", ok);
            st.record(d, batch.len());
            if let (Some(tr), Some(l)) = (tr.as_mut(), layers.as_mut()) {
                tr.record("session.apply_batch", d);
                tr.span("obs.session.apply_batch", || l.twin.apply_batch(&batch))
                    .expect("twin ingests");
                tr.span("hl.apply_batch", || l.hl.apply_batch(&batch))
                    .expect("bare engine ingests");
                tr.span("store.append_commit", || {
                    l.journal.append(epoch, &batch);
                    l.journal.commit()
                })
                .expect("bare journal commits");
                tr.span("data.consolidate", || {
                    std::hint::black_box(ivm_data::consolidate(&batch))
                });
                tr.end();
            }
        }
        st.end_round();
    }
    if tr.is_none() {
        st.report(rep);
        rep.set("peak_rss_mb", peak_rss_mib());
    }
    rep.check(
        "stream count = reference",
        count_of(&mut session) == gen.reference_count(),
    );

    let (snap, snapshot_time) = timed(|| session.snapshot());
    rep.call("snapshot", snap);
    for _ in 0..TAIL_CALLS {
        let batch = gen.batch();
        let r = session.apply_batch(&batch).map(|_| ());
        rep.call("ingest", r);
    }
    let before_kill = count_of(&mut session);
    let replans = session.explain().replans.len();
    let resident = session.resident_tuples().unwrap_or(0);
    drop(session);

    let load = tr.is_some().then(|| timed(|| Store::recover::<i64>(&dir)));
    let (recovered, recover_time) = timed(|| {
        Session::<i64>::builder(q.clone())
            .adaptive(ReplanPolicy::default())
            .auto_snapshot(AUTO_SNAPSHOT_BYTES)
            .recover(&dir, &db)
    });
    if let Some(mut recovered) = rep.call("recover", recovered) {
        let after = count_of(&mut recovered);
        rep.check("recovered count = pre-kill count", after == before_kill);
        rep.check(
            "recovered count = reference",
            after == gen.reference_count(),
        );
    }

    if let (Some(tr), Some(l)) = (tr, layers) {
        let updates = st.updates as f64;
        let hl = l.hl.stats();
        let base = hl_base.expect("set with layers");
        rep.set("session.apply_us", tr.mean_us("session.apply_batch"));
        rep.set(
            "session.overhead_us",
            tr.mean_us("session.apply_batch") - tr.mean_us("hl.apply_batch"),
        );
        rep.set("session.resident_tuples", resident as f64);
        rep.set("session.replans", replans as f64);
        rep.set("session.snapshot_s", snapshot_time.as_secs_f64());
        rep.set("session.recover_s", recover_time.as_secs_f64());
        rep.set("hl.apply_us", tr.mean_us("hl.apply_batch"));
        rep.set("hl.build_s", l.hl_build.as_secs_f64());
        rep.set("hl.work_per_update", (hl.work - base.work) as f64 / updates);
        rep.set("hl.migrations", (hl.migrations - base.migrations) as f64);
        rep.set("hl.rebalances", (hl.rebalances - base.rebalances) as f64);
        rep.set("hl.heavy_hits", (hl.heavy_hits - base.heavy_hits) as f64);
        rep.set("hl.light_scans", (hl.light_scans - base.light_scans) as f64);
        rep.set("hl.view_entries", l.hl.view_entries() as f64);
        rep.set("store.commit_us", tr.mean_us("store.append_commit"));
        let m = l.twin.metrics();
        rep.set("store.commits", m.counter("ivm.store.commits") as f64);
        rep.set(
            "store.journal_bytes_per_update",
            l.journal.committed_bytes() as f64 / updates,
        );
        let snap_bytes =
            std::fs::metadata(dir.join(ivm_store::snapshot::SNAPSHOT_FILE)).map_or(0, |m| m.len());
        rep.set("store.snapshot_bytes", snap_bytes as f64);
        if let Some((Ok(r), d)) = load {
            rep.set("store.load_s", d.as_secs_f64());
            rep.set("store.replay_updates", r.tail_updates() as f64);
        }
        rep.set("data.consolidate_us", tr.mean_us("data.consolidate"));
        rep.set_obs(tr, &st, "obs.session.apply_batch", &l.twin.waterfalls());
        drop(l.twin);
        let _ = std::fs::remove_dir_all(&l.twin_dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

struct Layers {
    twin: Session<i64>,
    twin_dir: std::path::PathBuf,
    hl: HeavyLightEngine<i64>,
    hl_build: Duration,
    journal: Journal,
}
