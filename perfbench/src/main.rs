//! `perfbench`: one end-to-end run of the IVM stack on one workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--state-dir <dir>] [--rev <git revision>]
//! ```
//!
//! Each run builds the program over a seeded preload several times
//! (`setup_s` is the median), drives a single-threaded closed loop of
//! ingest calls (and, where the workload has them, full reads) for
//! `--seconds`, then checks the outputs against the benchmark's own
//! reference computations. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics, measured by replaying the same batches through each layer's
//! public types, and the spans go to `<state-dir>/trace-*.json`.
//! See `README.md` beside this file for the workloads and metrics.

mod fanout;
mod reference;
mod retailer;
mod trace;
mod tri_hub;
mod util;

use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::{json_num, Tracer};
use util::Report;

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ingest_ups", "1/s"),
    ("visible_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not cross reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.consolidate_us", "us"),
    ("session.apply_us", "us"),
    ("session.overhead_us", "us"),
    ("session.build_s", "s"),
    ("session.resident_tuples", "count"),
    ("session.replans", "count"),
    ("session.read_us", "us"),
    ("session.snapshot_s", "s"),
    ("session.recover_s", "s"),
    ("hl.apply_us", "us"),
    ("hl.work_per_update", "count"),
    ("hl.build_s", "s"),
    ("hl.migrations", "count"),
    ("hl.rebalances", "count"),
    ("hl.heavy_hits", "count"),
    ("hl.light_scans", "count"),
    ("hl.view_entries", "count"),
    ("store.commit_us", "us"),
    ("store.commits", "count"),
    ("store.journal_bytes_per_update", "B"),
    ("store.snapshot_bytes", "B"),
    ("store.load_s", "s"),
    ("store.replay_updates", "count"),
    ("dataflow.apply_us", "us"),
    ("dataflow.tri_count_apply_us", "us"),
    ("dataflow.tri_listing_apply_us", "us"),
    ("dataflow.cycle4_apply_us", "us"),
    ("dataflow.multiway_seeds_per_update", "count"),
    ("dataflow.multiway_probes_per_update", "count"),
    ("dataflow.intersections_per_update", "count"),
    ("dataflow.output_delta_tuples_per_update", "count"),
    ("dataflow.binary_join_tuples_per_update", "count"),
    ("dataflow.multiway_join_us", "us"),
    ("dataflow.group_aggregate_us", "us"),
    ("serve.apply_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.fanout_us", "us"),
    ("serve.groups", "count"),
    ("serve.resident_tuples", "count"),
    ("serve.view_us", "us"),
    ("shard.enqueue_us", "us"),
    ("shard.drain_us", "us"),
    ("shard.busy_max_s", "s"),
    ("shard.balance", "ratio"),
    ("shard.broadcast_copies", "count"),
    ("shard.speedup", "x"),
    ("core.apply_us", "us"),
    ("core.build_s", "s"),
    ("core.enumerate_us", "us"),
    ("core.view_entries", "count"),
    ("obs.traced_ingest_ups", "1/s"),
    ("obs.untraced_ingest_ups", "1/s"),
    ("obs.waterfall_coverage", "ratio"),
];

pub const WORKLOADS: &[&str] = &[
    "tri-hub-durable",
    "tri-fanout-serve",
    "retailer-viewtree",
    "retailer-fleet",
];

/// Everything a workload needs from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub state_dir: PathBuf,
    pub rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut state_dir = PathBuf::from(".bench_build/perfbench");
    let mut rev = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: not {what}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--state-dir" => state_dir = PathBuf::from(value),
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        state_dir,
        rev,
    })
}

/// The filesystem type holding `dir`: the longest mount point in
/// `/proc/self/mountinfo` that prefixes its canonical path.
fn filesystem_of(dir: &Path) -> String {
    let (Ok(path), Ok(info)) = (
        dir.canonicalize(),
        std::fs::read_to_string("/proc/self/mountinfo"),
    ) else {
        return "unknown".into();
    };
    let mut best = (0usize, "unknown".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), format!("{fstype} (mounted at {mount})"));
        }
    }
    best.1
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.state_dir) {
        eprintln!("perfbench: creating {}: {e}", args.state_dir.display());
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={} rev={} nproc={nproc} \
         state_fs={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        args.rev,
        filesystem_of(&args.state_dir),
    );
    println!("# {header}");
    let mut tracer = args.trace.then(Tracer::new);
    let mut rep = Report::new();
    match args.workload.as_str() {
        "tri-hub-durable" => tri_hub::run(&args, &mut rep, tracer.as_mut()),
        "tri-fanout-serve" => fanout::run(&args, &mut rep, tracer.as_mut()),
        "retailer-viewtree" => retailer::run(&args, false, &mut rep, tracer.as_mut()),
        "retailer-fleet" => retailer::run(&args, true, &mut rep, tracer.as_mut()),
        _ => unreachable!("validated in parse_args"),
    }
    for note in &rep.notes {
        println!("# {note}");
    }
    for (kind, (attempted, failed)) in &rep.ops {
        println!("# ops {kind}: attempted {attempted}, failed {failed}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for name in rep.metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in this mode's table"
        );
    }
    if let Some(tr) = &tracer {
        let path = args
            .state_dir
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match tr.write(&path, &header, &rep.metrics) {
            Ok(()) => println!(
                "# spans and per-layer metrics written to {}",
                path.display()
            ),
            Err(e) => {
                eprintln!("writing {}: {e}", path.display());
                rep.op("trace-write", false);
            }
        }
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let v = rep.metrics.get(name).copied().unwrap_or(0.0);
        metrics.push_str(&format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        rep.correct,
        rep.attempted().max(1),
        rep.failed()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this binary reports, with the same units.
    #[test]
    fn benchmark_json_matches_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\":\"{w}\"")),
                "workload {w}"
            );
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn filesystem_of_finds_a_mount() {
        assert_ne!(filesystem_of(Path::new(".")), "unknown");
    }
}
