//! The repository benchmark: one command that generates a seeded
//! corpus and query pool, runs one closed-loop workload in-process
//! against the library crates, checks every answer against a reference
//! match set, and prints its metrics by name and unit.
//!
//! ```text
//! perfbench --workload <oneshot|batch_scan|zipf_ingest> --seed N
//!           --seconds S --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! workload twice from the same state, untraced and then traced over
//! the same operations, and prints the per-layer metrics from the
//! spans the benchmark records around its own calls into each layer.
//! `--smoke` shrinks the corpus so all workloads run in seconds. The
//! last line of standard output is one JSON object; the exit code is
//! nonzero when any answer was wrong or any operation failed.

mod heap;
mod setup;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use setup::{timed, Inputs, OPTIONS};
use trace::{Ledger, Tracer};
use workloads::{
    BatchScan, LayerCounters, Oneshot, Pass, SetupReport, Workload, ZipfIngest, THREADS,
    ZIPF_QUERIES_PER_SECOND,
};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 3] = ["oneshot", "batch_scan", "zipf_ingest"];

/// End-to-end metrics, emitted by `--trace 0` on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("index_bytes_per_input_byte", "B/B"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics, emitted by `--trace 1` on every workload; a
/// layer a workload does not reach reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("failed_ratio", "ratio"),
    ("ingest_p50_ms", "ms"),
    ("index.open_ms", "ms"),
    ("stats.first_lookup_ms", "ms"),
    ("stats.lookup_us", "us"),
    ("plan.plan_us", "us"),
    ("plan.range_pruned_ratio", "ratio"),
    ("btree.descent_us", "us"),
    ("pager.pages_per_query", "count"),
    ("pager.miss_ratio", "ratio"),
    ("prefetch.useful_ratio", "ratio"),
    ("query.parse_us", "us"),
    ("cover.decompose_us", "us"),
    ("cover.keys_per_query", "count"),
    ("coding.decode_ns_per_posting", "ns"),
    ("coding.decode_mb_per_s", "MB/s"),
    ("coding.seek_us", "us"),
    ("coding.postings_per_match", "count"),
    ("coding.seeks_per_query", "count"),
    ("blockcache.lookups", "count"),
    ("blockcache.hit_ratio", "ratio"),
    ("blockcache.evictions", "count"),
    ("blockcache.borrowed_ratio", "ratio"),
    ("exec.evaluate_ms", "ms"),
    ("exec.sorts_avoided_per_query", "count"),
    ("validate.trees_per_query", "count"),
    ("validate.us_per_tree", "us"),
    ("service.batch_ms", "ms"),
    ("service.worker_busy_ratio", "ratio"),
    ("service.shared_keys_per_batch", "count"),
    ("tuplepool.hit_ratio", "ratio"),
    ("resultcache.lookups", "count"),
    ("resultcache.hit_ratio", "ratio"),
    ("resultcache.partials_reused", "count"),
    ("shard.fanout", "count"),
    ("shard.skip_ratio", "ratio"),
    ("shard.reopen_ms", "ms"),
    ("build.trees_per_s", "1/s"),
    ("extract.subtrees_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("ledger.coverage", "ratio"),
];

/// Sizes of one run. The full scale is the paper's query-runtime
/// corpus (100k trees); the smoke scale runs every workload in seconds.
pub struct Scale {
    pub trees: usize,
    /// Builds timed for `setup_s`; the median is reported.
    pub setup_reps: usize,
    /// Pool queries also checked against the index-free matcher.
    pub matcher_sample: usize,
    /// Latency samples a pass collects at least, so p99 has ten
    /// samples beyond it.
    pub min_samples: usize,
    /// Trees the `extract` probe enumerates.
    pub extract_trees: usize,
}

const FULL: Scale = Scale {
    trees: 100_000,
    setup_reps: 2,
    matcher_sample: 2,
    min_samples: 1_000,
    extract_trees: 5_000,
};

const SMOKE: Scale = Scale {
    trees: 2_000,
    setup_reps: 2,
    matcher_sample: usize::MAX,
    min_samples: 100,
    extract_trees: 500,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut corrupt_reference) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                workload = Some(name);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            // Test hook: drops one match from one reference answer, so
            // the run must report wrong answers.
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        corrupt_reference,
    })
}

/// Scratch space for index directories, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs one workload and prints its report; `Ok(false)` when any
/// answer was wrong or any operation failed.
fn run(args: &Args) -> Result<bool, String> {
    let scale = if args.smoke { &SMOKE } else { &FULL };
    let out_dir = Path::new(".perfbench");
    let work = WorkDir(out_dir.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;

    let started = Instant::now();
    let mut inputs = Inputs::generate(args.seed, scale.trees);
    let extract_rate = extract_rate(&inputs, scale.extract_trees);
    eprintln!(
        "inputs generated in {:.2} s",
        started.elapsed().as_secs_f64()
    );
    let min_samples = scale.min_samples;
    // A traced run reports means and ratios, not tail latency, and
    // runs its operations twice; half the time and a quarter of the
    // samples keep it as long as an untraced run.
    let budget = if args.trace {
        Budget {
            seconds: args.seconds / 2.0,
            min_samples: min_samples / 4,
        }
    } else {
        Budget {
            seconds: args.seconds,
            min_samples,
        }
    };
    let (setup, run) = match args.workload.as_str() {
        "oneshot" => {
            let (mut w, mut setup) = Oneshot::setup(&work.0, &inputs, args.seed, scale)?;
            if args.corrupt_reference {
                w.corrupt_reference();
            }
            release_trees(&mut inputs, &mut setup);
            (setup, measure(&mut w, budget, args.trace)?)
        }
        "batch_scan" => {
            let (mut w, mut setup) = BatchScan::setup(&work.0, &inputs, args.seed, scale)?;
            if args.corrupt_reference {
                w.corrupt_reference();
            }
            release_trees(&mut inputs, &mut setup);
            (setup, measure(&mut w, budget, args.trace)?)
        }
        "zipf_ingest" => {
            let queries = ((ZIPF_QUERIES_PER_SECOND as f64 * budget.seconds) as usize)
                .max(budget.min_samples);
            let (mut w, mut setup) =
                ZipfIngest::setup(&work.0, &inputs, args.seed, scale, queries)?;
            if args.corrupt_reference {
                w.corrupt_reference();
            }
            let run = measure(&mut w, budget, args.trace)?;
            setup.index_bytes_per_input_byte = w.final_index_bytes_per_input_byte();
            (setup, run)
        }
        _ => unreachable!("parse_args accepts only WORKLOADS"),
    };

    eprintln!(
        "run finished after {:.2} s",
        started.elapsed().as_secs_f64()
    );
    let attempted = run.passes.iter().map(|p| p.attempted).sum::<u64>();
    let failed = run.passes.iter().map(|p| p.failed).sum::<u64>();
    let main = &run.passes[0];
    let untraced = &run.passes[..run.passes.len() - usize::from(args.trace)];
    let mut metrics = BTreeMap::new();
    if args.trace {
        let ledger = run.ledger.as_ref().expect("traced run keeps its ledger");
        let traced = &run.passes[1];
        per_layer(
            &mut metrics,
            traced,
            main,
            ledger,
            &run.counters,
            &setup,
            extract_rate,
        );
        metrics.insert("failed_ratio", failed as f64 / attempted.max(1) as f64);
        let wall = ledger.wall_ns().max(1) as f64;
        eprintln!(
            "{:<24} {:>8} {:>12} {:>12} {:>7}",
            "span", "count", "incl ms", "self ms", "self %"
        );
        for (name, t) in ledger.by_name() {
            eprintln!(
                "{name:<24} {:>8} {:>12.3} {:>12.3} {:>7.2}",
                t.count,
                t.inclusive_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / wall
            );
        }
        let spans = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        ledger
            .write_jsonl(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        eprintln!("spans written to {}", spans.display());
    } else {
        end_to_end(&mut metrics, untraced, &setup);
    }
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    assert_eq!(
        metrics.len(),
        listed.len(),
        "every listed metric is computed"
    );

    let mut latencies = main.latencies_ns.clone();
    latencies.sort_unstable();
    let facts = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        (
            "scale",
            (if args.smoke { "smoke" } else { "full" }).to_owned(),
        ),
        ("corpus_trees", inputs.tree_count().to_string()),
        ("trees_built_in_setup", setup.trees_built.to_string()),
        (
            "input_bytes",
            inputs.input_bytes(inputs.tree_count()).to_string(),
        ),
        ("mss", OPTIONS.mss.to_string()),
        ("coding", OPTIONS.coding.name().to_owned()),
        ("service_threads", THREADS.to_string()),
        ("build_workers", THREADS.to_string()),
        ("nproc", nproc().to_string()),
        ("setup_reps", setup.setup_s.len().to_string()),
        (
            "setup_s_each",
            setup
                .setup_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("passes", untraced.len().to_string()),
        ("latency_samples", latencies.len().to_string()),
        (
            "samples_beyond_p99",
            beyond(latencies.len(), 0.99).to_string(),
        ),
        ("ops", main.ops.to_string()),
        (
            "pass_p50_p99_qps_heap",
            untraced
                .iter()
                .map(|p| {
                    let [p50, p99, qps, heap] = pass_figures(p);
                    format!("{p50:.4} {p99:.3} {qps:.1} {heap:.2}")
                })
                .collect::<Vec<_>>()
                .join(", "),
        ),
        (
            "heap_at_pass_start_mib",
            format!("{:.2}", main.start_heap_mib),
        ),
        (
            "rss_at_pass_start_mib",
            format!("{:.2}", main.start_rss_mib),
        ),
        ("peak_rss_mib", format!("{:.2}", main.peak_rss_mib)),
        (
            "failed_ratio",
            (failed as f64 / attempted.max(1) as f64).to_string(),
        ),
        ("flush_policy", "page cache only; no fsync".to_owned()),
    ];
    let info: Vec<String> = facts
        .iter()
        .chain(&setup.facts)
        .map(|(k, v)| format!("\"{k}\":{}", json_value(v)))
        .collect();
    println!("{{\"run\":{{{}}}}}", info.join(","));
    for (name, unit) in listed {
        println!("{name:<32} {:>16.6} {unit}", metrics[name]);
    }

    let correct = failed == 0;
    let body: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(metrics[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(correct)
}

/// How long a pass runs, unless the workload has a fixed schedule: at
/// least `seconds`, and at least `min_samples` latency samples.
#[derive(Clone, Copy)]
struct Budget {
    seconds: f64,
    min_samples: usize,
}

struct Measured {
    /// The untraced passes, then (traced runs) the traced replay of the
    /// first one.
    passes: Vec<Pass>,
    ledger: Option<Ledger>,
    /// Layer counters of the traced pass.
    counters: LayerCounters,
}

/// One untraced pass from the workload's current state.
fn untraced_pass(w: &mut dyn Workload, budget: Budget) -> Pass {
    let mut off = Tracer::new(false);
    let mut pass = Pass::default();
    // Index builds in set-up leave freed heap behind; return it first.
    release_free_heap();
    reset_peak_rss();
    pass.start_rss_mib = status_mib("VmRSS:");
    pass.start_heap_mib = mib(heap::live_bytes());
    heap::reset_peak();
    let start = Instant::now();
    let mut i = 0;
    while match w.fixed_ops() {
        Some(n) => i < n,
        None => {
            start.elapsed().as_secs_f64() < budget.seconds
                || pass.latencies_ns.len() < budget.min_samples
                || i % w.cycle() != 0
        }
    } {
        w.op(i, &mut off, &mut pass);
        i += 1;
    }
    pass.peak_heap_mib = mib(heap::peak_bytes());
    pass.peak_rss_mib = status_mib("VmHWM:");
    eprintln!(
        "measured {i} operations in {:.2} s",
        start.elapsed().as_secs_f64()
    );
    pass
}

fn measure(w: &mut dyn Workload, budget: Budget, traced: bool) -> Result<Measured, String> {
    eprintln!("set-up done; measuring");
    if traced {
        let main = untraced_pass(w, budget);
        return traced_replay(w, main);
    }
    // The passes share the time budget; each still collects the minimum
    // number of samples.
    let budget = Budget {
        seconds: budget.seconds / w.passes() as f64,
        ..budget
    };
    let mut passes = vec![untraced_pass(w, budget)];
    for k in 1..w.passes() {
        w.reset(k)?;
        passes.push(untraced_pass(w, budget));
    }
    Ok(Measured {
        passes,
        ledger: None,
        counters: LayerCounters::default(),
    })
}

/// Replays the operations of the untraced pass `main` traced, from the
/// state after set-up.
fn traced_replay(w: &mut dyn Workload, main: Pass) -> Result<Measured, String> {
    w.reset(0)?;
    let mut tracer = Tracer::new(true);
    let mut replay = Pass::default();
    let before = si_storage::process_counters();
    let counters_before = w.counters();
    for i in 0..main.ops {
        w.op(i, &mut tracer, &mut replay);
    }
    let after = si_storage::process_counters();
    replay.prefetch = (
        after.prefetch_issued - before.prefetch_issued,
        after.prefetch_useful - before.prefetch_useful,
    );
    Ok(Measured {
        counters: w.counters().since(&counters_before),
        passes: vec![main, replay],
        ledger: Some(tracer.finish()),
    })
}

/// The end-to-end metrics of each pass, `(p50 ms, p99 ms, queries/s,
/// peak heap MiB)`.
fn pass_figures(pass: &Pass) -> [f64; 4] {
    let mut lat = pass.latencies_ns.clone();
    lat.sort_unstable();
    let correct = pass.attempted - pass.failed;
    [
        quantile(&lat, 0.50) as f64 / 1e6,
        quantile(&lat, 0.99) as f64 / 1e6,
        correct as f64 / (pass.wall_ns as f64 / 1e9),
        pass.peak_heap_mib,
    ]
}

/// The end-to-end metrics: medians over the untraced passes.
fn end_to_end(metrics: &mut BTreeMap<&'static str, f64>, passes: &[Pass], setup: &SetupReport) {
    let figures: Vec<[f64; 4]> = passes.iter().map(pass_figures).collect();
    let med = |k: usize| median(&figures.iter().map(|f| f[k]).collect::<Vec<_>>());
    metrics.insert("setup_s", median(&setup.setup_s));
    metrics.insert("latency_p50_ms", med(0));
    metrics.insert("latency_p99_ms", med(1));
    metrics.insert("throughput_qps", med(2));
    metrics.insert(
        "index_bytes_per_input_byte",
        setup.index_bytes_per_input_byte,
    );
    metrics.insert("peak_heap_mb", med(3));
}

fn per_layer(
    m: &mut BTreeMap<&'static str, f64>,
    traced: &Pass,
    untraced: &Pass,
    ledger: &Ledger,
    counters: &LayerCounters,
    setup: &SetupReport,
    extract_rate: f64,
) {
    let spans = ledger.by_name();
    let mean_ns = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |t| t.inclusive_ns as f64 / t.count as f64)
    };
    let total_ns = |name: &str| spans.get(name).map_or(0, |t| t.inclusive_ns) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let e = &traced.eval;
    let q = e.queries.max(1) as f64;
    let p = &traced.probes;

    let mut ingest = untraced.ingest_ns.clone();
    ingest.sort_unstable();
    m.insert("ingest_p50_ms", quantile(&ingest, 0.5) as f64 / 1e6);
    m.insert("index.open_ms", mean_ns("index.open") / 1e6);
    m.insert("stats.first_lookup_ms", mean_ns("stats.first_lookup") / 1e6);
    m.insert("stats.lookup_us", mean_ns("stats.lookup") / 1e3);
    m.insert("plan.plan_us", mean_ns("plan.plan") / 1e3);
    m.insert("plan.range_pruned_ratio", e.range_pruned as f64 / q);
    m.insert("btree.descent_us", mean_ns("btree.descent") / 1e3);
    m.insert(
        "pager.pages_per_query",
        (e.pager_hits + e.pager_misses) as f64 / q,
    );
    m.insert(
        "pager.miss_ratio",
        ratio(e.pager_misses, e.pager_hits + e.pager_misses),
    );
    m.insert(
        "prefetch.useful_ratio",
        ratio(traced.prefetch.1, traced.prefetch.0),
    );
    m.insert("query.parse_us", mean_ns("query.parse") / 1e3);
    m.insert("cover.decompose_us", mean_ns("cover.decompose") / 1e3);
    m.insert(
        "cover.keys_per_query",
        ratio(p.cover_keys, p.decompose_calls),
    );
    m.insert(
        "coding.decode_ns_per_posting",
        if p.postings_drained == 0 {
            0.0
        } else {
            total_ns("coding.decode") / p.postings_drained as f64
        },
    );
    m.insert(
        "coding.decode_mb_per_s",
        if p.bytes_drained == 0 {
            0.0
        } else {
            p.bytes_drained as f64 / 1e6 / (total_ns("coding.decode") / 1e9)
        },
    );
    m.insert("coding.seek_us", mean_ns("coding.seek") / 1e3);
    m.insert(
        "coding.postings_per_match",
        ratio(e.postings_fetched, e.matches),
    );
    m.insert("coding.seeks_per_query", e.seeks as f64 / q);
    m.insert("blockcache.lookups", (e.cache_hits + e.cache_misses) as f64);
    m.insert(
        "blockcache.hit_ratio",
        ratio(e.cache_hits, e.cache_hits + e.cache_misses),
    );
    m.insert("blockcache.evictions", counters.blockcache_evictions as f64);
    m.insert(
        "blockcache.borrowed_ratio",
        ratio(e.postings_borrowed, e.postings_fetched),
    );
    m.insert("exec.evaluate_ms", mean_ns("exec.evaluate") / 1e6);
    m.insert("exec.sorts_avoided_per_query", e.sorts_avoided as f64 / q);
    m.insert("validate.trees_per_query", e.validated_trees as f64 / q);
    m.insert(
        "validate.us_per_tree",
        if p.trees_validated == 0 {
            0.0
        } else {
            total_ns("validate") / 1e3 / p.trees_validated as f64
        },
    );
    m.insert("service.batch_ms", mean_ns("service.batch") / 1e6);
    m.insert(
        "service.worker_busy_ratio",
        if traced.batch_wall_s == 0.0 {
            0.0
        } else {
            traced.worker_busy_s / (THREADS as f64 * traced.batch_wall_s)
        },
    );
    m.insert(
        "service.shared_keys_per_batch",
        ratio(traced.shared_keys, traced.batches),
    );
    m.insert(
        "tuplepool.hit_ratio",
        ratio(
            counters.tuplepool_hits,
            counters.tuplepool_hits + counters.tuplepool_misses,
        ),
    );
    let rc = counters.resultcache_hits + counters.resultcache_misses;
    m.insert("resultcache.lookups", rc as f64);
    m.insert(
        "resultcache.hit_ratio",
        ratio(counters.resultcache_hits, rc),
    );
    m.insert("resultcache.partials_reused", e.partial_reuses as f64);
    m.insert("shard.fanout", e.shards as f64 / q);
    m.insert("shard.skip_ratio", ratio(e.shards_skipped, e.shards));
    m.insert("shard.reopen_ms", mean_ns("shard.reopen") / 1e6);
    m.insert(
        "build.trees_per_s",
        setup.trees_built as f64 / median(&setup.setup_s),
    );
    m.insert("extract.subtrees_per_s", extract_rate);
    m.insert(
        "trace.overhead_ratio",
        ledger.wall_ns() as f64 / untraced.wall_ns.max(1) as f64,
    );
    m.insert("ledger.coverage", ledger.coverage());
}

/// Frees the parsed trees before a pass that sends only query text, so
/// `peak_heap_mb` counts the index and the program and not the corpus
/// the benchmark generated. Records the live heap before and after.
fn release_trees(inputs: &mut Inputs, setup: &mut SetupReport) {
    let before = mib(heap::live_bytes());
    inputs.release_trees();
    setup
        .facts
        .push(("heap_before_tree_release_mib", format!("{before:.2}")));
    setup.facts.push((
        "heap_after_tree_release_mib",
        format!("{:.2}", mib(heap::live_bytes())),
    ));
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Subtrees per second `si_core::extract` enumerates over the first
/// `n` trees at the index's mss.
fn extract_rate(inputs: &Inputs, n: usize) -> f64 {
    let trees = &inputs.trees()[..n.min(inputs.trees().len())];
    let (count, secs) = timed(|| {
        trees
            .iter()
            .map(|t| si_core::extract_subtrees(t, OPTIONS.mss).len())
            .sum::<usize>()
    });
    count as f64 / secs
}

/// Nearest-rank quantile of sorted samples (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` quantile.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resets the process's peak resident set size to its current size
/// (Linux `clear_refs` value 5), so the peak covers only the measured
/// pass and not the index builds of the set-up.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("cannot reset the peak RSS ({e}); peak_rss_mib includes set-up");
    }
}

/// Returns the heap the set-up freed to the OS, so how fragmented the
/// index builds left it does not count toward the measured peak.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// A `/proc/self/status` size field (`VmHWM:`, `VmRSS:`) in MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON number with all its digits; non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Finite numbers pass through; anything else becomes a JSON string.
fn json_value(v: &str) -> String {
    if v.parse::<f64>().is_ok_and(f64::is_finite) {
        v.to_owned()
    } else {
        format!("\"{}\"", si_obs::json_escape(v))
    }
}
