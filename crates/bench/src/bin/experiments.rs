//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p si-bench --release --bin experiments -- all
//! cargo run -p si-bench --release --bin experiments -- fig2 fig8 tab2
//! SI_SCALE=paper cargo run -p si-bench --release --bin experiments -- fig13
//! cargo run -p si-bench --release --bin experiments -- service --threads 4
//! ```
//!
//! Experiment ids: fig2 fig3 fig8 fig9 fig10 tab1 fig11 fig12 tab2 fig13
//! tab3 streaming service planner shard pipeline seek obs cache (or
//! `all`). README.md, *Tests and benches*, says what each `BENCH_*.json`
//! records and how to read it. `streaming` runs the executor ablation
//! (streaming pipeline vs legacy materializing evaluator) and writes
//! `BENCH_streaming.json`; `service` benchmarks the concurrent query
//! service (shared scans + block cache) against one-at-a-time execution
//! and writes `BENCH_service.json`; `planner` A/B-compares the
//! cost-based planner (persistent per-key statistics) against the
//! byte-length ordering (`PlannerMode::ByteLen`), asserting identical match sets, and writes
//! `BENCH_planner.json`; `shard` races the tid-partitioned parallel
//! shard build against the single-file parallel build and the sharded
//! scatter-gather service against one-at-a-time monolith execution
//! (match sets asserted identical), writing `BENCH_shard.json`;
//! `pipeline` measures the zero-copy posting pipeline (owned
//! materializing path vs borrow-based streaming vs warm-cache borrowed
//! postings — latency, peak resident bytes, borrowed-posting and
//! avoided-sort counters), asserting match-set equality across codings,
//! executors, planner modes and shard counts, and writes
//! `BENCH_pipeline.json`; `seek` A/B-compares restart-point seeking
//! against linear drains on a selective singleton workload (match sets
//! asserted identical per query, seeks and skipped-posting counters
//! asserted nonzero) and writes `BENCH_seek.json`; `obs` measures what
//! the instrumentation itself costs (no timings vs disabled vs
//! enabled spans, match sets asserted identical; panics if the disabled
//! path exceeds 5% overhead or the stage partition attributes under 90%
//! of the enabled wall) and writes `BENCH_obs.json`; `cache` replays a
//! Zipfian query stream with interleaved ingests through the cached
//! sharded service (every event checked against the uncached evaluator;
//! panics on divergence, a warm hit rate under 0.4, a warm/cold median
//! ratio under 10x, or zero reused shard partials after an ingest) and
//! writes `BENCH_cache.json`.
//!
//! Flags: `--seed N` pins the corpus RNG seed (default `0x5EED0001`) so
//! every `BENCH_*.json` is reproducible across machines; `--threads N`
//! sets the service worker count (default: available parallelism — the
//! CI smoke job passes `--threads 4` explicitly).

use si_bench::harness::{self, Scale};

const ALL: &[&str] = &[
    "fig2",
    "fig3",
    "fig8",
    "fig9",
    "fig10",
    "tab1",
    "fig11",
    "fig12",
    "tab2",
    "fig13",
    "tab3",
    "streaming",
    "service",
    "planner",
    "shard",
    "pipeline",
    "seek",
    "obs",
    "cache",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("--seed needs a value");
                    std::process::exit(2);
                });
                let seed = parse_seed(v).unwrap_or_else(|| {
                    eprintln!("--seed: cannot parse {v:?} (decimal or 0x-hex)");
                    std::process::exit(2);
                });
                harness::set_corpus_seed(seed);
                i += 2;
            }
            "--threads" => {
                let v = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("--threads needs a value");
                    std::process::exit(2);
                });
                threads = v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads: cannot parse {v:?}");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                ids.push(other.to_owned());
                i += 1;
            }
        }
    }
    let wanted: Vec<&str> = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    for id in &wanted {
        if !ALL.contains(id) {
            eprintln!("unknown experiment {id}; known: {ALL:?}");
            std::process::exit(2);
        }
    }
    let scale = Scale::from_env();
    eprintln!(
        "scale: {scale:?} (set SI_SCALE=paper for the paper's sizes), seed {:#x}",
        harness::corpus_seed()
    );

    // The build grid backs fig8/fig9/fig10/tab1; compute it once.
    let needs_grid = wanted
        .iter()
        .any(|id| matches!(*id, "fig8" | "fig9" | "fig10" | "tab1"));
    let grid = needs_grid.then(|| {
        eprintln!("building the (size x mss x coding) index grid...");
        harness::run_index_grid(scale)
    });
    // The query grid backs fig11/fig12.
    let needs_queries = wanted.iter().any(|id| matches!(*id, "fig11" | "fig12"));
    let runs = needs_queries.then(|| {
        eprintln!("running the query-runtime grid...");
        harness::run_query_grid(scale)
    });

    for id in wanted {
        println!();
        match id {
            "fig2" => harness::fig2(scale),
            "fig3" => harness::fig3(scale),
            "fig8" => harness::fig8(grid.as_ref().unwrap()),
            "fig9" => harness::fig9(grid.as_ref().unwrap()),
            "fig10" => harness::fig10(grid.as_ref().unwrap()),
            "tab1" => harness::tab1(grid.as_ref().unwrap()),
            "fig11" => harness::fig11(runs.as_ref().unwrap()),
            "fig12" => harness::fig12(runs.as_ref().unwrap()),
            "tab2" => harness::tab2(scale),
            "fig13" => harness::fig13(scale),
            "tab3" => harness::tab3(),
            "streaming" => {
                let rows = harness::run_streaming_ablation(scale);
                harness::emit_streaming_ablation(scale, &rows).expect("write BENCH_streaming.json");
            }
            "service" => {
                let report = harness::run_service_bench(scale, threads);
                harness::emit_service_bench(scale, &report).expect("write BENCH_service.json");
            }
            "planner" => {
                let report = harness::run_planner_bench(scale);
                harness::emit_planner_bench(scale, &report).expect("write BENCH_planner.json");
            }
            "shard" => {
                let report = harness::run_shard_bench(scale, threads);
                harness::emit_shard_bench(scale, &report).expect("write BENCH_shard.json");
            }
            "pipeline" => {
                let report = harness::run_pipeline_bench(scale);
                harness::emit_pipeline_bench(scale, &report).expect("write BENCH_pipeline.json");
            }
            "seek" => {
                let report = harness::run_seek_bench(scale);
                harness::emit_seek_bench(scale, &report).expect("write BENCH_seek.json");
            }
            "obs" => {
                let report = harness::run_obs_bench(scale);
                harness::emit_obs_bench(scale, &report).expect("write BENCH_obs.json");
            }
            "cache" => {
                let report = harness::run_cache_bench(scale, threads);
                harness::emit_cache_bench(scale, &report).expect("write BENCH_cache.json");
            }
            _ => unreachable!("validated above"),
        }
    }
}

fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}
