//! Smoke-scale runs of every workload: each emits exactly the metrics
//! `BENCHMARK.json` lists, with their units, answers correctly, and
//! shows that its mechanism ran; a corrupted reference answer is
//! reported as a failure with a nonzero exit.

use std::process::Command;

use si_obs::Json;

const WORKLOADS: [&str; 3] = ["oneshot", "batch_scan", "zipf_ingest"];

struct Run {
    code: Option<i32>,
    result: Json,
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .args(extra)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    Run {
        code: out.status.code(),
        result: Json::parse(last).expect("last line is JSON"),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(kind)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn assert_emits(run: &Run, expected: &[(String, String)], what: &str) {
    assert_eq!(run.code, Some(0), "{what} exits 0");
    assert_eq!(run.result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        run.result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        run.result.get("attempted").and_then(Json::as_u64) >= Some(1),
        "{what}"
    );
    let metrics = run
        .result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{what} {name} value"
            );
            (name.clone(), unit.to_owned())
        })
        .collect();
    let mut want = expected.to_vec();
    want.sort();
    let mut got_sorted = got;
    got_sorted.sort();
    assert_eq!(got_sorted, want, "{what} emits exactly the listed metrics");
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let expected = listed("end_to_end");
    for (k, w) in WORKLOADS.iter().enumerate() {
        let r = run(w, 100 + k as u64, false, &[]);
        assert_emits(&r, &expected, w);
        for (name, _) in &expected {
            assert!(metric(&r.result, name) > 0.0, "{w} {name} is never 0");
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_runs_its_mechanism() {
    let expected = listed("per_layer");
    let runs: Vec<Run> = WORKLOADS
        .iter()
        .enumerate()
        .map(|(k, w)| run(w, 200 + k as u64, true, &[]))
        .collect();
    for (r, w) in runs.iter().zip(WORKLOADS) {
        assert_emits(r, &expected, w);
        assert!(
            metric(&r.result, "ledger.coverage") > 0.5,
            "{w} layers cover the wall"
        );
        assert!(metric(&r.result, "trace.overhead_ratio") > 0.0, "{w}");
    }
    let [oneshot, batch, zipf] = &runs[..] else {
        unreachable!()
    };
    assert_eq!(metric(&oneshot.result, "blockcache.lookups"), 0.0);
    assert_eq!(metric(&oneshot.result, "resultcache.lookups"), 0.0);
    assert!(metric(&oneshot.result, "index.open_ms") > 0.0);
    assert_eq!(metric(&batch.result, "resultcache.lookups"), 0.0);
    assert!(metric(&batch.result, "blockcache.lookups") > 0.0);
    assert!(metric(&batch.result, "coding.decode_ns_per_posting") > 0.0);
    assert!(metric(&zipf.result, "resultcache.hit_ratio") > 0.0);
    assert!(metric(&zipf.result, "resultcache.partials_reused") > 0.0);
    assert!(metric(&zipf.result, "ingest_p50_ms") > 0.0);
}

#[test]
fn a_corrupted_reference_answer_is_a_failure() {
    for (k, w) in WORKLOADS.iter().enumerate() {
        let r = run(w, 300 + k as u64, false, &["--corrupt-reference"]);
        assert_eq!(r.code, Some(1), "{w} exits nonzero on a wrong answer");
        assert_eq!(r.result.get("correct"), Some(&Json::Bool(false)), "{w}");
        assert!(
            r.result.get("failed").and_then(Json::as_u64) > Some(0),
            "{w}"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
