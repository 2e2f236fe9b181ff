//! The benchmark prints what it declares: `BENCHMARK.json` equals
//! `bench manifest`, and a smoke run of every workload prints exactly the
//! declared metric names — none undeclared, none missing — and files exactly
//! the ones assigned to that workload.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "../src/spec.rs"]
mod spec;

use json::Json;
use std::collections::BTreeSet;
use std::process::Command;

const BENCH: &str = env!("CARGO_BIN_EXE_bench");

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(BENCH).args(args).output().expect("bench runs");
    let text = String::from_utf8(out.stdout).expect("bench prints UTF-8");
    assert!(
        out.status.success(),
        "bench {args:?} failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    text
}

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> BTreeSet<String> {
    let Json::Arr(items) = list else {
        panic!("expected a list, got {list}")
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("metric without a name: {other:?}"),
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_manifest() {
    let manifest = Json::parse(&stdout_of(&["manifest"])).expect("manifest parses");
    assert_eq!(
        manifest,
        declared(),
        "regenerate with `bench manifest > BENCHMARK.json`"
    );
}

fn metrics_of(doc: &Json) -> &std::collections::BTreeMap<String, Json> {
    doc.get("metrics").and_then(Json::as_obj).expect("metrics")
}

fn value_of(doc: &Json, metric: &str) -> f64 {
    metrics_of(doc)
        .get(metric)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{metric} is reported"))
}

#[test]
fn declaration_is_within_the_contract() {
    let declared = declared();
    let end_to_end = names(declared.get("end_to_end").expect("end_to_end"));
    let per_layer = names(declared.get("per_layer").expect("per_layer"));
    let workloads = names(declared.get("workloads").expect("workloads"));
    for name in end_to_end.iter().chain(&per_layer).chain(&workloads) {
        let ok = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(ok, "name {name:?} does not match [A-Za-z0-9_.-]+");
    }
    assert!(end_to_end.is_disjoint(&per_layer), "a name is used once");
    assert!(end_to_end.contains("setup_s"));
    for w in &spec::WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in &spec::END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        assert!(m.on.iter().all(|w| workloads.contains(*w)));
    }
    for m in &spec::PER_LAYER {
        assert!(m.on.iter().all(|w| workloads.contains(*w)));
    }
}

/// A smoke run of every workload: the result lines carry exactly the
/// declared names, the result files exactly the names assigned to the
/// workload, and each workload shows the layer it was chosen for at work.
#[test]
fn smoke_run_reports_what_is_declared_and_assigned() {
    let declared = declared();
    let end_to_end = names(declared.get("end_to_end").expect("end_to_end"));
    let per_layer = names(declared.get("per_layer").expect("per_layer"));
    let workloads = names(declared.get("workloads").expect("workloads"));

    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/schema-smoke");
    let text = stdout_of(&["run", "--smoke", "--seed", "7", "--out", out_dir]);
    // Each child ends with the result line; the rest of its output is text.
    let results: Vec<Json> = text
        .lines()
        .filter(|l| l.starts_with("{\"attempted\""))
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(
        results.len(),
        2 * workloads.len(),
        "one untraced and one traced run per workload"
    );
    let (mut untraced, mut traced) = (0, 0);
    for r in &results {
        assert_eq!(
            r.get("correct"),
            Some(&Json::Bool(true)),
            "correctness gates pass: {r}"
        );
        assert_eq!(
            r.get("failed"),
            Some(&Json::Num(0.0)),
            "no operation fails: {r}"
        );
        let printed: BTreeSet<String> = metrics_of(r).keys().cloned().collect();
        if printed == end_to_end {
            untraced += 1;
            for name in &end_to_end {
                assert!(value_of(r, name) != 0.0, "end-to-end {name} is 0: {r}");
            }
        } else if printed == per_layer {
            traced += 1;
        } else {
            let declared: BTreeSet<_> = end_to_end.union(&per_layer).collect();
            let undeclared: Vec<_> = printed.iter().filter(|n| !declared.contains(n)).collect();
            panic!("a run printed neither metric set; undeclared: {undeclared:?}; printed: {printed:?}");
        }
    }
    assert_eq!((untraced, traced), (workloads.len(), workloads.len()));

    for w in &workloads {
        let file = |suffix: &str| {
            let path = format!("{out_dir}/{w}{suffix}");
            let doc = Json::parse(&std::fs::read_to_string(&path).expect("result file written"))
                .expect("result file parses");
            assert!(
                doc.get("host").and_then(|h| h.get("nproc")).is_some(),
                "{path} has a host block"
            );
            doc
        };
        let (plain, trace) = (file(".json"), file(".trace.json"));
        let assigned = |all: &BTreeSet<String>| -> BTreeSet<String> {
            all.iter()
                .filter(|n| spec::assigned(n, w))
                .cloned()
                .collect()
        };
        let filed = |doc: &Json| -> BTreeSet<String> { metrics_of(doc).keys().cloned().collect() };
        assert_eq!(filed(&plain), assigned(&end_to_end), "{w}.json");
        assert_eq!(filed(&trace), assigned(&per_layer), "{w}.trace.json");
        assert!(trace.get("spans").is_some(), "{w}.trace.json has spans");

        let hit = value_of(&trace, "storage.pool.hit_frac");
        let refreshes = value_of(&trace, "view.graph.refreshes_per_commit");
        match w.as_str() {
            "cold-pool" => assert!(hit < 0.9, "cold-pool misses its pool: {hit}"),
            _ => assert!(hit > 0.99, "{w} fits its pool: {hit}"),
        }
        match w.as_str() {
            "hot-escrow" => {
                assert!(refreshes > 0.0, "hot-escrow refreshes its rollup");
                assert!(value_of(&trace, "lock.escrow_grants_per_commit") > 0.0);
            }
            _ => assert_eq!(refreshes, 0.0, "{w} has no derived view"),
        }
    }
}
