//! `bench compare <dirA> <dirB>` and the summary `bench repeat` prints:
//! medians of end-to-end metrics over the result files of one or more runs,
//! judged by each metric's declared direction and bound.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// `(workload, metric)` → one value per run found under a directory.
pub type Runs = BTreeMap<(String, String), Vec<f64>>;

fn read_result(path: &Path, workload: &str, runs: &mut Runs) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{}: no metrics", path.display()))?;
    for (name, m) in metrics {
        if let Some(v) = m.get("value").and_then(Json::as_f64) {
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(())
}

/// Collect one value per run: from `<dir>/*/<workload>.json` when `dir`
/// holds one sub-directory per run (what `bench repeat` writes), else from
/// `<dir>/<workload>.json`.
pub fn load(dir: &Path) -> Result<Runs, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut run_dirs: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    run_dirs.sort();
    run_dirs.push(dir.to_path_buf());
    let mut runs = Runs::new();
    for d in &run_dirs {
        if d == dir && !runs.is_empty() {
            break;
        }
        for w in &WORKLOADS {
            let path = d.join(format!("{}.json", w.name));
            if path.is_file() {
                read_result(&path, w.name, &mut runs)?;
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(runs)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judge B against A. A move smaller than the bound is `same`; where the
/// run-to-run quartile spread of either side is wider than the bound, the
/// runs cannot tell, and the verdict is `unresolved` — never `same`.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if [a, b].iter().filter_map(|v| spread(v)).any(|s| s > m.bound) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn fmt_spread(values: &[f64]) -> String {
    spread(values).map_or_else(|| "-".into(), |s| format!("{:.3}", s))
}

/// One row per (workload, metric): both medians, the ratio with its base,
/// both spreads, the bound and the verdict. Returns how many rows were
/// `worse` or `unresolved`.
pub fn compare(a: &Runs, b: &Runs) -> usize {
    println!(
        "{:<11} {:<22} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "bound"
    );
    let mut flagged = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let verdict = judge(m, va, vb);
            if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
                flagged += 1;
            }
            let (ma, mb) = (median(va), median(vb));
            println!(
                "{:<11} {:<22} {:>14.4} {:>14.4} {:>8.3} {:>8} {:>8} {:>6.2}  {} ({} vs {} runs, base A)",
                w.name,
                m.name,
                ma,
                mb,
                mb / ma,
                fmt_spread(va),
                fmt_spread(vb),
                m.bound,
                format!("{verdict:?}").to_lowercase(),
                va.len(),
                vb.len(),
            );
        }
    }
    flagged
}

/// Each metric's min / median / max and quartile spread over the runs.
pub fn summarize(runs: &Runs) {
    println!(
        "{:<11} {:<22} {:>4} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "runs", "min", "median", "max", "spread", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let Some(v) = runs.get(&(w.name.to_string(), m.name.to_string())) else {
                continue;
            };
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            println!(
                "{:<11} {:<22} {:>4} {:>14.4} {:>14.4} {:>14.4} {:>8} {:>6.2}",
                w.name,
                m.name,
                v.len(),
                min,
                median(v),
                max,
                fmt_spread(v),
                m.bound
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "latency",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        on: &[],
    };
    const RATE: EndToEnd = EndToEnd {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        on: &[],
    };

    #[test]
    fn verdict_follows_direction_and_bound() {
        assert_eq!(judge(&LATENCY, &[100.0], &[105.0]), Verdict::Same);
        assert_eq!(judge(&LATENCY, &[100.0], &[120.0]), Verdict::Worse);
        assert_eq!(judge(&LATENCY, &[100.0], &[80.0]), Verdict::Better);
        assert_eq!(judge(&RATE, &[100.0], &[80.0]), Verdict::Worse);
        assert_eq!(judge(&RATE, &[100.0], &[120.0]), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        assert_eq!(
            judge(&LATENCY, &[80.0, 100.0, 130.0], &[100.0, 100.0, 100.0]),
            Verdict::Unresolved
        );
    }
}
