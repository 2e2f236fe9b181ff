//! Regenerates every table of the reconstructed evaluation.
//!
//! ```text
//! cargo run -p txview-bench --release --bin run_experiments -- all
//! cargo run -p txview-bench --release --bin run_experiments -- e1 e4
//! cargo run -p txview-bench --release --bin run_experiments -- --quick all
//! cargo run -p txview-bench --release --bin run_experiments -- --metrics e1
//! cargo run -p txview-bench --release --bin run_experiments -- --smoke-scale
//! ```
//!
//! `--metrics` additionally runs a short contended deposit cell and prints
//! the engine's full metrics table. `--smoke-scale` runs only the CI gate
//! and exits nonzero when it fails.

use txview_bench::{
    e1, e11, e12, e13, e2, e3, e4, e5, e6, e7, e8, metrics_demo, smoke_scale, ExpConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let metrics = args.iter().any(|a| a == "--metrics");
    let cfg = if quick { ExpConfig::quick() } else { ExpConfig::default() };
    if args.iter().any(|a| a == "--smoke-scale") {
        // CI scaling gate: see `smoke_scale` for what is enforced where.
        let (report, pass) = smoke_scale(&cfg);
        print!("{report}");
        std::process::exit(if pass { 0 } else { 1 });
    }
    let wanted: Vec<String> =
        args.iter().filter(|a| !a.starts_with("--")).map(|a| a.to_lowercase()).collect();
    let run_all = wanted.is_empty() || wanted.iter().any(|w| w == "all");

    type ExpFn = fn(&ExpConfig) -> txview_workload::report::Table;
    let experiments: [(&str, ExpFn); 11] = [
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
    ];

    println!(
        "txview experiment harness — cell duration {:?}{}",
        cfg.cell,
        if quick { " (quick mode)" } else { "" }
    );
    let mut ran = 0;
    for (name, exp) in experiments {
        if run_all || wanted.iter().any(|w| w == name) {
            let t0 = std::time::Instant::now();
            let table = exp(&cfg);
            table.print();
            println!("[{name} done in {:.1}s]", t0.elapsed().as_secs_f64());
            ran += 1;
        }
    }
    if ran == 0 && !metrics {
        eprintln!(
            "unknown experiment selection {wanted:?}; use e1..e8, e11, e12, e13, or all"
        );
        std::process::exit(2);
    }
    if metrics {
        println!("\n-- engine metrics after a contended deposit cell --");
        print!("{}", metrics_demo(&cfg));
    }
}
