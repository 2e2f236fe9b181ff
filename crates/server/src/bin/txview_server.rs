//! Standalone server binary: sets up the bank schema and serves it over
//! TCP until interrupted or `--serve-secs` elapses (then drains
//! gracefully and exits 0).
//!
//! ```text
//! txview_server --port 0 --addr-file /tmp/addr --serve-secs 10 \
//!     --pipeline --sync-us 50
//! ```
//!
//! `--port 0` binds an ephemeral port; `--addr-file` publishes the bound
//! address for a coordinating script (the CI smoke starts the server in
//! the background and points `run_load` at the file).

use std::time::Duration;
use txview_server::{Server, ServerConfig};
use txview_workload::bank::{Bank, BankConfig};

fn arg_val(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn arg_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    arg_val(args, name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let port: u16 = arg_num(&args, "--port", 0);
    let serve_secs: u64 = arg_num(&args, "--serve-secs", 0);
    let accounts: i64 = arg_num(&args, "--accounts", 4096);
    let branches: i64 = arg_num(&args, "--branches", 8);
    let sync_us: u64 = arg_num(&args, "--sync-us", 0);
    let workers: usize = arg_num(&args, "--workers", 4);
    let max_sessions: usize = arg_num(&args, "--max-sessions", 64);
    let pipeline = args.iter().any(|a| a == "--pipeline");
    let addr_file = arg_val(&args, "--addr-file");

    let bank = Bank::setup(BankConfig {
        accounts,
        branches,
        pipeline,
        sync_latency_us: sync_us,
        ..Default::default()
    })
    .expect("bank setup");

    let cfg = ServerConfig { workers, max_sessions, ..Default::default() };
    let server = Server::start(bank.db.clone(), &format!("127.0.0.1:{port}"), cfg)
        .expect("server start");
    let addr = server.local_addr();
    println!("txview_server listening on {addr} (pipeline={pipeline} sync_us={sync_us})");
    if let Some(path) = addr_file {
        // Write via a temp file + rename so a polling reader never sees a
        // partial address.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, addr.to_string()).expect("write addr file");
        std::fs::rename(&tmp, &path).expect("publish addr file");
    }

    if serve_secs > 0 {
        std::thread::sleep(Duration::from_secs(serve_secs));
        println!("serve window elapsed; draining ...");
        let stats = server.shutdown().expect("graceful shutdown");
        println!(
            "drained: accepted={} requests={} shed={} errors={}",
            stats.accepted, stats.requests, stats.shed_overloaded, stats.error_responses
        );
    } else {
        // Serve until the process is killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}
