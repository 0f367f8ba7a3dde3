//! Standalone TCP query server over a generated TPC-H-like database.
//!
//! ```sh
//! rqp-netserver [--addr 127.0.0.1:0] [--rows 4000] [--seed 42]
//!               [--mpl 4] [--memory 20000] [--port-file PATH]
//! ```
//!
//! Prints `listening on <addr>` once ready (and writes the bare port number
//! to `--port-file`, if given, for scripted callers racing the ephemeral
//! port), then serves until killed. On SIGTERM/SIGKILL the OS reclaims the
//! sockets; in-flight queries die with their process — crash-consistency at
//! the *service* level is the admission/broker teardown exercised by the
//! in-process tests, not a wire concern.
//!
//! The engine switches (`RQP_CHAOS_SEED`, `RQP_PAGE_BUDGET`;
//! README.md § *Configuration*) are read from the environment once, here.

use rqp_common::EngineConfig;
use rqp_net::WireServer;
use rqp_server::{QueryService, ServiceConfig};
use rqp_workload::{tpch::TpchParams, TpchDb};
use std::sync::Arc;

struct Args {
    addr: String,
    rows: usize,
    seed: u64,
    mpl: usize,
    memory: f64,
    port_file: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        rows: 4_000,
        seed: 42,
        mpl: 4,
        memory: 20_000.0,
        port_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = val("--addr"),
            "--rows" => args.rows = val("--rows").parse().expect("--rows"),
            "--seed" => args.seed = val("--seed").parse().expect("--seed"),
            "--mpl" => args.mpl = val("--mpl").parse().expect("--mpl"),
            "--memory" => args.memory = val("--memory").parse().expect("--memory"),
            "--port-file" => args.port_file = Some(val("--port-file")),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let db = TpchDb::build(
        TpchParams { lineitem_rows: args.rows, ..Default::default() },
        args.seed,
    );
    let svc = Arc::new(QueryService::new(
        &db.catalog,
        ServiceConfig {
            mpl: args.mpl,
            memory_rows: args.memory,
            drift_threshold: 1e9,
            ..ServiceConfig::with_engine(EngineConfig::from_env())
        },
    ));
    let server = WireServer::start(Arc::clone(&svc), &args.addr).expect("bind wire server");
    let port = server.port();
    if let Some(path) = &args.port_file {
        // Write to a temp name then rename: readers polling the path never
        // observe a half-written port.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{port}\n")).expect("write port file");
        std::fs::rename(&tmp, path).expect("rename port file");
    }
    println!("listening on 127.0.0.1:{port} (rows {}, mpl {})", args.rows, args.mpl);
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
