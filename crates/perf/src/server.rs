//! The measured server: `rqp-perf serve` re-executed as a child process,
//! and the guard the client holds on it.
//!
//! The child is a `WireServer` over the generated database, nothing more.
//! It hands its port back on stdout, answers `probe` lines on stdin with
//! the plan cache's counters (STATS does not carry them), and exits when
//! stdin closes — so it cannot outlive a parent that died without running
//! the guard's `Drop`.

use crate::workload::{build_db, service_config};
use rqp_net::WireServer;
use rqp_server::QueryService;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;

/// Body of `rqp-perf serve --rows N --seed S [--page-budget P]`.
pub fn serve(lineitem_rows: usize, seed: u64, page_budget: Option<usize>) -> std::io::Result<()> {
    let db = build_db(lineitem_rows, seed);
    let svc = Arc::new(QueryService::new(&db.catalog, service_config(page_budget)));
    let server = WireServer::start(Arc::clone(&svc), "127.0.0.1:0")?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "port {}", server.port())?;
    out.flush()?;
    for line in std::io::stdin().lock().lines() {
        if line?.trim() == "probe" {
            let cache = svc.plan_cache();
            writeln!(
                out,
                "plan_cache {} {} {}",
                cache.hits(),
                cache.misses(),
                cache.len()
            )?;
            out.flush()?;
        }
    }
    Ok(())
}

/// The plan cache's counters, as the child reports them.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanCacheProbe {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

/// A running server child. Dropping the guard kills and reaps it.
pub struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    port: u16,
}

fn bad_reply(line: &str) -> std::io::Error {
    std::io::Error::other(format!("unexpected line from the server child: {line:?}"))
}

impl Server {
    /// Spawn this executable as `serve` and wait for its port. The child
    /// inherits this process's environment, which `main` scrubbed of every
    /// `RQP_*` variable.
    pub fn spawn(
        lineitem_rows: usize,
        seed: u64,
        page_budget: Option<usize>,
    ) -> std::io::Result<Server> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("serve")
            .args(["--rows", &lineitem_rows.to_string()])
            .args(["--seed", &seed.to_string()]);
        if let Some(pages) = page_budget {
            cmd.args(["--page-budget", &pages.to_string()]);
        }
        let mut child = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // The guard exists before the first read, so a child that fails to
        // start is still reaped.
        let mut server = Server {
            child,
            stdin,
            stdout,
            port: 0,
        };
        let line = server.read_line()?;
        server.port = line
            .strip_prefix("port ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| bad_reply(&line))?;
        Ok(server)
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("the server child closed its stdout"));
        }
        Ok(line.trim().to_string())
    }

    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// Ask the child for its plan-cache counters.
    pub fn probe(&mut self) -> std::io::Result<PlanCacheProbe> {
        writeln!(self.stdin, "probe")?;
        self.stdin.flush()?;
        let line = self.read_line()?;
        let mut fields = line
            .strip_prefix("plan_cache ")
            .ok_or_else(|| bad_reply(&line))?
            .split(' ');
        let mut next = || {
            fields
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| bad_reply(&line))
        };
        Ok(PlanCacheProbe {
            hits: next()?,
            misses: next()?,
            entries: next()?,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `(VmRSS in kB, thread count)` of process `pid`.
pub fn read_proc_status(pid: u32) -> std::io::Result<(f64, f64)> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| std::io::Error::other(format!("no {key} in /proc/{pid}/status")))
    };
    Ok((field("VmRSS:")?, field("Threads:")?))
}
