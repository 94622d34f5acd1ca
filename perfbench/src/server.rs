//! The `upsim serve` child process: spawn, readiness, `STATS`, shutdown.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::wire::Conn;

/// Worker threads the server runs with.
pub const WORKERS: usize = 2;

/// How long boot (model load, journal restore) may take.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);

/// A running server. Dropping it kills the process if [`Server::stop`]
/// was not reached, so no server outlives the benchmark.
pub struct Server {
    child: Child,
    pub addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `upsim serve <args> --addr 127.0.0.1:0 --workers 2`, bound
    /// to `cpu` when given (through `taskset`, which replaces itself with
    /// the server), and waits for its listening banner.
    pub fn spawn(bin: &Path, args: &[String], cpu: Option<usize>) -> Result<Server, String> {
        let mut command = match cpu {
            Some(cpu) => {
                let mut taskset = Command::new("taskset");
                taskset.args(["-c", &cpu.to_string()]).arg(bin);
                taskset
            }
            None => Command::new(bin),
        };
        let mut child = command
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stdout for the server's whole life so it never blocks on
        // a full pipe; the first banner line carries the bound address.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("upsim-server listening on ") {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            stdout: Some(reader),
        };
        match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => Err("server exited or stayed silent before listening".into()),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Sends `SHUTDOWN` and waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        let reply = conn.call("SHUTDOWN").map_err(|e| e.to_string())?;
        if !reply.starts_with("OK") {
            return Err(format!("SHUTDOWN answered `{reply}`"));
        }
        drop(conn);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// Numeric fields of a `STATS` reply (`key=value` and `key<=value`).
pub fn stats(conn: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    let line = conn.call("STATS").map_err(|e| e.to_string())?;
    let body = line
        .strip_prefix("OK stats ")
        .ok_or_else(|| format!("STATS answered `{line}`"))?;
    Ok(parse_stats(body))
}

fn parse_stats(body: &str) -> BTreeMap<String, f64> {
    body.split_whitespace()
        .filter_map(|token| {
            let (key, value) = token.split_once('=')?;
            Some((key.trim_end_matches('<').to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_tokens_parse() {
        let s = parse_stats("queries=12 hit_rate=0.750 eval_p50_us<=128 state_dir=- stage[7-path-discovery]_ms=3.25");
        assert_eq!(s["queries"], 12.0);
        assert_eq!(s["hit_rate"], 0.75);
        assert_eq!(s["eval_p50_us"], 128.0);
        assert_eq!(s["stage[7-path-discovery]_ms"], 3.25);
        assert!(!s.contains_key("state_dir"));
    }
}
