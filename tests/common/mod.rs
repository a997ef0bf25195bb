//! Process harness shared by the root integration tests: real `mcdla`
//! child processes that die by SIGKILL, so a crash or a kill -9 is
//! observed exactly as an operator would see it.

#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mcdla::serve::client::Timeouts;

/// A serving child process (`mcdla serve` or `mcdla gateway`);
/// SIGKILLed on drop so failed tests never leak servers.
pub struct WorkerProc {
    pub child: Child,
    pub addr: String,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl WorkerProc {
    /// Spawns `mcdla serve` on an ephemeral port and waits for it to
    /// answer `/healthz`.
    pub fn spawn() -> WorkerProc {
        WorkerProc::spawn_with(&["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
    }

    /// Spawns `mcdla gateway` on an ephemeral port over `backends` and
    /// waits for it to answer `/healthz`.
    pub fn spawn_gateway(backends: &[&str]) -> WorkerProc {
        let backends = backends.join(",");
        WorkerProc::spawn_with(&["gateway", "--addr", "127.0.0.1:0", "--backends", &backends])
    }

    /// Spawns `mcdla <args>`, reads the listen address off its banner
    /// line, and waits for `/healthz`.
    pub fn spawn_with(args: &[&str]) -> WorkerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mcdla"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mcdla");
        // Both tiers print `... listening on HOST:PORT (...)` before
        // entering the event loop.
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines.next().expect("banner line").expect("read banner");
        let addr = banner
            .split_whitespace()
            .find(|tok| {
                tok.contains(':')
                    && tok
                        .split(':')
                        .nth(1)
                        .is_some_and(|p| p.parse::<u16>().is_ok())
            })
            .unwrap_or_else(|| panic!("no address in banner `{banner}`"))
            .to_owned();
        let deadline = Instant::now() + Duration::from_secs(20);
        let probe_timeouts = Timeouts::all(Duration::from_millis(500));
        loop {
            if let Ok(resp) = mcdla::serve::client::request_once_with(
                &addr,
                "GET",
                "/healthz",
                None,
                probe_timeouts,
            ) {
                if resp.is_ok() {
                    break;
                }
            }
            assert!(
                Instant::now() < deadline,
                "node at {addr} never became healthy"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        WorkerProc { child, addr }
    }

    /// SIGKILL — the process dies mid-whatever-it-was-doing.
    pub fn kill9(&mut self) {
        self.child.kill().expect("SIGKILL worker");
        self.child.wait().expect("reap worker");
    }

    /// Whether the process is still running.
    pub fn alive(&mut self) -> bool {
        self.child.try_wait().expect("poll child").is_none()
    }
}
