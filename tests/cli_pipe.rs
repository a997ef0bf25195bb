//! `mcdla query` into a pipe whose reader is already gone (`| head`
//! after it exits) ends cleanly: exit 0, no panic text.

use std::process::{Command, Stdio};

use mcdla::serve::{ServeConfig, Server};

#[test]
fn query_into_a_closed_pipe_exits_zero_without_panicking() {
    let handle = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        sample_ms: Some(0),
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let addr = handle.addr().to_string();
    let body = r#"{"benchmarks":["AlexNet"]}"#;
    let out = Command::new(env!("CARGO_BIN_EXE_mcdla"))
        .args(["query", "--addr", &addr, "grid", "--body", body])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    handle.shutdown();
}
