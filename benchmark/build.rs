//! Stamps the compiler version and flags into the binary for the host
//! envelope on every result file.
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_else(|| "unknown".into());
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={}", version.trim());
    println!("cargo:rustc-env=BENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-changed=build.rs");
}
