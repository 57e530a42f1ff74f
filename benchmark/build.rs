//! Records the toolchain and source revision the benchmark was built from,
//! so every result can name them without starting a process at run time.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!(
        "cargo:rustc-env=BENCH_GIT_COMMIT={}",
        git_commit(Path::new("../.git"))
    );
    // Watch only paths that exist: cargo reruns a build script on every
    // build when a watched path is missing.
    println!("cargo:rerun-if-changed=build.rs");
    for watched in ["../.git/HEAD", "../.git/refs", "../.git/packed-refs"] {
        if Path::new(watched).exists() {
            println!("cargo:rerun-if-changed={watched}");
        }
    }
}

/// Resolve `HEAD` by reading the git directory; a checkout without one
/// (an exported tree) reports `unknown`.
fn git_commit(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
