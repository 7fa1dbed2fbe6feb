//! Records the toolchain and the source commit for the result's
//! provenance block.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let git = Path::new("../.git");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", commit(git));
    // A missing path would make cargo rerun this script on every build.
    if git.join("HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
    println!("cargo:rerun-if-changed=build.rs");
}

/// The checked-out commit, read from the repository's `.git` directory
/// without running git; `unknown` outside a git checkout.
fn commit(git: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&git.join(reference)) {
        return id;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
