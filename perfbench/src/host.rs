//! Host and build provenance recorded with every result.

use serde_json::{json, Value};
use std::path::Path;

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

pub fn provenance() -> Value {
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        "cpu_model": cpu_model(),
        "kernel_backend": nnlqp_nn::kernel().as_str(),
        "rustc": env!("PERFBENCH_RUSTC"),
        "commit": env!("PERFBENCH_COMMIT"),
        "store_fs": fs_type(&crate::work_dir()),
        "fsync_policy": format!("{:?}", crate::serve::FSYNC),
        "generator_threads": crate::gen::MAX_THREADS,
        "generator_timer_slack_1ns": crate::gen::set_timer_slack_1ns(),
    })
}
