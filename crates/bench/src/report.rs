//! Text-table printing and JSON result persistence.

use std::path::Path;

/// Print a fixed-width table: `headers` then one row per entry.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:<w$}", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(ToString::to_string).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Write a JSON value under `<out_dir>/<name>.json` (no-op if out_dir is
/// None).
pub fn save_json(out_dir: &Option<std::path::PathBuf>, name: &str, value: &serde_json::Value) {
    let Some(dir) = out_dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return;
    }
    let path: std::path::PathBuf = Path::new(dir).join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: cannot write {path:?}: {e}");
            } else {
                eprintln!("(results saved to {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// The machine a bench report was measured on: logical CPUs, CPU model,
/// the SIMD features the kernels can use, the active kernel backend and
/// the compiler. Numbers from two reports compare only when these match.
pub fn host() -> serde_json::Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    serde_json::json!({
        "nproc": std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        "cpu_model": cpu_model,
        "simd_features": simd_features(),
        "kernel_backend": nnlqp_nn::kernel().as_str(),
        "rustc": env!("NNLQP_BENCH_RUSTC"),
    })
}

/// The x86-64 vector extensions this CPU reports: the AVX2/FMA pair the
/// f32 kernels use, plus the AVX-512 extensions a wider arm would need.
fn simd_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        [
            ("avx2", has!("avx2")),
            ("fma", has!("fma")),
            ("avx512f", has!("avx512f")),
            ("avx512bw", has!("avx512bw")),
            ("avx512vnni", has!("avx512vnni")),
        ]
        .into_iter()
        .filter_map(|(name, on)| on.then_some(name))
        .collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Format a percentage with two decimals, paper style.
pub fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

/// Format a float with `d` decimals.
pub fn num(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_and_num_format() {
        assert_eq!(pct(12.306), "12.31%");
        assert_eq!(num(2.99792, 2), "3.00");
    }

    #[test]
    fn save_json_noop_without_dir() {
        save_json(&None, "x", &serde_json::json!({"a": 1}));
    }

    #[test]
    fn save_json_writes_file() {
        let dir = std::env::temp_dir().join("nnlqp-bench-test");
        save_json(&Some(dir.clone()), "unit", &serde_json::json!({"ok": true}));
        let content = std::fs::read_to_string(dir.join("unit.json")).unwrap();
        assert!(content.contains("\"ok\": true"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
