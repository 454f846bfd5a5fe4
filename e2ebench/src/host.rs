//! Host fingerprint and process memory.
//!
//! Results from two hosts are only comparable with this context: the
//! architecture, the hardware threads, the CPU features the JIT and the
//! AVX2 lane path key on, and a machine-speed calibration rate from the
//! golden interpreter (which contains no engine code).

use essent::netlist::Netlist;

/// CPU features the engines' fast paths key on (`popcnt` for the
/// x86-64 JIT, `avx2` for the batch engine's 4-wide lane path).
pub fn cpu_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            f.push("popcnt");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
    }
    #[cfg(target_arch = "aarch64")]
    f.push("neon");
    f
}

/// The fingerprint as a JSON object; `calibration_khz` is
/// `essent_bench::calibration_khz` on the workload's design.
pub fn fingerprint_json(netlist: &Netlist) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<String> = cpu_features().iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"arch\": \"{}\", \"available_parallelism\": {threads}, \"cpu_features\": [{}], \"calibration_khz\": {}}}",
        std::env::consts::ARCH,
        features.join(", "),
        essent_bench::calibration_khz(netlist),
    )
}

/// The process's peak resident set (`VmHWM`) in MiB, from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
