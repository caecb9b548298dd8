//! What the operating system knows about this process, and what the
//! machine is: CPU seconds, peak resident memory, run metadata.

use std::process::Command;

use arm2gc_crypto::AesBackend;

use crate::json::Value;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux ABI; reading it properly needs `sysconf`, which
/// std does not expose.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used, from
/// `/proc/self/stat`. 0 where that file does not exist.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields are counted after the parenthesised command name, which may
    // itself contain spaces: utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`). 0 where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Name of the AES backend the crypto crate will pick, honouring
/// `ARM2GC_AES_BACKEND`; the error text when the override is bogus.
pub fn aes_backend_name() -> String {
    match AesBackend::try_detect() {
        Ok(backend) => backend.name().to_string(),
        Err(e) => format!("invalid override: {e}"),
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run metadata recorded beside the numbers.
pub fn metadata(seed: u64, seconds: f64, quick: bool) -> Value {
    Value::obj([
        // "unknown" in a checkout that is not a git repository.
        (
            "commit",
            Value::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(first_line_of("rustc", &["-V"]))),
        ("nproc", Value::Num(nproc() as f64)),
        ("aes_backend", Value::Str(aes_backend_name())),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("comparable", Value::Bool(!quick)),
        (
            "network",
            Value::str(
                "loopback, not a link: tcp_aes128_ot and svc_mix measure socket framing and \
                 syscalls, never bandwidth or latency of a real network",
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        // Burn a little CPU so utime is visibly non-zero.
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
        assert!(!aes_backend_name().is_empty());
    }
}
