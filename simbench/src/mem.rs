//! Peak resident memory of this process (Linux `/proc/self`).

/// The process's peak resident set (`VmHWM`) in MiB, if the kernel
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the peak to the current resident set, so the next reading
/// covers only what runs after this call. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_an_allocation_of_n_mib() {
        const N: usize = 64;
        reset_peak_rss();
        // `vec![1u8; …]` writes every byte, so every page is resident.
        let block = vec![1u8; N << 20];
        std::hint::black_box(&block);
        let peak = peak_rss_mib().expect("VmHWM is readable on Linux");
        assert!(peak >= N as f64, "peak {peak} MiB < {N} MiB allocated");
    }
}
