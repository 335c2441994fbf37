//! Process and host facts the benchmark records: resident-memory high
//! water mark and CPU time (from `getrusage`, so no file outside the
//! checkout is read), plus the host fingerprint every result carries.

use serde_json::{json, Value};
use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `Rusage` matches the kernel's layout and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    r
}

/// The process's resident-memory high-water mark in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss_kb as f64 / 1024.0
}

/// Returns freed heap memory to the kernel (glibc's allocator keeps it
/// in per-thread arenas otherwise), so memory one phase freed does not
/// stay resident into the next.
pub fn trim_heap() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` only releases free pages the allocator owns.
    unsafe {
        malloc_trim(0);
    }
}

/// User plus system CPU time consumed by the whole process so far.
pub fn cpu_time() -> Duration {
    let r = rusage();
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&r.utime) + us(&r.stime))
}

/// The CPU brand string from `cpuid`, or `"unknown"` off x86-64.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // the brand leaves are read only when the CPU reports them
        let max_ext = __cpuid(0x8000_0000).eax;
        if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

/// The SIMD features the kernels dispatch on.
pub fn isa_flags() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    flags.push($f);
                }
            )*};
        }
        probe!("sse2", "avx", "avx2", "fma", "avx512f", "avx512vnni");
    }
    flags
}

/// The commit the checkout was taken from, when `.git` is present in
/// the working directory; `"unknown"` in an exported tree.
pub fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

/// The run's context: host fingerprint, kernel variant, rev and seed.
pub fn context(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_model": cpu_model(),
        "cores": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "isa": isa_flags(),
        "pbg_kernel": pbg_tensor::kernels::dispatch::active().name(),
        "git_rev": git_rev(),
    })
}
