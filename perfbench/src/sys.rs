//! Host facts and process clocks read from the operating system.

use std::hint::black_box;
use std::time::Instant;

/// The compiler that built this benchmark.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User and system CPU time of this process so far, in µs.
pub fn user_sys_us() -> (u64, u64) {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` has the layout of `struct rusage` on 64-bit Linux and
    // is writable; RUSAGE_SELF is always a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    (us(&ru.utime), us(&ru.stime))
}

/// CPU time consumed by every thread of this process so far, in ns
/// (Linux keeps the user + system sum exact; only the split is sampled).
pub fn process_cpu_ns() -> u64 {
    let (user, sys) = user_sys_us();
    (user + sys) * 1_000
}

/// Peak resident set size of this process so far (Linux `VmHWM`), in
/// MB; NaN when it cannot be read.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One timing of the fixed reference kernel, in ms: 2^22 xorshift steps
/// scattering into a 256 KiB table. It does the same work on every run,
/// so its reading shows how fast the host is at the moment; it scales
/// no other number.
pub fn reference_kernel_ms() -> f64 {
    let mut table = vec![0u64; 1 << 15];
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let started = Instant::now();
    for _ in 0..(1u32 << 22) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        table[i] = table[i].wrapping_add(x);
    }
    black_box(&table);
    started.elapsed().as_secs_f64() * 1e3
}
