//! Run metadata, printed ahead of the results: host parallelism, source
//! revision, toolchain, seeds. `run.py` passes what only it can learn
//! (revision, `rustc -V`) through the environment.

use crate::{Args, HELD_OUT_SEED};

/// Host parallelism as the standard library reports it.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    bench::scale::peak_rss_kib().unwrap_or(0) as f64 / 1024.0
}

/// Reset the peak-RSS mark (`VmHWM`) to the current RSS, so a second
/// pass in the same process reports its own peak. Best effort: without
/// `/proc/self/clear_refs` the mark stays and the peak is cumulative.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Print the metadata lines.
pub fn print(args: &Args) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    println!(
        "# perfbench workload={} seed={} seconds={:.3} trace={} tiny={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        args.trace as u8,
        args.tiny
    );
    println!("# held_out_seed={HELD_OUT_SEED} nproc={}", nproc());
    println!("# revision={}", env("PERFBENCH_REVISION"));
    println!("# rustc={}", env("PERFBENCH_RUSTC"));
}
