//! `hotc-benchmark`: the timed and traced passes, on the system allocator.

fn main() -> std::process::ExitCode {
    hotc_benchmark::cli::main()
}
