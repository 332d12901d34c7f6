//! `hotc-benchmark-counted`: the same program behind the counting allocator,
//! spawned by `hotc-benchmark` for the counted pass.

#[global_allocator]
static COUNTING: hotc_benchmark::alloc::CountingAlloc = hotc_benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    hotc_benchmark::cli::main()
}
