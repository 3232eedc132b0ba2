//! The traced benchmark binary: the same harness with the counting
//! allocator installed, so `*.allocs_per_tuple` can be read around the
//! engine and tagger calls. The untraced binary never pays for the counter.

#[global_allocator]
static ALLOCATOR: sr_benchmark::alloc::Counting = sr_benchmark::alloc::Counting;

fn main() -> std::process::ExitCode {
    sr_benchmark::cli::main()
}
