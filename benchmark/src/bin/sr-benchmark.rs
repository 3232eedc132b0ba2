//! The untraced benchmark binary (and the driver): system allocator,
//! nothing between the harness and the program under test.

fn main() -> std::process::ExitCode {
    sr_benchmark::cli::main()
}
