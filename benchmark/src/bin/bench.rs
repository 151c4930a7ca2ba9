//! The benchmark's entry point; see `hydra_benchmark::cli`.

fn main() -> std::process::ExitCode {
    hydra_benchmark::cli::main(false)
}
