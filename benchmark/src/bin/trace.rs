//! The traced binary: `bench` with `hydra_sim::CountingAlloc` installed
//! as the global allocator, so allocation counts are real here and the
//! end-to-end binary pays no counter. Started by `bench trace`.

#[global_allocator]
static ALLOC: hydra_sim::CountingAlloc = hydra_sim::CountingAlloc;

fn main() -> std::process::ExitCode {
    hydra_benchmark::cli::main(true)
}
