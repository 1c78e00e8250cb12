//! Regenerates the paper's Fig 14: average power breakdown at 50% usage.

fn main() {
    sal_bench::print::fig14();
}
