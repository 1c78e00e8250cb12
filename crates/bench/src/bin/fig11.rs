//! Regenerates the paper's Fig 11: wiring area vs. wire length.

fn main() {
    sal_bench::print::fig11();
}
