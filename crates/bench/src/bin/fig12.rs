//! Regenerates the paper's Fig 12: power vs. buffers at 100 MHz.

fn main() {
    sal_bench::print::fig12();
}
