//! Regenerates the paper's Fig 13: power vs. buffers at 300 MHz.

fn main() {
    sal_bench::print::fig13();
}
