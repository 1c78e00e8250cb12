//! Regenerates the paper's Fig 10: bandwidth vs. number of wires.

fn main() {
    sal_bench::print::fig10();
}
