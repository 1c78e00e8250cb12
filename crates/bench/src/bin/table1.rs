//! Regenerates the paper's Table 1: link area overhead.

fn main() {
    sal_bench::print::table1();
}
