//! Regenerates the paper's Table 2: breakdown of implementation I2.

fn main() {
    sal_bench::print::table2();
}
