//! Regenerates the paper's headline claims (abstract / conclusions).

fn main() {
    sal_bench::print::headline();
}
