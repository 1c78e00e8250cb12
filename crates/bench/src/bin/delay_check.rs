//! Validates the paper's per-word delay equation against the
//! gate-level simulation (paper §V).

fn main() {
    sal_bench::print::delay_check();
}
