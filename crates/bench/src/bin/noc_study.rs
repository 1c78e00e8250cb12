//! Mesh-level study (extension): 4x4 NoC with each link model.

fn main() {
    sal_bench::print::noc_study();
}
