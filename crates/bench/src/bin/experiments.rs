//! Runs every experiment in order (the full paper reproduction): the
//! banner, then each figure/table binary's output.

use sal_bench::print;

fn main() {
    println!("==================================================================");
    println!("Reproduction of 'Serialized Asynchronous Links for NoC' (DATE'08)");
    println!("==================================================================\n");
    print::fig10();
    print::fig11();
    print::fig12();
    print::fig13();
    print::fig14();
    print::table1();
    print::table2();
    print::delay_check();
    print::headline();
    print::noc_study();
}
