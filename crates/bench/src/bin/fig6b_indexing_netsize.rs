//! E2 — Fig. 6b: scalability of indexing on network size (three
//! series). Prints the series and writes `results/fig6b.csv`.

use bench::report::print_table;
use bench::{fig6, Scale};

fn main() {
    let scale = Scale::from_env();
    let csv = fig6::fig6b_csv(&fig6::fig6b(scale));
    csv.write();
    let title = format!("Fig. 6b — indexing cost vs network size ({scale:?})");
    print_table(&title, csv.header, &csv.rows);
    println!("\nwrote results/{}", csv.file);
}
