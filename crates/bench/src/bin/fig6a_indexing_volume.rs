//! E1 — Fig. 6a: scalability of indexing on data volume (dynamic
//! network). Prints the two series and writes `results/fig6a.csv`.

use bench::report::print_table;
use bench::{fig6, Scale};

fn main() {
    let scale = Scale::from_env();
    let csv = fig6::fig6a_csv(&fig6::fig6a(scale));
    csv.write();
    let title = format!("Fig. 6a — indexing cost vs data volume ({scale:?})");
    print_table(&title, csv.header, &csv.rows);
    println!("\nwrote results/{}", csv.file);
}
