//! E3 — Fig. 7a: query processing time vs network size, P2P vs
//! centralized. Writes `results/fig7a.csv`.

use bench::report::print_table;
use bench::{fig7, Scale};

fn main() {
    let scale = Scale::from_env();
    let csv = fig7::fig7a_csv(&fig7::fig7a(scale));
    csv.write();
    let title = format!("Fig. 7a — trace-query time vs network size ({scale:?})");
    print_table(&title, csv.header, &csv.rows);
    println!("\nwrote results/{}", csv.file);
}
