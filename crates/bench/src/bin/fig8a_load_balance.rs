//! E5 — Fig. 8a: load balance for the three Lp schemes. Writes the
//! Lorenz-style curves to `results/fig8a.csv`.

use bench::report::print_table;
use bench::{fig8, Scale};

fn main() {
    let scale = Scale::from_env();
    let points = fig8::fig8a(scale);
    fig8::fig8a_csv(&points).write();

    let summary: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.scheme.label(),
                p.lp.to_string(),
                format!("{:.4}", p.gini),
                format!("{:.3}", p.delta_observed),
            ]
        })
        .collect();
    print_table(
        &format!("Fig. 8a — load balance per scheme ({scale:?})"),
        &["scheme", "lp", "gini", "delta_observed"],
        &summary,
    );
    println!("\nwrote results/fig8a.csv (full curves)");
}
