//! Run every §V experiment (E1–E6), print the paper-shaped series,
//! check the shape-level acceptance criteria from DESIGN.md, and write
//! all CSVs under `results/`.
//!
//! `PEERTRACK_SCALE=full` reproduces the paper's parameters (512 nodes,
//! 5 000 objects/node — several minutes); the default `quick` scale runs
//! the same code at 1/4 network size and 1/10 volume.

use bench::report::{log_log_slope, print_table};
use bench::{fig6, fig7, fig8, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("PeerTrack experiment suite — scale {scale:?}");
    let t0 = std::time::Instant::now();
    let mut criteria: Vec<(String, bool)> = Vec::new();

    // ---------------- E1: Fig. 6a ----------------
    let e1 = fig6::fig6a(scale);
    {
        let rows: Vec<Vec<String>> = e1
            .iter()
            .map(|p| {
                vec![
                    p.series.clone(),
                    p.objects_per_node.to_string(),
                    p.lp.to_string(),
                    p.messages.to_string(),
                    p.bytes.to_string(),
                ]
            })
            .collect();
        let header = ["series", "objects/node", "lp", "messages", "bytes"];
        print_table("E1 / Fig. 6a — indexing cost vs data volume (dynamic network)", &header, &rows);
        fig6::fig6a_csv(&e1).write();

        // Criteria: near-parity at the lowest volume; group cheaper at
        // the highest; group sublinear vs individual linear.
        let vols: Vec<usize> = {
            let mut v: Vec<usize> = e1.iter().map(|p| p.objects_per_node).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let at = |series: &str, vol: usize| {
            e1.iter()
                .find(|p| p.series.starts_with(series) && p.objects_per_node == vol)
                .map(|p| p.messages as f64)
                .expect("point exists")
        };
        let lo = *vols.first().unwrap();
        let hi = *vols.last().unwrap();
        let parity = at("group", lo) / at("individual", lo);
        criteria.push((format!("E1: near-parity at {lo}/node (ratio {parity:.2} in 0.4..=1.3)"), (0.4..=1.3).contains(&parity)));
        let sep_hi = at("individual", hi) / at("group", hi);
        let sep_lo = at("individual", lo) / at("group", lo);
        criteria.push((format!("E1: group cheaper at {hi}/node (factor {sep_hi:.2} > 1.05)"), sep_hi > 1.05));
        criteria.push((format!(
            "E1: separation grows with volume (factor {sep_lo:.2} @{lo} -> {sep_hi:.2} @{hi})"
        ), sep_hi > sep_lo));
        let ind_slope = log_log_slope(
            &e1.iter()
                .filter(|p| p.series.starts_with("individual"))
                .map(|p| (p.objects_per_node as f64, p.messages as f64))
                .collect::<Vec<_>>(),
        );
        let grp_slope = log_log_slope(
            &e1.iter()
                .filter(|p| p.series.starts_with("group"))
                .map(|p| (p.objects_per_node as f64, p.messages as f64))
                .collect::<Vec<_>>(),
        );
        criteria.push((format!("E1: individual ~linear in volume (slope {ind_slope:.2} in 0.9..1.1)"), (0.9..1.1).contains(&ind_slope)));
        criteria.push((format!("E1: group sublinear in volume (slope {grp_slope:.2} < individual {ind_slope:.2})"), grp_slope < ind_slope - 0.01));
    }

    // ---------------- E2: Fig. 6b ----------------
    let e2 = fig6::fig6b(scale);
    {
        let rows: Vec<Vec<String>> = e2
            .iter()
            .map(|p| {
                vec![
                    p.series.clone(),
                    p.nn.to_string(),
                    p.lp.to_string(),
                    p.messages.to_string(),
                ]
            })
            .collect();
        print_table("E2 / Fig. 6b — indexing cost vs network size", &["series", "nn", "lp", "messages"], &rows);
        fig6::fig6b_csv(&e2).write();

        let series_pts = |name: &str| {
            e2.iter()
                .filter(|p| p.series == name)
                .map(|p| (p.nn as f64, p.messages as f64))
                .collect::<Vec<_>>()
        };
        let ind = series_pts("individual");
        let grp_g = series_pts("group (movement in group)");
        let grp_i = series_pts("group (movement individually)");
        // Fig. 6b's finding: group stays below individual at every size,
        // but "when the size of network increases, the indexing cost for
        // the group indexing algorithm becomes closer to that for the
        // individual indexing algorithm" — the gap narrows with Nn.
        let below = ind.iter().zip(&grp_g).all(|((_, i), (_, g))| g <= i);
        criteria.push(("E2: group ≤ individual at every network size".into(), below));
        let first_gap = ind.first().unwrap().1 / grp_g.first().unwrap().1;
        let last_gap = ind.last().unwrap().1 / grp_g.last().unwrap().1;
        criteria.push((format!(
            "E2: gap narrows as Nn grows (ratio {first_gap:.2} -> {last_gap:.2})"
        ), last_gap < first_gap));
        let grouped_cheaper = grp_g
            .iter()
            .zip(&grp_i)
            .all(|((_, a), (_, b))| a <= b);
        criteria.push(("E2: movement-in-group ≤ movement-individually at every size".into(), grouped_cheaper));
    }

    // ---------------- E3: Fig. 7a ----------------
    let e3 = fig7::fig7a(scale);
    {
        let rows: Vec<Vec<String>> = e3
            .iter()
            .map(|p| {
                vec![
                    p.nn.to_string(),
                    format!("{:.2}", p.p2p_ms),
                    format!("{:.2}", p.centralized_ms),
                    format!("{:.1}", p.p2p_messages),
                    p.warehouse_rows.to_string(),
                ]
            })
            .collect();
        print_table("E3 / Fig. 7a — trace-query time vs network size", &["nn", "p2p_ms", "centralized_ms", "p2p_msgs", "db_rows"], &rows);
        fig7::fig7a_csv(&e3).write();

        let p2p: Vec<f64> = e3.iter().map(|p| p.p2p_ms).collect();
        let flat = p2p.iter().cloned().fold(f64::MIN, f64::max)
            / p2p.iter().cloned().fold(f64::MAX, f64::min);
        criteria.push((format!("E3: P2P ~constant across sizes (max/min {flat:.2} ≤ 2.5)"), flat <= 2.5));
        let central_increasing = e3.windows(2).all(|w| w[0].centralized_ms < w[1].centralized_ms);
        criteria.push(("E3: centralized strictly increasing with Nn".into(), central_increasing));
        if scale == Scale::Full {
            // The crossover needs the paper's database sizes; at quick
            // scale the warehouse stays small and wins throughout.
            let crossover = e3.first().map(|p| p.centralized_ms < p.p2p_ms).unwrap_or(false)
                && e3.last().map(|p| p.centralized_ms > p.p2p_ms).unwrap_or(false);
            criteria.push(("E3: centralized wins small, P2P wins large (crossover in sweep)".into(), crossover));
        } else {
            println!("  (E3 crossover check skipped at Quick scale: the warehouse never grows past the P2P constant)");
        }
    }

    // ---------------- E4: Fig. 7b ----------------
    let e4 = fig7::fig7b(scale);
    {
        let rows: Vec<Vec<String>> = e4
            .iter()
            .map(|p| {
                vec![
                    p.objects_per_node.to_string(),
                    format!("{:.2}", p.p2p_ms),
                    format!("{:.2}", p.centralized_ms),
                ]
            })
            .collect();
        print_table("E4 / Fig. 7b — trace-query time vs data volume", &["objects/node", "p2p_ms", "centralized_ms"], &rows);
        fig7::fig7b_csv(&e4).write();

        let p2p: Vec<f64> = e4.iter().map(|p| p.p2p_ms).collect();
        let flat = p2p.iter().cloned().fold(f64::MIN, f64::max)
            / p2p.iter().cloned().fold(f64::MAX, f64::min);
        criteria.push((format!("E4: P2P ~constant across volumes (max/min {flat:.2} ≤ 2.5)"), flat <= 2.5));
        let central_increasing = e4.windows(2).all(|w| w[0].centralized_ms < w[1].centralized_ms);
        criteria.push(("E4: centralized strictly increasing with volume".into(), central_increasing));
    }

    // ---------------- E5: Fig. 8a ----------------
    let e5 = fig8::fig8a(scale);
    {
        let rows: Vec<Vec<String>> = e5
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
        print_table("E5 / Fig. 8a — load balance per Lp scheme", &["scheme", "lp", "gini", "delta"], &rows);
        fig8::fig8a_csv(&e5).write();

        let g = |s: peertrack::PrefixScheme| e5.iter().find(|p| p.scheme == s).unwrap().gini;
        use peertrack::PrefixScheme::*;
        criteria.push((format!(
            "E5: balance order gini(S3) {:.3} < gini(S2) {:.3} < gini(S1) {:.3}",
            g(Scheme3), g(Scheme2), g(Scheme1)
        ), g(Scheme3) < g(Scheme2) && g(Scheme2) < g(Scheme1)));
    }

    // ---------------- E6: Fig. 8b ----------------
    let e6 = fig8::fig8b(scale);
    {
        let csv = fig8::fig8b_csv(&e6);
        print_table("E6 / Fig. 8b — indexing cost per Lp scheme", &["scheme", "nn", "lp", "messages", "log2"], &csv.rows);
        csv.write();

        use peertrack::PrefixScheme::*;
        let cost = |s: peertrack::PrefixScheme, nn: usize| {
            e6.iter().find(|p| p.scheme == s && p.nn == nn).unwrap().messages
        };
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = e6.iter().map(|p| p.nn).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let ordered = sizes
            .iter()
            .all(|&n| cost(Scheme1, n) <= cost(Scheme2, n) && cost(Scheme2, n) <= cost(Scheme3, n));
        criteria.push(("E6: cost(S1) ≤ cost(S2) ≤ cost(S3) at every size".into(), ordered));
    }

    // ---------------- Verdicts ----------------
    println!("\n== Shape-level acceptance criteria (DESIGN.md §5) ==");
    let mut all_ok = true;
    for (what, ok) in &criteria {
        println!("  [{}] {}", if *ok { "PASS" } else { "FAIL" }, what);
        all_ok &= ok;
    }
    println!(
        "\n{} criteria passed in {:.1}s — CSVs under results/",
        if all_ok { "ALL" } else { "NOT ALL" },
        t0.elapsed().as_secs_f64()
    );
    if !all_ok {
        std::process::exit(1);
    }
}
