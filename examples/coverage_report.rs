//! Prints a per-category configuration-coverage report (§3.9) for a
//! generated role, in the spirit of Tables 4 and 5 of the paper.
//!
//! Run with: `cargo run --example coverage_report [role]`

use concord::core::{check, learn, Dataset, LearnParams};
use concord::datagen::{generate_role, standard_roles};

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "E1".to_string());
    let Some(spec) = standard_roles(0.5).into_iter().find(|s| s.name == wanted) else {
        eprintln!("unknown role {wanted}; use one of E1 E2 W1..W8");
        std::process::exit(2);
    };

    let role = generate_role(&spec, 99);
    let dataset = Dataset::from_named_texts(&role.configs, &role.metadata).expect("dataset");
    let params = LearnParams {
        learn_constants: true,
        ..LearnParams::default()
    };
    let contracts = learn(&dataset, &params);
    let report = check(&contracts, &dataset);
    let summary = report.coverage.summary();

    println!(
        "role {}: {} devices, {} lines",
        role.name,
        role.configs.len(),
        summary.total_lines
    );
    println!("contracts learned: {}", contracts.len());
    for (category, count) in contracts.count_by_category() {
        println!("  {category:<10} {count}");
    }
    println!(
        "\ntotal coverage: {:.1}% ({} / {} lines)",
        summary.fraction * 100.0,
        summary.covered_lines,
        summary.total_lines
    );
    println!("by category:");
    for (category, fraction) in &summary.by_category {
        println!("  {category:<10} {:>5.1}%", fraction * 100.0);
    }

    // Show a few uncovered lines: these guide new contract categories
    // (the paper's motivation for measuring coverage).
    println!("\nsample uncovered lines:");
    let mut shown = 0;
    'outer: for (config, cov) in dataset.configs.iter().zip(&report.coverage.per_config) {
        for (i, line) in config.lines(&dataset.arenas).enumerate() {
            if line.is_meta || cov.covered().contains(i) {
                continue;
            }
            println!(
                "  {}:{} {}",
                dataset.name_of(config),
                line.line_no,
                line.original
            );
            shown += 1;
            if shown >= 8 {
                break 'outer;
            }
        }
    }
    if shown == 0 {
        println!("  (none - every line is covered)");
    }
}
