//! Reproduces the paper's evaluation in paper order: Table I (the
//! hardware component library), then Fig. 8, Fig. 9, Fig. 10 and
//! Table II as views of one `pimcomp_bench::evaluate` run at GA seed 1,
//! then every claim next to the paper's figure.

use pimcomp_arch::ComponentLibrary;
use pimcomp_bench::{evaluate, Claim, Evaluation, HarnessOptions};
use serde::Serialize;

/// What `--json` writes: no wall-clock field, so two runs `cmp` equal.
#[derive(Serialize)]
struct Output {
    evaluation: Evaluation,
    claims: Vec<Claim>,
}

/// Table I: component power/area, including the CACTI-7-substitute
/// memory rows and the Orion-3.0-substitute router row at their
/// calibrated design points.
fn print_table1() {
    let lib = ComponentLibrary::puma();
    println!("TABLE I — HARDWARE CONFIGURATIONS (PUMA-like instantiation)");
    println!(
        "{:<16} {:<28} {:>12} {:>12}",
        "Component", "Specification", "Power (mW)", "Area (mm2)"
    );
    for row in lib.rows() {
        println!(
            "{:<16} {:<28} {:>12.2} {:>12.3}",
            row.name, row.spec, row.power_mw, row.area_mm2
        );
    }
    println!();
    println!(
        "core check: sum of parts = {:.2} mW / {:.3} mm2 (published {:.2} / {:.2})",
        lib.core_power_from_parts(),
        lib.core_area_from_parts(),
        lib.core.power_mw,
        lib.core.area_mm2
    );
}

fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let opts = HarnessOptions::from_args();
    print_table1();
    let evaluation = or_exit(evaluate(&opts, 1));
    // Fig. 8 and Fig. 9 end in a blank line; the others do not.
    print!("\n{}{}", evaluation.fig8(), evaluation.fig9());
    println!("{}", evaluation.fig10());
    println!("{}", evaluation.table2());
    let claims = evaluation.claims();
    println!("CLAIMS — {:<41} {:>8} {:>10}", "id", "paper", "ours");
    for claim in &claims {
        println!("{claim}");
    }
    or_exit(opts.write_json(&Output { evaluation, claims }));
}
