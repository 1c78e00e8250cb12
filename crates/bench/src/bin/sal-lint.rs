//! `sal-lint` — the repo's netlist gatekeeper: builds every link
//! implementation (I1/I2/I3) across the configuration corners the
//! sweeps exercise, runs the full static-analysis suite (connectivity,
//! loop classification, bundled-data timing, handshake protocol) on
//! each, prints a per-corner summary with the static timing margins,
//! and writes the machine-readable `BENCH_lint.json` (bytewise
//! deterministic — CI diffs it against a committed fixture).
//!
//! Exits non-zero if any corner produces an error-severity finding:
//! a clean tree must lint clean.

use sal_cells::CircuitBuilder;
use sal_des::json::Json;
use sal_bench::robustness::lint_corners;
use sal_des::Simulator;
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};
use sal_lint::{run_all, timing_margins, LintReport, Severity, TimingMargin};
use sal_tech::St012Library;

fn lint_corner(spec: &LinkSpec, base: &LinkConfig) -> (LintReport, Vec<TimingMargin>) {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    generate(&mut b, spec, "link", base)
        .unwrap_or_else(|e| panic!("{} failed to build: {e}", spec.family().label()));
    b.finish();
    let graph = sim.netgraph();
    (run_all(&graph), timing_margins(&graph))
}

fn margin_json(j: &mut Json, m: &TimingMargin) {
    j.obj();
    j.key("bundle").str(&m.bundle);
    j.key("capture").str(&m.capture_data);
    j.key("trigger").str(&m.capture_trigger);
    j.key("data_ps").fixed(m.data_max_ps, 1);
    j.key("strobe_ps").fixed(m.strobe_min_ps, 1);
    j.key("lead_ps").fixed(m.data_lead_ps, 1);
    j.key("margin_ps").fixed(m.margin_ps, 1);
    j.end();
}

fn main() {
    println!("sal-lint — static netlist analysis over every link and corner\n");
    let mut j = Json::new();
    j.obj_block();
    j.key("corners").arr_block();
    let mut total_errors = 0usize;
    for family in [LinkFamily::Sync, LinkFamily::PerTransfer, LinkFamily::PerWord] {
        for (label, spec, base) in lint_corners(family) {
            let (report, margins) = lint_corner(&spec, &base);
            let errors = report.count(Severity::Error);
            let warnings = report.count(Severity::Warning);
            let infos = report.count(Severity::Info);
            total_errors += errors;
            let worst = margins
                .iter()
                .map(|m| m.margin_ps)
                .fold(f64::INFINITY, f64::min);
            println!(
                "{:<3} {:<12} errors {:>2}, warnings {:>2}, infos {:>3}, captures {:>3}{}",
                family.label(),
                label,
                errors,
                warnings,
                infos,
                margins.len(),
                if margins.is_empty() {
                    String::from("  (statically unconstrained)")
                } else {
                    format!(", worst margin {worst:+.1} ps")
                }
            );
            for f in report.errors() {
                println!("    ERROR [{}] {}: {}", f.pass, f.path, f.message);
            }
            if label == "default" {
                for f in report.findings.iter().filter(|f| f.severity == Severity::Warning) {
                    println!("    warn  [{}] {}: {}", f.pass, f.path, f.message);
                }
            }
            j.obj();
            j.key("kind").str(family.label());
            j.key("corner").str(label);
            j.key("errors").num(errors);
            j.key("warnings").num(warnings);
            j.key("infos").num(infos);
            j.key("margins").arr_block();
            for m in &margins {
                margin_json(&mut j, m);
            }
            j.end();
            j.end();
        }
    }
    j.end();
    j.end();

    let json = j.finish();
    std::fs::write("BENCH_lint.json", &json).expect("write BENCH_lint.json");
    println!("\nwrote BENCH_lint.json ({} bytes)", json.len());

    assert_eq!(total_errors, 0, "lint errors found — the netlist is structurally broken");
    println!("all corners lint clean");
}
