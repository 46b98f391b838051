//! Experiment harness CLI: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p lb-bench --bin experiments -- all
//! cargo run -p lb-bench --bin experiments -- fig1
//! ```

use lb_bench::{
    audit_overhead, bench_log, figures, online_scaling, overhead, payment_scaling, round_scaling,
};
use lb_telemetry::Json;
use std::error::Error;

/// Label new `BENCH_*.json` entries are appended under: `BENCH_LABEL` from
/// the environment, or the stable default for local runs.
fn bench_label() -> String {
    std::env::var("BENCH_LABEL").unwrap_or_else(|_| "local".to_string())
}

fn print_section(title: &str, body: &str) {
    println!("== {title} ==");
    println!("{body}");
}

/// Appends `rows` to the checked-in artifact `file` under [`bench_label`].
fn append_artifact(
    file: &str,
    bench: &str,
    unit: &str,
    rows: Vec<Json>,
) -> Result<(), Box<dyn Error>> {
    let label = bench_label();
    bench_log::append_to_file(file, bench, unit, &label, rows)?;
    println!("appended entry {label:?} to {file}");
    Ok(())
}

/// Writes `rows` to a scratch copy of artifact `file` and schema-checks
/// it, leaving the checked-in history untouched.
fn check_smoke_artifact(
    file: &str,
    bench: &str,
    unit: &str,
    rows: Vec<Json>,
) -> Result<(), Box<dyn Error>> {
    let scratch = std::env::temp_dir().join(file.replace(".json", ".smoke.json"));
    let scratch = scratch.to_str().expect("temp path is utf-8");
    let _ = std::fs::remove_file(scratch);
    bench_log::append_to_file(scratch, bench, unit, "smoke", rows)?;
    let written = std::fs::read_to_string(scratch)?;
    bench_log::BenchLog::parse(&written).map_err(std::io::Error::other)?;
    println!("schema-valid smoke artifact at {scratch}");
    Ok(())
}

fn run(target: &str) -> Result<(), Box<dyn Error>> {
    match target {
        "table1" => print_section("Table 1: system configuration", &figures::table1().render()),
        "table2" => print_section("Table 2: experiment types", &figures::table2().render()),
        "fig1" => print_section(
            "Figure 1: performance degradation (total latency per experiment)",
            &figures::figure1()?.render(),
        ),
        "fig2" => print_section(
            "Figure 2: payment and utility of computer C1",
            &figures::figure2()?.render(),
        ),
        "fig3" => print_section(
            "Figure 3: payment and utility per computer (True1)",
            &figures::per_computer_figure("True1")?.render(),
        ),
        "fig4" => print_section(
            "Figure 4: payment and utility per computer (High1)",
            &figures::per_computer_figure("High1")?.render(),
        ),
        "fig5" => print_section(
            "Figure 5: payment and utility per computer (Low1)",
            &figures::per_computer_figure("Low1")?.render(),
        ),
        "fig6" => {
            let (sweep, per_exp) = figures::figure6()?;
            print_section(
                "Figure 6: payment structure (truthful profile, arrival-rate sweep)",
                &sweep.render(),
            );
            print_section(
                "Figure 6 (supplement): payment structure per experiment",
                &per_exp.render(),
            );
        }
        "fig1-sim" => print_section(
            "Figure 1 via discrete-event simulation (stochastic service, estimated latency)",
            &figures::figure1_simulated(2_000.0, 3)?.render(),
        ),
        "messages" => print_section(
            "Protocol message counts (paper Sec. 3: O(n) messages per round)",
            &figures::message_counts()?.render(),
        ),
        "faults" => print_section(
            "Fault tolerance: lost bids / partitions / lost acks",
            &figures::fault_tolerance()?.render(),
        ),
        "audit" => print_section(
            "Distributed payment audit (paper's future work)",
            &figures::audit_demo()?.render(),
        ),
        "learning" => print_section(
            "Adaptive agents: epsilon-greedy learners discover truthfulness",
            &figures::learning_demo()?.render(),
        ),
        "mm1" => print_section(
            "Generalized mechanism on M/M/1 latencies (companion model, [ref.&nbsp;8])",
            &figures::mm1_demo()?.render(),
        ),
        "bursty" => print_section(
            "Bursty (MMPP) workloads vs the verification estimator",
            &figures::bursty_demo()?.render(),
        ),
        "chart-fig1" => {
            println!("{}", figures::figure1_chart()?.render());
        }
        "chart-fig2" => {
            let (p, u) = figures::figure2_chart()?;
            println!("{}", p.render());
            println!("{}", u.render());
        }
        "multi-liar" => print_section(
            "Multi-liar sweep (the paper's conjecture: more liars, more degradation)",
            &figures::multi_liar_demo()?.render(),
        ),
        "sensitivity" => print_section(
            "Lie-magnitude sensitivity of C1's utility (peak at the truthful bid)",
            &figures::sensitivity_demo()?.render(),
        ),
        "churn" => print_section(
            "Machine churn across protocol rounds",
            &figures::churn_demo()?.render(),
        ),
        "baselines" => print_section(
            "Classical allocation baselines vs the PR optimum",
            &figures::baselines_demo()?.render(),
        ),
        "percentiles" => print_section(
            "Per-job latency percentiles per experiment (latency sketch quantiles)",
            &figures::percentiles_demo()?.render(),
        ),
        "fees" => print_section(
            "Fee-adjusted payments: deficit vs voluntary participation",
            &figures::fees_demo()?.render(),
        ),
        "dynamic" => print_section(
            "Dynamic load: static shares vs per-epoch reallocation",
            &figures::dynamic_demo()?.render(),
        ),
        "telemetry" => print_section(
            "Telemetry: chaotic session timeline and metrics snapshot",
            &figures::telemetry_demo()?,
        ),
        "ablation" => {
            print_section(
                "Ablation: verification on/off (C1 payment per experiment)",
                &figures::ablation_verification()?.render(),
            );
            print_section(
                "Ablation: estimator robustness (noise x horizon)",
                &figures::ablation_estimator()?.render(),
            );
        }
        "payment-scaling" => {
            let rows = payment_scaling::measure(
                payment_scaling::SCALING_NS,
                5,
                payment_scaling::LEGACY_CAP,
            );
            print_section(
                "Payment scaling: O(n) batch leave-one-out kernel vs legacy O(n²) settle",
                &payment_scaling::render_table(&rows),
            );
            append_artifact(
                "BENCH_payment.json",
                "payment_scaling",
                "ns/settle-phase",
                payment_scaling::rows_json(&rows),
            )?;
        }
        "payment-scaling-smoke" => {
            // CI-sized: small grid, one sample, no artifact rewrite.
            let rows = payment_scaling::measure(&[64, 256, 1024], 1, 1024);
            print_section(
                "Payment scaling (smoke): batch vs legacy settle",
                &payment_scaling::render_table(&rows),
            );
            // At small n constant factors dominate; the asymptotic claim is
            // checked where it is unambiguous even on a noisy runner.
            for row in rows.iter().filter(|row| row.n >= 256) {
                let speedup = row.speedup.expect("legacy measured in smoke grid");
                assert!(
                    speedup > 1.0,
                    "batch settle slower than legacy at n = {}: {speedup:.2}x",
                    row.n
                );
            }
        }
        "round-scaling" => {
            let rows =
                round_scaling::measure(round_scaling::SCALING_NS, round_scaling::ROUNDS_PER_POINT);
            print_section(
                "Round scaling: sharded hierarchical rounds at 10^4..10^6 machines",
                &round_scaling::render_table(&rows),
            );
            append_artifact(
                "BENCH_round_scaling.json",
                "round_scaling",
                "rounds/sec",
                round_scaling::rows_json(&rows),
            )?;
        }
        "round-scaling-smoke" => {
            // CI-sized: small populations, few rounds, artifact written to a
            // scratch path and schema-checked instead of touching the
            // checked-in history.
            let rows = round_scaling::measure(&[1_000, 10_000], 3);
            print_section(
                "Round scaling (smoke): sharded rounds at small populations",
                &round_scaling::render_table(&rows),
            );
            for row in &rows {
                assert!(
                    row.rounds_per_sec > 0.0 && row.rounds_per_sec.is_finite(),
                    "degenerate throughput at n = {}",
                    row.n
                );
            }
            check_smoke_artifact(
                "BENCH_round_scaling.json",
                "round_scaling",
                "rounds/sec",
                round_scaling::rows_json(&rows),
            )?;
        }
        "online-scaling" => {
            let rows = online_scaling::measure(
                online_scaling::SCALING_SLOTS,
                online_scaling::EVENTS_PER_POINT,
                online_scaling::SCRATCH_SAMPLE,
            );
            print_section(
                "Online scaling: incremental event path vs from-scratch recompute",
                &online_scaling::render_table(&rows),
            );
            for row in &rows {
                assert!(
                    row.s_rel_error <= 1e-12,
                    "incremental sum drifted {:e} at slots = {}",
                    row.s_rel_error,
                    row.slots
                );
            }
            append_artifact(
                "BENCH_online.json",
                "online_scaling",
                "events/sec",
                online_scaling::rows_json(&rows),
            )?;
        }
        "online-scaling-smoke" => {
            // CI-sized: one small grid point, artifact written to a scratch
            // path and schema-checked instead of touching the checked-in
            // history. The 100x acceptance speedup is only asserted in the
            // full study, where the O(n) scratch path is unambiguous.
            let rows = online_scaling::measure(&[256], 5_000, 100);
            print_section(
                "Online scaling (smoke): incremental vs scratch at 256 slots",
                &online_scaling::render_table(&rows),
            );
            for row in &rows {
                assert!(
                    row.inc_events_per_sec > 0.0 && row.inc_events_per_sec.is_finite(),
                    "degenerate event throughput at slots = {}",
                    row.slots
                );
                assert!(
                    row.s_rel_error <= 1e-12,
                    "incremental sum drifted {:e} at slots = {}",
                    row.s_rel_error,
                    row.slots
                );
                assert!(
                    row.speedup > 1.0,
                    "incremental path slower than scratch at slots = {}: {:.2}x",
                    row.slots,
                    row.speedup
                );
            }
            check_smoke_artifact(
                "BENCH_online.json",
                "online_scaling",
                "events/sec",
                online_scaling::rows_json(&rows),
            )?;
        }
        "audit-overhead" => {
            let rows = audit_overhead::measure(audit_overhead::OVERHEAD_NS, overhead::REPS);
            print_section(
                "Monitor overhead: settle + settlement events, off vs full vs sampled invariant monitor",
                &overhead::render_table(&rows),
            );
            append_artifact(
                "BENCH_audit_overhead.json",
                "audit_overhead",
                "ns/round",
                overhead::rows_json(&rows),
            )?;
        }
        "audit-overhead-smoke" => {
            // CI-sized: small grid, no artifact write. The sampled monitor's
            // budget is gated only where amortisation makes it meaningful.
            let rows = audit_overhead::measure(&[64, 1024], overhead::REPS);
            print_section(
                "Monitor overhead (smoke): off vs full vs sampled",
                &overhead::render_table(&rows),
            );
            overhead::gate(&rows, "sampled", 1024, 0.5)?;
        }
        "all" => {
            for t in [
                "table1",
                "table2",
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig1-sim",
                "messages",
                "ablation",
                "faults",
                "audit",
                "learning",
                "mm1",
                "bursty",
                "dynamic",
                "multi-liar",
                "sensitivity",
                "churn",
                "fees",
                "percentiles",
                "baselines",
                "telemetry",
                "chart-fig1",
                "chart-fig2",
            ] {
                run(t)?;
            }
        }
        other => {
            eprintln!("unknown target '{other}'");
            eprintln!(
                "targets: table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig1-sim messages ablation faults audit learning mm1 bursty dynamic telemetry payment-scaling payment-scaling-smoke online-scaling online-scaling-smoke audit-overhead audit-overhead-smoke round-scaling round-scaling-smoke all"
            );
            std::process::exit(2);
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let target = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    run(&target)
}
