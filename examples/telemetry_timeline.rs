//! Observability tour: record a chaotic multi-round session with a
//! [`RingCollector`], render the protocol timeline, derive metrics from the
//! recording, and export it as JSONL and a Chrome `trace_event` file
//! (load the latter in `chrome://tracing` or Perfetto).
//!
//! ```text
//! cargo run --example telemetry_timeline
//! ```

use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::chaos::ChaosConfig;
use lbmv::proto::session::{run_chaos_session, ChaosSessionConfig};
use lbmv::proto::{NodeSpec, Observers, ProtocolConfig};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use lbmv::telemetry::{
    from_jsonl, render_timeline, replay_spans, to_chrome_trace, to_jsonl, MetricsRegistry,
    RingCollector,
};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small system keeps the timeline readable; the rate is feasible for
    // every >= 2-machine subset, so chaotic exclusions never starve it.
    let trues = [1.0, 1.0, 2.0, 2.0];
    let config = ProtocolConfig {
        total_rate: 0.8,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 300.0,
            seed: 9,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: Default::default(),
        },
    };
    let session = ChaosSessionConfig::new(3, ChaosConfig::heavy(11));

    // One ring records the whole session: round/phase spans, frame fates,
    // retransmissions, and the session's quarantine decisions.
    let ring = Arc::new(RingCollector::new(65_536));
    let report = run_chaos_session(
        &CompensationBonusMechanism::paper(),
        &config,
        &session,
        |_, _| trues.iter().map(|&t| NodeSpec::truthful(t)).collect(),
        &Observers {
            collector: ring.clone(),
            ..Observers::default()
        },
        None,
    )?;

    let events = ring.snapshot();
    assert_eq!(ring.overwritten(), 0, "ring too small: recording truncated");
    println!("{}", render_timeline(&events));

    let mut registry = MetricsRegistry::new();
    registry.ingest(&events);
    println!("{}", registry.snapshot().to_text());
    println!(
        "session: {} rounds settled, {} aborted, {} retries, {} anomalies absorbed",
        report.rounds.len() - report.aborted_rounds as usize,
        report.aborted_rounds,
        report.total_retries,
        report.anomalies.total()
    );

    // Export: JSONL (lossless, round-trips) and Chrome trace_event JSON.
    let out_dir = std::path::Path::new("target");
    std::fs::create_dir_all(out_dir)?;
    let jsonl = to_jsonl(&events);
    let reloaded = from_jsonl(&jsonl)?;
    assert_eq!(reloaded, events, "JSONL round-trip must be lossless");
    let spans = replay_spans(&reloaded)?;
    let jsonl_path = out_dir.join("telemetry_timeline.jsonl");
    std::fs::write(&jsonl_path, jsonl)?;

    let trace_path = out_dir.join("telemetry_timeline.trace.json");
    std::fs::write(&trace_path, to_chrome_trace(&events)?)?;
    println!(
        "\nwrote {} events ({} completed spans) to {} and {}",
        events.len(),
        spans.len(),
        jsonl_path.display(),
        trace_path.display()
    );
    Ok(())
}
