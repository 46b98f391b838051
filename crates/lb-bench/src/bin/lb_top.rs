//! `lb-top` — a terminal dashboard over lbmv telemetry recordings.
//!
//! Reads a JSONL trace recording (the [`lb_telemetry::to_jsonl`] format every
//! instrumented driver can produce) from a file, rebuilds the span forest
//! and metric registry, and renders per-round phase timings, per-machine
//! allocation and payment gauges, per-shard stage times from the shard
//! spans of sharded rounds, the critical-path round profile, network
//! counters and retransmission histograms as plain ANSI text.
//!
//! ```text
//! lb_top --file round_trace.jsonl --once            # one frame (CI mode)
//! lb_top --file round_trace.jsonl                   # re-read every second
//! lb_top --file round_trace.jsonl --interval 0.25   # faster refresh
//! ```
//!
//! `--once` renders exactly one frame with no cursor control, so output is
//! pipe- and CI-friendly; otherwise the file is re-read and the frame
//! redrawn in place until interrupted.

use lb_telemetry::{
    from_jsonl, replay_spans, CompletedSpan, FieldValue, MetricsRegistry, MetricsSnapshot,
    TelemetryEvent,
};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Duration;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    file: String,
    once: bool,
    interval: f64,
}

const USAGE: &str = "usage: lb_top --file PATH [--once] [--interval SECS]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut file = None;
    let mut once = false;
    let mut interval = 1.0f64;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--file" => file = Some(value("--file")?),
            "--once" => once = true,
            "--interval" => {
                interval = value("--interval")?
                    .parse()
                    .map_err(|e| format!("--interval: {e}"))?;
                if !(interval > 0.0 && interval.is_finite()) {
                    return Err("--interval must be a positive number".into());
                }
            }
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    let file = file.ok_or_else(|| format!("--file is required\n{USAGE}"))?;
    Ok(Args {
        file,
        once,
        interval,
    })
}

fn load_events(path: &str) -> Result<Vec<TelemetryEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    from_jsonl(&text).map_err(|e| format!("parse recording: {e}"))
}

fn field_u64(span: &CompletedSpan, key: &str) -> Option<u64> {
    span.fields.iter().find(|f| f.key == key).and_then(|f| {
        if let FieldValue::U64(v) = f.value {
            Some(v)
        } else {
            None
        }
    })
}

fn bar(fraction: f64, width: usize) -> String {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let filled = ((fraction.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

fn phase_line(out: &mut String, spans: &[CompletedSpan], round: &CompletedSpan) {
    let phases: Vec<&CompletedSpan> = spans
        .iter()
        .filter(|s| s.parent == Some(round.id) && s.name.starts_with("phase."))
        .collect();
    let total = (round.end - round.start).max(f64::EPSILON);
    for phase in phases {
        let dur = phase.end - phase.start;
        out.push_str(&format!(
            "    {:<22} {:>10.6}s  {}\n",
            phase.name,
            dur,
            bar(dur / total, 24)
        ));
    }
}

/// Renders one dashboard frame from a parsed recording.
fn render(events: &[TelemetryEvent], source_label: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "lb-top — {source_label} — {} events\n\n",
        events.len()
    ));

    let mut registry = MetricsRegistry::new();
    registry.ingest(events);
    let snapshot = registry.snapshot();

    let spans = replay_spans(events);
    match &spans {
        Ok(spans) => {
            let rounds: Vec<&CompletedSpan> = spans.iter().filter(|s| s.name == "round").collect();
            out.push_str(&format!("ROUNDS ({})\n", rounds.len()));
            for round in rounds {
                let id = field_u64(round, "round").unwrap_or(0);
                let n = field_u64(round, "n").unwrap_or(0);
                let trace = match (field_u64(round, "trace_hi"), field_u64(round, "trace_lo")) {
                    (Some(hi), Some(lo)) => format!("  trace {hi:016x}{lo:016x}"),
                    _ => String::new(),
                };
                out.push_str(&format!(
                    "  round {id}  n={n}  {:.6}s{trace}\n",
                    round.end - round.start
                ));
                phase_line(&mut out, spans, round);
            }
            let node_spans = spans.iter().filter(|s| s.name.starts_with("node.")).count();
            out.push_str(&format!("  node spans: {node_spans}\n"));
        }
        Err(e) => out.push_str(&format!("ROUNDS — trace does not replay: {e}\n")),
    }

    render_machines(&mut out, &snapshot);
    if let Ok(spans) = &spans {
        render_shards(&mut out, spans);
    }
    render_profile(&mut out, events);
    render_verification(&mut out, &snapshot);
    render_durability(&mut out, &snapshot);
    render_metrics(&mut out, &snapshot);
    out
}

/// The span each shard worker records per stage of a sharded round, in
/// protocol order, and the panel's column for it.
const STAGES: [(&str, &str); 4] = [
    ("shard.collect", "collect"),
    ("shard.verify", "verify"),
    ("shard.execute", "execute"),
    ("shard.settle", "settle"),
];

/// The per-shard panel of a sharded recording: each shard's wall seconds
/// per stage, summed over its `shard.*` spans, one row per shard with a bar
/// over the shard's total. A stage with no span reads `-`: the settle
/// stage runs after the settle phase span has closed, so a recorded round
/// has a `shard.settle` instant there, not a span.
fn render_shards(out: &mut String, spans: &[CompletedSpan]) {
    let mut rows: BTreeMap<u64, [Option<f64>; 4]> = BTreeMap::new();
    for span in spans {
        let Some(slot) = STAGES.iter().position(|(name, _)| span.name == *name) else {
            continue;
        };
        let Some(shard) = field_u64(span, "shard") else {
            continue;
        };
        let row = rows.entry(shard).or_insert([None; 4]);
        *row[slot].get_or_insert(0.0) += span.duration();
    }
    if rows.is_empty() {
        return;
    }
    let total = |walls: &[Option<f64>; 4]| walls.iter().flatten().sum::<f64>();
    let max_total = rows.values().map(total).fold(0.0f64, f64::max).max(1e-300);
    out.push_str(&format!("\nSHARDS ({})\n", rows.len()));
    out.push_str("  shard ");
    for (_, column) in STAGES {
        out.push_str(&format!(" {column:>10}"));
    }
    out.push_str(&format!(" {:>10}\n", "total"));
    for (shard, walls) in &rows {
        out.push_str(&format!("  s{shard:<5}"));
        for wall in walls {
            match wall {
                Some(seconds) => out.push_str(&format!(" {seconds:>10.6}")),
                None => out.push_str(&format!(" {:>10}", "-")),
            }
        }
        let total = total(walls);
        out.push_str(&format!(" {total:>10.6}  {}\n", bar(total / max_total, 16)));
    }
}

/// The critical-path panel: the recording's round span forest analysed by
/// `lb-prof`. A recording without a round span (or one that does not
/// replay) simply has no panel.
fn render_profile(out: &mut String, events: &[TelemetryEvent]) {
    let Ok(profile) = lb_prof::profile_events(events) else {
        return;
    };
    out.push_str("\nPROFILE (critical path)\n");
    for line in profile.render_text().lines() {
        out.push_str(&format!("  {line}\n"));
    }
}

/// The verification panel: per-invariant pass/fail from the
/// `audit.check.*` gauges the `lb-audit` monitor re-emits, plus the
/// headline margin/drift gauges and per-check violation counters.
fn render_verification(out: &mut String, snapshot: &MetricsSnapshot) {
    let mut checks: Vec<(&str, f64)> = snapshot
        .gauges
        .iter()
        .filter_map(|(name, value)| name.strip_prefix("audit.check.").map(|c| (c, *value)))
        .collect();
    if checks.is_empty() {
        return;
    }
    checks.sort_by_key(|(name, _)| *name);
    let rounds = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "audit.rounds")
        .map_or(0, |(_, v)| *v);
    out.push_str(&format!("\nVERIFICATION ({rounds} rounds audited)\n"));
    for (name, value) in checks {
        let verdict = if value == 1.0 { "ok" } else { "VIOLATED" };
        let marker = if value == 1.0 { "#" } else { "!" };
        out.push_str(&format!("  {marker} audit.check.{name:<14} {verdict}\n"));
    }
    for gauge in ["audit.margin.last", "audit.margin.min", "audit.drift.max"] {
        if let Some(value) = snapshot
            .gauges
            .iter()
            .find(|(name, _)| name == gauge)
            .map(|(_, v)| *v)
        {
            out.push_str(&format!("    {gauge:<22} {value:>14.6e}\n"));
        }
    }
    for (name, count) in &snapshot.counters {
        if let Some(check) = name.strip_prefix("audit.violation.") {
            out.push_str(&format!("    violations[{check}]: {count}\n"));
        }
    }
}

/// The durability panel: the crash-recovery gauges a durable session
/// exports (`durable.crashes`, `durable.recovered_rounds`, …).
fn render_durability(out: &mut String, snapshot: &MetricsSnapshot) {
    let mut rows: Vec<(&str, f64)> = snapshot
        .gauges
        .iter()
        .filter_map(|(name, value)| name.strip_prefix("durable.").map(|c| (c, *value)))
        .collect();
    if rows.is_empty() {
        return;
    }
    rows.sort_by_key(|(name, _)| *name);
    out.push_str("\nDURABILITY\n");
    for (name, value) in rows {
        out.push_str(&format!("  durable.{name:<24} {value:>12.0}\n"));
    }
}

fn render_machines(out: &mut String, snapshot: &MetricsSnapshot) {
    let mut rows: Vec<(u64, f64, f64)> = Vec::new();
    for (name, value) in &snapshot.gauges {
        if let Some(m) = name
            .strip_prefix("alloc.rate.m")
            .and_then(|m| m.parse().ok())
        {
            rows.push((m, *value, f64::NAN));
        }
    }
    for (name, value) in &snapshot.gauges {
        if let Some(m) = name
            .strip_prefix("payment.m")
            .and_then(|m| m.parse::<u64>().ok())
        {
            if let Some(row) = rows.iter_mut().find(|r| r.0 == m) {
                row.2 = *value;
            } else {
                rows.push((m, f64::NAN, *value));
            }
        }
    }
    if rows.is_empty() {
        return;
    }
    rows.sort_by_key(|r| r.0);
    let max_rate = rows.iter().map(|r| r.1).fold(0.0f64, f64::max).max(1e-300);
    out.push_str(&format!("\nMACHINES ({})\n", rows.len()));
    out.push_str("  machine        rate                              payment\n");
    for (m, rate, payment) in rows {
        out.push_str(&format!(
            "  m{m:<4} {rate:>12.6}  {}  {payment:>12.6}\n",
            bar(rate / max_rate, 24)
        ));
    }
    if let Some(total) = snapshot
        .gauges
        .iter()
        .find(|(n, _)| n == "round.payment.total")
        .map(|(_, v)| *v)
    {
        out.push_str(&format!("  total payment: {total:.6}\n"));
    }
}

fn render_metrics(out: &mut String, snapshot: &MetricsSnapshot) {
    if !snapshot.counters.is_empty() {
        out.push_str("\nCOUNTERS\n");
        for (name, value) in &snapshot.counters {
            out.push_str(&format!("  {name:<32} {value:>12}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("\nHISTOGRAMS (count / mean / p50 / p95 / p99)\n");
        for (name, h) in &snapshot.histograms {
            out.push_str(&format!(
                "  {name:<32} {:>8}  {:>10.6} {:>10.6} {:>10.6} {:>10.6}\n",
                h.count, h.mean, h.p50, h.p95, h.p99
            ));
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    loop {
        let events = load_events(&args.file)?;
        let frame = render(&events, &args.file);
        if args.once {
            print!("{frame}");
            return Ok(());
        }
        // Refresh mode: clear and home, redraw, sleep. Plain ANSI, no raw mode.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_secs_f64(args.interval));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if let Err(message) = run(&args) {
        eprintln!("lb_top: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = include_str!("../../fixtures/round_trace.jsonl");

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&strings(&["--file", "x.jsonl", "--once"])).unwrap();
        assert_eq!(a.file, "x.jsonl");
        assert!(a.once);
        let a = parse_args(&strings(&["--file", "x.jsonl", "--interval", "0.5"])).unwrap();
        assert!(!a.once);
        assert!((a.interval - 0.5).abs() < 1e-12);
        assert!(parse_args(&strings(&[])).is_err());
        assert!(parse_args(&strings(&["--once"])).is_err());
        assert!(parse_args(&strings(&["--url", "127.0.0.1:9"])).is_err());
        assert!(parse_args(&strings(&["--file", "a", "--interval", "-1"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn fixture_renders_every_section() {
        let events = from_jsonl(FIXTURE).expect("fixture parses");
        let frame = render(&events, "fixture");
        for needle in [
            "ROUNDS",
            "phase.collect_bids",
            "phase.settle",
            "MACHINES",
            "total payment:",
            "SHARDS (2)",
            "PROFILE (critical path)",
            "critical-path coverage",
            "VERIFICATION (1 rounds audited)",
            "audit.check.conservation",
            "audit.margin.min",
            "violations[drift]: 1",
            "DURABILITY",
            "durable.crashes",
            "durable.truncated_tail_bytes",
            "COUNTERS",
            "net.messages",
            "HISTOGRAMS",
            "chaos.backoff",
        ] {
            assert!(frame.contains(needle), "missing {needle:?} in:\n{frame}");
        }
    }

    #[test]
    fn verification_panel_marks_failed_checks() {
        let events = from_jsonl(FIXTURE).expect("fixture parses");
        let frame = render(&events, "fixture");
        // The fixture's drift check is violated, every other check passes.
        assert!(frame.contains("! audit.check.drift"), "{frame}");
        assert!(frame.contains("VIOLATED"), "{frame}");
        assert!(frame.contains("# audit.check.conservation"), "{frame}");
        // Panels are absent entirely when a recording has no audit events.
        let plain: Vec<TelemetryEvent> = events
            .into_iter()
            .filter(|e| !e.name.starts_with("audit.") && !e.name.starts_with("durable."))
            .collect();
        let frame = render(&plain, "fixture");
        assert!(!frame.contains("VERIFICATION"), "{frame}");
        assert!(!frame.contains("DURABILITY"), "{frame}");
    }

    #[test]
    fn shard_panel_orders_shards_and_scales_bars() {
        let events = from_jsonl(FIXTURE).expect("fixture parses");
        let frame = render(&events, "fixture");
        // Both fixture shards render, in index order, with phase columns.
        let s0 = frame.find("  s0").expect("shard 0 row");
        let s1 = frame.find("  s1").expect("shard 1 row");
        assert!(s0 < s1, "shard rows out of order:\n{frame}");
        let s0 = &frame[s0..];
        let row = s0[..s0.find('\n').unwrap()].split_whitespace();
        // Summed span seconds per stage; the settle stage has instants only.
        assert_eq!(
            row.collect::<Vec<_>>(),
            [
                "s0",
                "0.008100",
                "0.002400",
                "0.046400",
                "-",
                "0.056900",
                "###############."
            ],
            "{frame}"
        );
    }

    /// The SHARDS panel over a recording of a real sharded round: every
    /// shard worker's spans become its row, and a single-coordinator round
    /// has no panel.
    #[test]
    fn shards_panel_reads_a_real_sharded_round() {
        use lb_mechanism::CompensationBonusMechanism;
        use lb_proto::{run_round, NodeSpec, Observers, ProtocolConfig, RoundSpec, Transport};
        use lb_telemetry::RingCollector;
        use std::sync::Arc;

        let mechanism = CompensationBonusMechanism::paper();
        let specs: Vec<NodeSpec> = [1.0, 1.5, 2.0, 4.0, 5.0]
            .iter()
            .map(|&t| NodeSpec::truthful(t))
            .collect();
        let frame = |transport| {
            let ring = Arc::new(RingCollector::new(65_536));
            run_round(&RoundSpec {
                transport,
                observers: Observers {
                    collector: ring.clone(),
                    ..Observers::default()
                },
                ..RoundSpec::new(&mechanism, &specs, ProtocolConfig::default())
            })
            .expect("round settles");
            assert_eq!(ring.overwritten(), 0);
            render(&ring.snapshot(), "run_round")
        };

        let sharded = frame(Transport::Sharded { shards: 2 });
        assert!(sharded.contains("SHARDS (2)"), "{sharded}");
        let rows: Vec<&str> = sharded
            .lines()
            .skip_while(|line| *line != "SHARDS (2)")
            .skip(2)
            .take_while(|line| line.starts_with("  s"))
            .collect();
        assert_eq!(rows.len(), 2, "{sharded}");
        for (shard, row) in rows.iter().enumerate() {
            let cells: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(cells[0], format!("s{shard}"), "{sharded}");
            // collect, verify and execute ran as spans; settle did not.
            for cell in &cells[1..4] {
                assert!(cell.parse::<f64>().is_ok_and(|s| s >= 0.0), "{row}");
            }
            assert_eq!(cells[4], "-", "{row}");
        }

        let single = frame(Transport::Reliable);
        assert!(!single.contains("SHARDS"), "{single}");
    }

    /// The MACHINES panel over a recording of a real round: the gauge names
    /// `SettledRound::record_gauges` writes must be the ones the panel reads.
    #[test]
    fn machines_panel_reads_a_real_round() {
        use lb_mechanism::CompensationBonusMechanism;
        use lb_proto::{run_round, NodeSpec, Observers, ProtocolConfig, RoundSpec};
        use lb_telemetry::RingCollector;
        use std::sync::Arc;

        let mechanism = CompensationBonusMechanism::paper();
        let specs: Vec<NodeSpec> = [1.0, 1.5, 2.0, 4.0, 5.0]
            .iter()
            .map(|&t| NodeSpec::truthful(t))
            .collect();
        let ring = Arc::new(RingCollector::new(65_536));
        let report = run_round(&RoundSpec {
            observers: Observers {
                collector: ring.clone(),
                ..Observers::default()
            },
            ..RoundSpec::new(&mechanism, &specs, ProtocolConfig::default())
        })
        .expect("round settles");
        assert_eq!(ring.overwritten(), 0);
        let frame = render(&ring.snapshot(), "run_round");

        let n = specs.len();
        let header = format!("MACHINES ({n})");
        let rows: Vec<Vec<&str>> = frame
            .lines()
            .skip_while(|line| *line != header)
            .skip(2)
            .take_while(|line| line.starts_with("  m"))
            .map(|line| line.split_whitespace().collect())
            .collect();
        assert_eq!(rows.len(), n, "{frame}");
        let outcome = &report.outcome;
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], format!("m{i}"), "{frame}");
            assert_eq!(row[1], format!("{:.6}", outcome.rates[i]), "{frame}");
            assert_eq!(row[3], format!("{:.6}", outcome.payments[i]), "{frame}");
        }
        let total: f64 = frame
            .lines()
            .find_map(|line| line.trim().strip_prefix("total payment: "))
            .expect("total payment row")
            .parse()
            .unwrap();
        let sum: f64 = outcome.payments.iter().sum();
        assert!(
            (total - sum).abs() <= 5e-7 * (1.0 + sum.abs()),
            "{total} vs {sum}"
        );
    }

    #[test]
    fn fixture_replays_into_a_clean_span_forest() {
        let events = from_jsonl(FIXTURE).expect("fixture parses");
        let spans = replay_spans(&events).expect("fixture replays");
        assert!(spans.iter().any(|s| s.name == "round"));
        assert!(spans.iter().any(|s| s.name == "node.bid"));
    }

    #[test]
    fn bars_are_clamped_and_sized() {
        assert_eq!(bar(0.0, 8), "........");
        assert_eq!(bar(1.0, 8), "########");
        assert_eq!(bar(2.0, 8), "########");
        assert_eq!(bar(0.5, 8), "####....");
        assert_eq!(bar(-1.0, 8), "........");
    }
}
