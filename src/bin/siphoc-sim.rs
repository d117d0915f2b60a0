//! `siphoc-sim`: run a declarative SIPHoc scenario from a JSON file.
//!
//! ```text
//! siphoc-sim scenarios/two_node_call.json          # human-readable report
//! siphoc-sim --json scenarios/two_node_call.json   # machine-readable report
//! siphoc-sim --trace-out trace.json \
//!            --metrics-out metrics.json scenarios/two_node_call.json
//! ```
//!
//! `--trace-out` writes a Chrome `trace_event` file (open in
//! `about:tracing` or <https://ui.perfetto.dev>) with one track per node
//! and one process group per call. `--metrics-out` writes the merged
//! metrics registry as JSON: `counters`, `gauges` and `histograms`, each
//! histogram with its summary and its non-empty buckets. Either flag
//! turns span tracing on for the run; the report itself is identical
//! either way. `--json` also carries the run fingerprint: the packet
//! trace's final digest and its per-second checkpoints, each digest in
//! hex beside its second.

use std::process::ExitCode;

use wireless_adhoc_voip::scenario::Scenario;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let trace_out = take_flag_value(&mut args, "--trace-out");
    let metrics_out = take_flag_value(&mut args, "--metrics-out");
    let Some(path) = args.first() else {
        eprintln!(
            "usage: siphoc-sim [--json] [--trace-out TRACE.json] [--metrics-out METRICS.json] \
             <scenario.json>"
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scenario = match Scenario::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let want_obs = trace_out.is_some() || metrics_out.is_some();
    let (report, dump) = if want_obs {
        match scenario.run_with_obs() {
            Ok((r, d)) => (r, Some(d)),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match scenario.run() {
            Ok(r) => (r, None),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(dump) = &dump {
        let docs = [
            (&trace_out, &dump.chrome_trace, "trace"),
            (&metrics_out, &dump.metrics, "metrics"),
        ];
        for (out, doc, what) in docs {
            let Some(out) = out else { continue };
            if let Err(e) = std::fs::write(out, format!("{}\n", doc.to_pretty())) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("{what} written to {out}");
        }
    }
    if json_out {
        println!("{}", report.to_json());
        return ExitCode::SUCCESS;
    }
    println!(
        "scenario: seed {} · {} simulated seconds · {} users",
        report.seed,
        report.duration_secs,
        report.users.len()
    );
    println!(
        "totals: {} control payload bytes · {} RTP packets delivered · {} faults injected\n",
        report.control_bytes, report.rtp_packets, report.faults_injected
    );
    for u in &report.users {
        let mos = u
            .worst_mos
            .map(|m| format!("{m:.2}"))
            .unwrap_or_else(|| "-".to_owned());
        println!(
            "{:<10} placed {} · established {} · received {} · worst MOS {}",
            u.user, u.calls_placed, u.calls_established, u.calls_received, mos
        );
        for line in &u.timeline {
            println!("    {line}");
        }
    }
    ExitCode::SUCCESS
}

/// Removes `flag VALUE` from `args`, returning the value if present.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires a file argument");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}
