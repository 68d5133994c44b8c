//! Command line of the benchmark.
//!
//! ```text
//! upi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! upi-benchmark spec                     # print BENCHMARK.json
//! upi-benchmark agree <a.jsonl> <b.jsonl>  # do two sets of runs agree within the bounds?
//! ```
//!
//! A run prints `name value unit` per metric, one line per self-check,
//! and as its last line the result object the driver reads. It exits
//! non-zero when an op failed, an answer disagreed with the oracle, or a
//! workload self-check did not hold.

use std::path::PathBuf;
use std::process::ExitCode;

use upi_benchmark::harness::{Metrics, RunCfg};
use upi_benchmark::json::{self, quote};
use upi_benchmark::registry::{self, Better, END_TO_END, WORKLOADS};
use upi_benchmark::workloads;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", registry::spec_json());
            Ok(true)
        }
        Some("agree") if args.len() == 3 => agree(&args[1], &args[2]),
        _ => parse(&args).and_then(|cfg| run(&cfg)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("upi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<RunCfg, String> {
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(registry::RUN_SECONDS),
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => cfg.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == cfg.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "--workload must be one of {names:?}, got {:?}",
            cfg.workload
        ));
    }
    Ok(cfg)
}

/// Run one workload and print its result. `Ok(false)`: it ran, but not
/// correctly.
fn run(cfg: &RunCfg) -> Result<bool, String> {
    let out = workloads::run(cfg)?;
    let mut measured: Metrics = if cfg.trace {
        let mut m = out.rec.per_layer()?;
        m.extend(out.layer.clone());
        m
    } else {
        out.rec.end_to_end(out.setup_s, &out.space)?
    };

    // Report exactly the contract's names, in its order.
    let names: Vec<(String, &'static str)> = if cfg.trace {
        registry::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in &names {
        // A layer this workload never exercises reports 0.
        let (value, measured_unit) = measured.remove(name).unwrap_or((0.0, unit));
        if measured_unit != *unit {
            return Err(format!(
                "{name}: measured in {measured_unit}, declared in {unit}"
            ));
        }
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        println!("{name} {value} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        ));
    }
    if let Some(stray) = measured.keys().next() {
        return Err(format!("{stray} was measured but is not in the registry"));
    }

    let mut checks_ok = true;
    for c in &out.checks {
        println!(
            "check {} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
        checks_ok &= c.ok;
    }
    if cfg.trace {
        write_trace(cfg, &out.rec.spans);
    }
    let (attempted, failed) = (out.rec.attempted(), out.rec.failed());
    if out.rec.kill_excluded() > 0 {
        println!(
            "planned kills excluded from attempted: {}",
            out.rec.kill_excluded()
        );
    }
    let correct = failed == 0 && checks_ok;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(correct)
}

/// Write the spans and print their per-name ledger. The trace is a
/// by-product: failing to write it does not fail the run.
fn write_trace(cfg: &RunCfg, spans: &upi_benchmark::trace::SpanLog) {
    eprintln!(
        "{:<18} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in spans.ledger() {
        eprintln!(
            "{name:<18} {:>9} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let path = cfg.out_dir.join(format!("trace_{}.jsonl", cfg.workload));
    let written = std::fs::create_dir_all(&cfg.out_dir).and_then(|()| spans.write_jsonl(&path));
    match written {
        Ok(()) => eprintln!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// One `{"workload": .., "result": ..}` line per run, as `run.sh` writes.
fn read_set(path: &str) -> Result<Vec<(String, json::Value)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let v = json::parse(l).map_err(|e| format!("{path}: {e}"))?;
            let name = v
                .get("workload")
                .and_then(|w| w.as_str())
                .ok_or(format!("{path}: a line has no workload"))?
                .to_string();
            let result = v
                .get("result")
                .cloned()
                .ok_or(format!("{path}: a line has no result"))?;
            Ok((name, result))
        })
        .collect()
}

/// Compare two sets of untraced runs of the same code: every end-to-end
/// metric of the second must be no worse than the first by more than its
/// bound, and the other way round.
fn agree(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (read_set(a)?, read_set(b)?);
    if a.len() != b.len() {
        return Err(format!("{} runs against {}", a.len(), b.len()));
    }
    let mut ok = true;
    for ((wa, ra), (wb, rb)) in a.iter().zip(&b) {
        if wa != wb {
            return Err(format!("run order differs: {wa} against {wb}"));
        }
        for m in END_TO_END {
            let value = |r: &json::Value| {
                r.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|x| x.get("value"))
                    .and_then(|x| x.as_f64())
                    .ok_or(format!("{wa}: no {}", m.name))
            };
            let (va, vb) = (value(ra)?, value(rb)?);
            // Worsening of the worse run relative to the better one.
            let (better, worse) = match m.better {
                Better::Lower => (va.min(vb), va.max(vb)),
                Better::Higher => (va.max(vb), va.min(vb)),
            };
            let off = (worse - better).abs() / better.abs();
            let within = off <= m.bound;
            ok &= within;
            println!(
                "{wa} {} {va} {vb} off {:.4} bound {} {}",
                m.name,
                off,
                m.bound,
                if within { "ok" } else { "DISAGREES" }
            );
        }
    }
    Ok(ok)
}
