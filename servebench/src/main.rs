//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
//! is made twice, untraced then traced, and the metrics are the per-layer
//! ones from the traced run's spans (written to
//! `$CARGO_TARGET_DIR/servebench/`), with the tracing overhead. Exits
//! non-zero, printing no result, if the run cannot complete.

use servebench::inputs::Inputs;
use servebench::metrics::{end_to_end, per_layer, Metric};
use servebench::run::run_leg;
use servebench::trace::SpanSink;
use servebench::workload::{by_name, WORKLOADS};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Hard cap on one run: past it the process exits without a result.
const DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: expected (0, 60]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "error: {e}\nusage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = by_name(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    // A wedged run must still end: no result, non-zero exit.
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("error: run exceeded {}s", DEADLINE.as_secs());
        std::process::exit(3);
    });

    let t = Instant::now();
    let inputs = Inputs::generate(&w, args.seed, w.writes(args.seconds));
    eprintln!(
        "{}: seed {} → {} preload ops, {} writes, inputs in {:.2}s",
        w.name,
        args.seed,
        inputs.preload.len(),
        inputs.writes.len(),
        t.elapsed().as_secs_f64()
    );

    let (legs, metrics) = if args.trace {
        let untraced = run_leg(&w, &inputs, 1, None);
        let sink = Arc::new(SpanSink::default());
        let traced = run_leg(&w, &inputs, 1, Some(&sink));
        let metrics = per_layer(&w, &inputs, &traced, &sink, &untraced);
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let path = std::path::Path::new(&dir)
            .join("servebench")
            .join(format!("spans-{}-{}.jsonl", w.name, args.seed));
        if let Err(e) = sink.write_jsonl(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans: {}", path.display());
        (vec![untraced, traced], metrics)
    } else {
        let leg = run_leg(&w, &inputs, SETUPS, None);
        let metrics = end_to_end(&w, &inputs, &leg);
        (vec![leg], metrics)
    };

    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for leg in &legs {
        for f in &leg.check_failures {
            eprintln!("check failed: {f}");
        }
        correct &= leg.check_failures.is_empty() && leg.failed == 0;
        attempted += leg.attempted;
        failed += leg.failed;
    }
    for m in &metrics {
        eprintln!("{:<48} {:>16.3} {}", m.name, m.value, m.unit);
    }
    eprintln!("total {:.2}s", t.elapsed().as_secs_f64());
    println!("{}", json_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
