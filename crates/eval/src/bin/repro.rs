//! `repro` — regenerates every table and figure of the CPA paper, and can
//! boot the fleet as a network service.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale F] [--reps N] [--seed S] [--out DIR]
//!       [--methods M,M,...] [--shards K] [--full]
//! repro serve [--addr A] [--shards K] [--threads T] [--method M]
//!             [--scale F] [--seed S] [--max-clients N] [--op-log PATH]
//!             [--subscribe-reads]
//!
//! EXPERIMENT: table1 fig1 table3 table4 fig3 fig4 fig5 fig6 table5
//!             prequential sharded served fig7 fig8 fig9 fig10 all
//!             (default: all)
//! --scale F      dataset scale factor, 1.0 = the paper's Table 3 sizes
//!                (default 0.25)
//! --reps N       repetitions with shuffled seeds (default 3)
//! --seed S       base seed (default 7)
//! --out DIR      where JSON reports are written (default results/)
//! --methods M,.. method roster override for the roster-driven experiments
//!                (table4, fig3, prequential, sharded, served):
//!                comma-separated names from mv wmv em cbcc gibbs cpa cpa-svi
//! --shards K     shard count for the sharded/served serving experiments:
//!                compares a K-shard fleet against the unsharded engine
//!                (default 4)
//! --full         shorthand for --scale 1.0 --reps 10
//!
//! `repro serve` boots a `cpa-transport` fleet server (default
//! 127.0.0.1:4731) over a K-shard fleet of `--method` engines sized for the
//! movie profile at `--scale`, prints the bound address and universe, and
//! serves framed FleetOps until a client sends Shutdown. With `--op-log
//! PATH`, every accepted mutation is recorded and written as a versioned
//! JSONL op-log on shutdown — replaying it reproduces the run
//! bit-identically. Each client picks its wire codec: the server grants the
//! binary handshake to clients that request it and speaks JSON to everyone
//! else.
//! `--subscribe-reads` attaches a demo `SubscribeReads` client (JSON
//! frames) that holds a delta-maintained prediction cache and logs every
//! pushed frame (epoch, rows, dirty shards, bytes) to stderr until the
//! server winds down; it occupies one subscription slot for the server's
//! lifetime.
//! ```

use cpa_eval::experiments;
use cpa_eval::runner::{restore_engine, EvalConfig, Method};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        args.remove(0);
        return serve_main(args);
    }
    let mut cfg = EvalConfig::default();
    let mut which: Vec<String> = Vec::new();
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                cfg.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--reps" => {
                cfg.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs an integer"));
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                cfg.out_dir = it
                    .next()
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a path"));
            }
            "--methods" => {
                let spec = it.next().unwrap_or_else(|| die("--methods needs a list"));
                let methods: Vec<Method> = spec
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse::<Method>().unwrap_or_else(|e| die(&e)))
                    .collect();
                if methods.is_empty() {
                    die("--methods needs at least one method");
                }
                cfg.methods = Some(methods);
            }
            "--shards" => {
                cfg.shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k: &usize| k > 0)
                    .unwrap_or_else(|| die("--shards needs a positive integer"));
            }
            "--full" => {
                cfg.scale = 1.0;
                cfg.reps = 10;
            }
            "--help" | "-h" => {
                println!(
                    "repro [EXPERIMENT ...] [--scale F] [--reps N] [--seed S] [--out DIR] \
                     [--methods M,M,...] [--shards K] [--full]"
                );
                println!("experiments: {} all", experiments::ALL.join(" "));
                println!(
                    "methods: {}",
                    Method::all()
                        .map(|m| m.name().to_ascii_lowercase())
                        .join(" ")
                );
                return;
            }
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = experiments::ALL.iter().map(|s| s.to_string()).collect();
        // fig6 produces table5 too; avoid running it twice.
        which.retain(|w| w != "table5");
    }

    eprintln!(
        "# CPA reproduction — scale {}, reps {}, seed {}, out {:?}",
        cfg.scale, cfg.reps, cfg.seed, cfg.out_dir
    );
    for id in &which {
        let t = std::time::Instant::now();
        let reports = experiments::run(id, &cfg);
        for report in &reports {
            println!("{}", report.render());
            match report.save_json(&cfg.out_dir) {
                Ok(path) => eprintln!("  saved {}", path.display()),
                Err(e) => eprintln!("  warning: could not save report: {e}"),
            }
        }
        eprintln!("  [{id} took {:.1}s]", t.elapsed().as_secs_f64());
    }
}

/// `repro serve`: boot a loopback fleet server and run it to shutdown.
fn serve_main(args: Vec<String>) {
    let mut addr = "127.0.0.1:4731".to_string();
    let mut shards = 4usize;
    let mut threads = 0usize;
    let mut method = Method::CpaSvi;
    let mut scale = 0.25f64;
    let mut seed = 7u64;
    let mut max_clients = 4usize;
    let mut op_log: Option<std::path::PathBuf> = None;
    let mut subscribe_reads = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().unwrap_or_else(|| die("--addr needs host:port")),
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k: &usize| k > 0)
                    .unwrap_or_else(|| die("--shards needs a positive integer"));
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs an integer"));
            }
            "--method" => {
                let spec = it.next().unwrap_or_else(|| die("--method needs a name"));
                method = spec.parse::<Method>().unwrap_or_else(|e| die(&e));
            }
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--max-clients" => {
                max_clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| die("--max-clients needs a positive integer"));
            }
            "--op-log" => {
                op_log = Some(
                    it.next()
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| die("--op-log needs a path")),
                );
            }
            "--subscribe-reads" => subscribe_reads = true,
            "--help" | "-h" => {
                println!(
                    "repro serve [--addr A] [--shards K] [--threads T] [--method M] \
                     [--scale F] [--seed S] [--max-clients N] [--op-log PATH] \
                     [--subscribe-reads]"
                );
                return;
            }
            other => die(&format!("unknown serve flag {other}")),
        }
    }
    // The serving universe: the movie profile's population at --scale (a
    // deployment declares its universe up front; pushes outside it are
    // rejected with a framed error).
    let profile = cpa_data::profile::DatasetProfile::movie().scaled(scale);
    let dataset = cpa_data::simulate::simulate(&profile, seed).dataset;
    let (i, u, c) = (
        dataset.num_items(),
        dataset.num_workers(),
        dataset.num_labels(),
    );
    let threads = if threads == 0 { shards } else { threads };
    let fleet = cpa_serve::Fleet::new(shards, threads, i, u, c, |_| method.engine(i, u, c, seed))
        .with_restore_hook(restore_engine);

    let config = cpa_transport::ServerConfig {
        max_clients,
        record_ops: op_log.is_some(),
    };
    let server = cpa_transport::FleetServer::bind(&addr, config)
        .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    let bound = server
        .local_addr()
        .unwrap_or_else(|e| die(&format!("no local address: {e}")));
    eprintln!(
        "# fleet server on {bound} — {} × {i} items × {u} workers × {c} labels, \
         K={shards} shards, {threads} threads, {max_clients} clients \
         (send a Shutdown op to stop)",
        method.name()
    );
    // Demo subscriber: a SubscribeReads client holding a delta-maintained
    // prediction cache, logging what each pushed frame cost until the
    // server winds down. It occupies one of the max_clients - 1
    // subscription slots for the server's lifetime.
    let demo_sub = subscribe_reads.then(|| {
        std::thread::spawn(move || {
            let sub =
                cpa_transport::FleetClient::connect_with(bound, cpa_transport::WireFormat::Json)
                    .and_then(|c| c.subscribe_reads(cpa_serve::ReadKind::Predictions, None));
            let mut sub = match sub {
                Ok(sub) => sub,
                Err(e) => return eprintln!("# subscriber: refused ({e})"),
            };
            // A demo server may sit idle indefinitely between mutations;
            // block forever instead of declaring the push stream dead.
            let _ = sub.set_read_timeout(None);
            eprintln!(
                "# subscriber: bootstrap at epoch {} ({:?} frames)",
                sub.epoch(),
                sub.wire_format()
            );
            loop {
                match sub.next_delta() {
                    Ok(Some(delta)) => eprintln!(
                        "# subscriber: epoch {} — {} rows over {} dirty shards, {}B",
                        delta.applied.epoch,
                        delta.applied.rows,
                        delta.applied.dirty_shards,
                        delta.frame_bytes
                    ),
                    Ok(None) => {
                        eprintln!("# subscriber: clean EOF at epoch {}", sub.epoch());
                        return;
                    }
                    Err(e) => return eprintln!("# subscriber: stream failed ({e})"),
                }
            }
        })
    });
    let outcome = server
        .serve(fleet)
        .unwrap_or_else(|e| die(&format!("serve failed: {e}")));
    if let Some(handle) = demo_sub {
        let _ = handle.join();
    }
    eprintln!(
        "# shut down after {} arrival batches ({} answers absorbed), final epoch {}",
        outcome.fleet.batches_ingested(),
        outcome.fleet.num_answers_seen(),
        outcome.fleet.epoch()
    );
    if let Some(path) = op_log {
        let jsonl = cpa_serve::ops_to_jsonl(&outcome.op_log);
        match std::fs::write(&path, &jsonl) {
            Ok(()) => eprintln!(
                "# op-log: {} accepted mutations written to {}",
                outcome.op_log.len(),
                path.display()
            ),
            Err(e) => die(&format!("cannot write op-log {}: {e}", path.display())),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
