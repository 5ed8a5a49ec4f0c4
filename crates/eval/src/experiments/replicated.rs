//! Leader/follower replication: a follower tails a loopback leader's
//! `SubscribeOps` mutation stream, serving every epoch bit-identically at
//! measured lag, then fails over.
//!
//! One step past [`crate::experiments::served`]: the canonical arrival
//! stream drives a **leader** fleet over loopback TCP (op recording on),
//! while a **follower** (`cpa_serve::replica::Follower`) owns its own
//! fleet and applies each mutation the leader pushes, the moment the
//! leader's view publishes it. The experiment measures and asserts:
//!
//! - **fidelity** — at sampled epochs, the follower's served predictions
//!   are bit-identical to replaying the leader's recorded op-log to that
//!   epoch (`Fleet::replay_to_epoch`); after the run, the promoted
//!   follower's manifest is byte-for-byte the leader's final manifest;
//! - **lag** — the epoch gap between the writer's latest ack and what the
//!   follower serves, sampled at every frame the follower applies;
//! - **failover** — wall-clock from the leader's stream closing to the
//!   follower promoted with its manifest verified.

use crate::report::{f3, Report};
use crate::runner::{EvalConfig, Method};
use cpa_data::labels::LabelSet;
use cpa_data::profile::DatasetProfile;
use cpa_data::simulate::simulate;
use cpa_serve::{FleetOp, Follower, ShippedOp};
use cpa_transport::{FleetClient, FleetServer, ServerConfig, WireFormat};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::served::{arrival_ops, fleet_for};

/// Default roster: the streaming engine — replication is a serving story.
pub const DEFAULT_METHODS: [Method; 1] = [Method::CpaSvi];

/// What one leader+follower run hands back.
struct ReplicatedRun {
    /// Epoch → follower's served predictions, at sampled epochs.
    sampled: BTreeMap<u64, Vec<LabelSet>>,
    /// Lag samples (writer-acked epoch minus follower epoch, ≥ 0), one
    /// per applied frame.
    lags: Vec<u64>,
    /// The epoch the follower finished at (== the leader's head).
    final_epoch: u64,
    /// Seconds from stream end to promoted-and-verified.
    failover_secs: f64,
    /// The leader's recorded op-log.
    op_log: Vec<FleetOp>,
    /// Leader / promoted-follower manifests (JSON bytes), asserted equal.
    leader_manifest: String,
    follower_manifest: String,
}

/// Drives the arrival stream through a recording loopback leader while a
/// follower tails the subscription; returns both sides' evidence.
fn run_replicated(cfg: &EvalConfig, method: Method, threads: usize) -> ReplicatedRun {
    let dataset = simulate(&DatasetProfile::movie().scaled(cfg.scale), cfg.seed).dataset;
    let mut ops = arrival_ops(&dataset, cfg.seed);
    ops.push(FleetOp::Refit);
    let total_epochs = ops.len() as u64;
    // Sample ~8 epochs across the run (always including the last).
    let stride = (total_epochs / 8).max(1);

    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            record_ops: true,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds");
    let addr = server.local_addr().expect("bound address");
    let leader_fleet = fleet_for(method, &dataset, cfg.shards, threads, cfg.seed);
    let running = std::thread::spawn(move || server.serve(leader_fleet).expect("serve completes"));

    // The writer publishes each ack'd epoch; the follower samples its lag
    // against it at every frame it applies.
    let acked = Arc::new(AtomicU64::new(0));

    let follower_fleet = fleet_for(method, &dataset, cfg.shards, threads, cfg.seed);
    let subscription = FleetClient::connect_with(addr, WireFormat::Json)
        .expect("subscriber connects")
        .subscribe(0)
        .expect("subscription acked");
    let tail = {
        let acked = Arc::clone(&acked);
        std::thread::spawn(move || {
            let mut feed = subscription;
            let mut follower = Follower::new(follower_fleet);
            let mut sampled = BTreeMap::new();
            let mut lags = Vec::new();
            while let Some((epoch, op)) = feed.next_frame().expect("shipped frame") {
                let epoch = follower
                    .apply_shipped(ShippedOp::tagged(epoch, op))
                    .expect("applies cleanly");
                lags.push(acked.load(Ordering::Relaxed).saturating_sub(epoch));
                if epoch.is_multiple_of(stride) || epoch == total_epochs {
                    sampled.insert(epoch, follower.fleet().predict_all());
                }
            }
            // Clean EOF: the leader closed the stream — failover starts.
            let t = std::time::Instant::now();
            let final_epoch = follower.epoch();
            let promoted = follower.promote();
            let manifest = promoted.snapshot().to_json();
            (
                sampled,
                lags,
                final_epoch,
                t.elapsed().as_secs_f64(),
                manifest,
            )
        })
    };

    let mut writer = FleetClient::connect_with(addr, WireFormat::Json).expect("writer connects");
    for op in ops {
        let reply = writer.apply_op(&op).expect("mutation accepted");
        acked.store(
            reply.epoch().expect("mutation acks carry an epoch"),
            Ordering::Relaxed,
        );
    }
    writer.shutdown().expect("shutdown acknowledged");

    let outcome = running.join().expect("server thread joins");
    let (sampled, lags, final_epoch, failover_secs, follower_manifest) =
        tail.join().expect("tail thread joins");
    ReplicatedRun {
        sampled,
        lags,
        final_epoch,
        failover_secs,
        op_log: outcome.op_log,
        leader_manifest: outcome.fleet.snapshot().to_json(),
        follower_manifest,
    }
}

/// Runs the replication experiment on the movie dataset at K = `cfg.shards`.
///
/// # Panics
/// Panics if the follower diverges from the leader at any sampled epoch,
/// or the promoted manifest differs from the leader's — either would be a
/// replication correctness bug, not a measurement.
pub fn run(cfg: &EvalConfig) -> Report {
    let methods = cfg.methods_or(&DEFAULT_METHODS);
    let threads = cfg.fleet_threads();

    let mut r = Report::new(
        "replicated",
        format!(
            "Leader/follower replication on the movie dataset: a follower tails \
             the K={} leader's op stream over loopback TCP",
            cfg.shards
        ),
        &[
            "method",
            "shards",
            "role",
            "epochs",
            "mean_lag",
            "max_lag",
            "failover_ms",
            "identical",
        ],
    );
    for &method in &methods {
        let run = run_replicated(cfg, method, threads);

        // Fidelity at sampled epochs: the follower served exactly what the
        // leader's recorded prefix replays to.
        let dataset = simulate(&DatasetProfile::movie().scaled(cfg.scale), cfg.seed).dataset;
        for (&epoch, served) in &run.sampled {
            let mut replayed = fleet_for(method, &dataset, cfg.shards, threads, cfg.seed);
            replayed.replay_to_epoch(run.op_log.iter().cloned(), epoch);
            assert_eq!(
                served,
                &replayed.predict_all(),
                "{}: follower diverged from the leader's op-log at epoch {epoch}",
                method.name()
            );
        }
        assert_eq!(
            run.follower_manifest,
            run.leader_manifest,
            "{}: promoted follower manifest diverged from the leader",
            method.name()
        );

        let mean_lag = run.lags.iter().sum::<u64>() as f64 / run.lags.len().max(1) as f64;
        let max_lag = run.lags.iter().copied().max().unwrap_or(0);
        r.push_row(vec![
            method.name().to_string(),
            cfg.shards.to_string(),
            "leader".to_string(),
            run.final_epoch.to_string(),
            f3(0.0),
            "0".to_string(),
            "-".to_string(),
            f3(1.0),
        ]);
        r.push_row(vec![
            method.name().to_string(),
            cfg.shards.to_string(),
            "follower".to_string(),
            run.final_epoch.to_string(),
            f3(mean_lag),
            max_lag.to_string(),
            format!("{:.3}", run.failover_secs * 1e3),
            f3(1.0),
        ]);
    }
    r.note(
        "identical = 1.0 is asserted, not observed: at every sampled epoch the follower's \
         predictions equal Fleet::replay_to_epoch of the leader's recorded op-log, and the \
         promoted follower's manifest is byte-for-byte the leader's final manifest",
    );
    r.note(
        "mean_lag/max_lag = writer-acked epoch minus follower-served epoch, sampled at every \
         frame the follower applies (epochs, not time; 0 = the follower was at head)",
    );
    r.note("failover_ms = stream close → follower promoted with its manifest materialized");
    r.note("wire codec = JSON for the op subscription and the writer");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn follower_matches_leader_and_reports_both_roles() {
        let cfg = EvalConfig {
            scale: 0.04,
            methods: Some(vec![Method::CpaSvi]),
            shards: 2,
            ..EvalConfig::default()
        };
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.columns.len(), 8);
        assert!(r.rows.iter().any(|row| row[2] == "follower"));
        // Both roles reach the same nonzero epoch.
        assert_eq!(r.rows[0][3], r.rows[1][3]);
        assert_ne!(r.rows[0][3], "0");
        assert!(r.notes.iter().any(|n| n.contains("byte-for-byte")));
    }
}
