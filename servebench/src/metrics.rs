//! End-to-end metrics from a measured leg, and per-layer metrics from a
//! traced leg's spans.

use crate::inputs::{Inputs, SHARDS};
use crate::run::{window, Leg, ReadRecord, WriteRecord};
use crate::stats::{mean, median, quantile, tail_q};
use crate::trace::{Span, SpanSink};
use crate::workload::{Observer, Workload};
use cpa_serve::{FleetOp, FleetReply, ShardIndex, ShardRouter};
use cpa_transport::codec::{decode, encode};
use cpa_transport::WireFormat;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Round trips of the reads of one kind that were not the first of their
/// kind at their epoch: the first pays the view's fill, the rest are warm.
fn warm_reads(reads: &[ReadRecord], full: bool) -> Vec<f64> {
    let mut last = None;
    let mut out = Vec::new();
    for r in reads.iter().filter(|r| r.full == full) {
        if let Some(e) = r.epoch {
            if last == Some(e) {
                out.push(us(r.start, r.end));
            }
            last = Some(e);
        }
    }
    out
}

/// Microseconds from each acked measured write's intended send to the
/// moment the workload's observer first held its epoch.
fn visible_us(w: &Workload, leg: &Leg) -> Vec<f64> {
    let seen_at = |epoch: u64| -> Option<Instant> {
        match w.observer {
            Observer::Follower => leg.applies.iter().find(|a| a.epoch == epoch).map(|a| a.end),
            Observer::Subscriber => leg.deltas.iter().find(|d| d.epoch == epoch).map(|d| d.at),
            Observer::Reader => {
                // Read epochs never go backwards (checked), so the first
                // read at or past `epoch` is a binary search away.
                let p = leg.reads.partition_point(|r| r.epoch.unwrap_or(0) < epoch);
                leg.reads.get(p).map(|r| r.end)
            }
        }
    };
    measured(leg)
        .iter()
        .filter_map(|wr| Some(us(wr.intended, seen_at(wr.epoch?)?)))
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The tail percentile of the read metrics. The reader and the
/// after-stream phase both make thousands of full reads per run, so p99
/// keeps at least ten warm reads beyond it everywhere.
const READ_TAIL_Q: f64 = 0.99;

/// The writes latency metrics count: all but the first tenth of the
/// stream, which warms the engines' and views' lazily grown state.
fn measured(leg: &Leg) -> &[WriteRecord] {
    &leg.writes[leg.writes.len() / 10..]
}

/// Acked measured writes' latency from their intended send, in µs.
fn ack_us(leg: &Leg) -> Vec<f64> {
    measured(leg)
        .iter()
        .filter(|r| r.epoch.is_some())
        .map(|r| us(r.intended, r.acked))
        .collect()
}

/// Client-observed metrics too unsteady to gate on a shared 2-vCPU host.
/// The host runs in a fast or a slow mode, about 1.3× apart, for whole runs
/// at a time; ack and visibility tails differ about 2× between the modes.
/// Over ten seeds their interquartile range reached 0.23–0.64 of the median
/// on some workload. The traced run reports them as `ungated.*`.
const UNGATED: [&str; 7] = [
    "ingest_ack_p50_us",
    "ingest_ack_tail_us",
    "visible_p50_us",
    "visible_tail_us",
    "read_full_tail_us",
    "read_ranged_p50_us",
    "reads_per_s",
];

/// Every end-to-end metric of one untraced leg.
pub fn end_to_end(w: &Workload, inputs: &Inputs, leg: &Leg) -> Vec<Metric> {
    client_metrics(w, inputs, leg)
        .into_iter()
        .filter(|m| !UNGATED.contains(&m.name.as_str()))
        .collect()
}

/// The [`UNGATED`] client metrics of one untraced leg, named `ungated.*`.
fn ungated(w: &Workload, inputs: &Inputs, leg: &Leg) -> Vec<Metric> {
    client_metrics(w, inputs, leg)
        .into_iter()
        .filter(|m| UNGATED.contains(&m.name.as_str()))
        .map(|m| Metric {
            name: format!("ungated.{}", m.name),
            ..m
        })
        .collect()
}

/// Everything the clients observe in one leg.
fn client_metrics(w: &Workload, inputs: &Inputs, leg: &Leg) -> Vec<Metric> {
    let ack = ack_us(leg);
    let write_q = tail_q(measured(leg).len());
    let busy_s: f64 = measured(leg)
        .iter()
        .filter(|r| r.epoch.is_some())
        .map(|r| r.acked.saturating_duration_since(r.sent).as_secs_f64())
        .sum();
    let answers: usize = measured(leg)
        .iter()
        .filter(|r| r.epoch.is_some())
        .map(|r| r.answers)
        .sum();
    let visible = visible_us(w, leg);
    let full = warm_reads(&leg.reads, true);
    let ranged = warm_reads(&leg.reads, false);
    let f1 = cpa_eval::metrics::evaluate(&leg.final_predictions, &inputs.dataset.truth).f1;
    vec![
        m("setup_s", median(&leg.setup_s), "s"),
        m("ingest_ack_p50_us", median(&ack), "us"),
        m("ingest_ack_tail_us", quantile(&ack, write_q), "us"),
        m(
            "ingest_answers_per_s",
            answers as f64 / busy_s.max(1e-9),
            "1/s",
        ),
        m("visible_p50_us", median(&visible), "us"),
        m("visible_tail_us", quantile(&visible, write_q), "us"),
        m("read_full_p50_us", median(&full), "us"),
        m("read_full_tail_us", quantile(&full, READ_TAIL_Q), "us"),
        m("read_ranged_p50_us", median(&ranged), "us"),
        m(
            "reads_per_s",
            leg.reads.len() as f64 / leg.read_window_s.max(1e-9),
            "1/s",
        ),
        m("consensus_f1", f1, "ratio"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Bytes and median encode/decode µs of `values` under `format`.
fn codec_row<T: serde::Serialize + serde::Deserialize>(
    format: WireFormat,
    values: &[T],
) -> (f64, f64, f64) {
    let (mut bytes, mut enc, mut dec) = (Vec::new(), Vec::new(), Vec::new());
    for v in values {
        let t = Instant::now();
        let body = encode(format, v).expect("benchmark values encode");
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let back: T = decode(format, &body).expect("benchmark values decode");
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(back);
        bytes.push(body.len() as f64);
    }
    (median(&bytes), median(&enc), median(&dec))
}

/// Dirty shards of one `Ingest` op: the shards its answers route to.
fn dirty_shards(op: &FleetOp) -> Vec<usize> {
    let router = ShardRouter::new(SHARDS);
    let mut shards: Vec<usize> = match op {
        FleetOp::Ingest { answers, .. } => answers.iter().map(|a| router.route(a.0)).collect(),
        _ => Vec::new(),
    };
    shards.sort_unstable();
    shards.dedup();
    shards
}

/// `transport.codec.*`: bytes and encode/decode µs of the run's acked
/// `Ingest` ops and of `Predictions`, 32-item `PredictedItems` and
/// full-subscription delta replies at the final state, under both codecs.
fn codec_table(inputs: &Inputs, leg: &Leg) -> Vec<Metric> {
    const SAMPLES: usize = 100;
    let preds = &leg.final_predictions;
    let epoch = leg.final_epoch;
    let n = preds.len();
    let index = ShardIndex::new(ShardRouter::new(SHARDS), n);
    let ingests: Vec<FleetOp> = inputs
        .writes
        .iter()
        .zip(&leg.writes)
        .filter(|(_, r)| r.epoch.is_some())
        .take(SAMPLES)
        .map(|(w, _)| w.op.clone())
        .collect();
    let full: Vec<FleetReply> = (0..20)
        .map(|_| FleetReply::Predictions {
            predictions: preds.clone(),
            epoch,
        })
        .collect();
    let ranged: Vec<FleetReply> = (0..SAMPLES)
        .map(|k| {
            let items = window(k, n);
            FleetReply::PredictedItems {
                predictions: items.iter().map(|&i| preds[i].clone()).collect(),
                items,
                epoch,
            }
        })
        .collect();
    let deltas: Vec<FleetReply> = ingests
        .iter()
        .map(|op| {
            let shards = dirty_shards(op);
            let mut items: Vec<usize> = shards
                .iter()
                .flat_map(|&s| index.items_of(s).iter().map(|&i| i as usize))
                .collect();
            items.sort_unstable();
            FleetReply::PredictedDelta {
                predictions: items.iter().map(|&i| preds[i].clone()).collect(),
                items,
                dirty_shards: shards,
                epoch,
            }
        })
        .collect();

    let mut out = Vec::new();
    for (format, tag) in [(WireFormat::Json, "json"), (WireFormat::Binary, "binary")] {
        let rows = [
            ("ingest", codec_row(format, &ingests)),
            ("predictions", codec_row(format, &full)),
            ("predicted_items", codec_row(format, &ranged)),
            ("delta", codec_row(format, &deltas)),
        ];
        for (what, (bytes, enc, dec)) in rows {
            let base = format!("transport.codec.{tag}.{what}");
            out.push(m(format!("{base}.bytes"), bytes, "B"));
            out.push(m(format!("{base}.encode_us"), enc, "us"));
            out.push(m(format!("{base}.decode_us"), dec, "us"));
        }
    }
    out
}

/// Part of `[start, end]` covered by the union of `children`.
fn covered(start: f64, end: f64, children: &[&Span]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start_us.max(start), c.end_us.min(end)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, start);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Every per-layer metric of one traced leg, with the tracing overhead
/// against `untraced` and its [`UNGATED`] client metrics.
pub fn per_layer(
    w: &Workload,
    inputs: &Inputs,
    leg: &Leg,
    sink: &SpanSink,
    untraced: &Leg,
) -> Vec<Metric> {
    let spans = sink.spans();
    let (from, to) = (sink.at(leg.window.0), sink.at(leg.window.1));
    let stream_end = leg.writes.last().map_or(from, |r| sink.at(r.acked));
    let pick = |layer: &str, name: &str, role: &str, lo: f64, hi: f64| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name && s.role == role)
            .filter(|s| s.start_us >= lo && s.end_us <= hi)
            .collect()
    };
    let durations = |v: &[&Span]| v.iter().map(|s| s.us()).collect::<Vec<f64>>();

    let ingest = pick("core.engine", "ingest", "leader", from, stream_end);
    let follower = pick("core.engine", "ingest", "follower", from, f64::MAX);
    let predict = pick("core.engine", "predict", "leader", from, to);

    // The in-process replay of the measured writes: apply, its engine
    // steps, and the arrival validation in front of it.
    let applies = pick("serve.fleet", "apply", "replay", 0.0, f64::MAX);
    let replay_steps = pick("core.engine", "ingest", "replay", 0.0, f64::MAX);
    let validates = pick("data.queue", "validate", "replay", 0.0, f64::MAX);
    let mut self_us = Vec::new();
    let mut steps_per_write = Vec::new();
    for a in &applies {
        let inside: Vec<&Span> = replay_steps
            .iter()
            .copied()
            .filter(|s| s.start_us >= a.start_us && s.end_us <= a.end_us)
            .collect();
        self_us.push(a.us() - covered(a.start_us, a.end_us, &inside));
        steps_per_write.push(inside.len() as f64);
    }
    let acked: Vec<_> = leg.writes.iter().filter(|r| r.epoch.is_some()).collect();
    let residual: Vec<f64> = acked
        .iter()
        .zip(&applies)
        .map(|(r, a)| us(r.sent, r.acked) - a.us())
        .collect();
    let lateness: Vec<f64> = leg.writes.iter().map(|r| us(r.intended, r.sent)).collect();

    // First read at each epoch, of either kind.
    let mut fresh = Vec::new();
    let mut last = None;
    for r in &leg.reads {
        if r.epoch.is_some() && r.epoch != last {
            fresh.push(us(r.start, r.end));
            last = r.epoch;
        }
    }

    // Follower lag: the writer's acked head minus the follower's epoch,
    // at every apply.
    let lag_max = leg
        .applies
        .iter()
        .map(|a| {
            let head = leg.base_epoch
                + leg
                    .writes
                    .iter()
                    .filter(|r| r.epoch.is_some() && r.acked <= a.end)
                    .count() as u64;
            head.saturating_sub(a.epoch) as f64
        })
        .fold(0.0, f64::max);
    let replica_us: Vec<f64> = leg.applies.iter().map(|a| us(a.start, a.end)).collect();
    let bytes: Vec<f64> = leg.deltas.iter().map(|d| d.frame_bytes as f64).collect();
    let rows: Vec<f64> = leg.deltas.iter().map(|d| d.rows as f64).collect();

    let mut out = vec![
        m("core.engine.ingest_us", median(&durations(&ingest)), "us"),
        m(
            "core.engine.ingest_busy_s",
            durations(&ingest).iter().sum::<f64>() / 1e6,
            "s",
        ),
        m("core.engine.ingest_calls", ingest.len() as f64, "count"),
        m(
            "core.engine.follower_ingest_us",
            median(&durations(&follower)),
            "us",
        ),
        m(
            "core.engine.follower_ingest_calls",
            follower.len() as f64,
            "count",
        ),
        m("core.engine.predict_us", median(&durations(&predict)), "us"),
        m("core.engine.predict_calls", predict.len() as f64, "count"),
        m(
            "serve.fleet.apply_ingest_us",
            median(&durations(&applies)),
            "us",
        ),
        m("serve.fleet.apply_self_us", median(&self_us), "us"),
        m(
            "serve.fleet.dirty_shards_per_write",
            mean(&steps_per_write),
            "count",
        ),
        m(
            "serve.view.fresh_read_ratio",
            fresh.len() as f64 / leg.reads.len().max(1) as f64,
            "ratio",
        ),
        m("serve.view.fresh_read_us", median(&fresh), "us"),
        m("serve.replica.apply_us", median(&replica_us), "us"),
        m("serve.replica.lag_max_epochs", lag_max, "count"),
        m("serve.push.bytes_per_epoch", median(&bytes), "B"),
        m("serve.push.rows_per_delta", mean(&rows), "count"),
        m("transport.ingest_rtt_residual_us", median(&residual), "us"),
        m(
            "data.queue.validate_us",
            median(&durations(&validates)),
            "us",
        ),
        m(
            "gen.send_lateness_tail_us",
            quantile(&lateness, tail_q(lateness.len())),
            "us",
        ),
        m(
            "trace.overhead_ratio",
            median(&ack_us(leg)) / median(&ack_us(untraced)).max(1e-9),
            "ratio",
        ),
        m("trace.spans", spans.len() as f64, "count"),
    ];
    out.extend(codec_table(inputs, leg));
    out.extend(ungated(w, inputs, untraced));
    out
}
