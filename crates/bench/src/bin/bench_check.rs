//! `bench_check` — sanity gate over the committed `BENCH_*.json` reports.
//!
//! Every bench target writes a JSON report into the workspace root, and
//! those reports are committed as the repo's performance record. This
//! binary validates each one: it must parse, carry the shared header
//! fields (`workload`, `samples_per_series`, `host_available_parallelism`,
//! a non-empty `series`), and every series entry must carry its
//! target-specific fields with finite, positive timings. The transport
//! report additionally carries a `read_series` block (the read-mostly
//! contention runs), checked for schema and for the cross-series
//! invariants between its read paths. CI runs it after each bench smoke so a
//! bench that silently drops a field (or commits a half-written report)
//! fails the build instead of rotting quietly.
//!
//! ```text
//! cargo run -p cpa-bench --bin bench_check [DIR]
//! ```
//!
//! `DIR` defaults to the workspace root. Exit status 0 means every
//! expected report is present and well-formed; any problem prints the
//! file and field and exits 1.

use serde::Value;
use std::path::Path;

/// A report-wide invariant checked over the parsed series entries.
type SeriesInvariant = fn(&[Value]) -> Result<(), String>;

/// An invariant checked over the whole parsed report (for reports that
/// carry fields beyond the shared `series` array).
type ReportInvariant = fn(&Value) -> Result<(), String>;

/// Per-report schema: required series fields, and series values (field,
/// finite-positive?) beyond the shared header.
struct Schema {
    file: &'static str,
    /// Fields every series entry must carry; `true` = must also be a
    /// finite, strictly positive number.
    series_fields: &'static [(&'static str, bool)],
    /// Extra invariant, given the parsed series entries.
    extra: Option<SeriesInvariant>,
    /// Extra invariant, given the whole parsed report.
    report_extra: Option<ReportInvariant>,
}

const SCHEMAS: &[Schema] = &[
    Schema {
        file: "BENCH_engine.json",
        series_fields: &[
            ("method", false),
            ("fit_secs_min", true),
            ("fit_secs_median", true),
            ("answers_per_sec", true),
            ("snapshot_secs", true),
            ("checkpoint_json_bytes", true),
            ("restore_secs", true),
            ("snapshot_binary_secs", true),
            ("checkpoint_binary_bytes", true),
            ("restore_binary_secs", true),
        ],
        extra: Some(|series| {
            // The binary codec must actually be the smaller encoding.
            for entry in series {
                let json_bytes = field_f64(entry, "checkpoint_json_bytes")?;
                let binary_bytes = field_f64(entry, "checkpoint_binary_bytes")?;
                if binary_bytes >= json_bytes {
                    return Err(format!(
                        "series entry {:?}: checkpoint_binary_bytes ({binary_bytes}) is not \
                         smaller than checkpoint_json_bytes ({json_bytes})",
                        entry.get("method").and_then(Value::as_str).unwrap_or("?")
                    ));
                }
            }
            Ok(())
        }),
        report_extra: None,
    },
    Schema {
        file: "BENCH_transport.json",
        series_fields: &[
            ("mode", false),
            ("shards", true),
            ("threads", true),
            ("total_secs_min", true),
            ("total_secs_median", true),
            ("answers_per_sec", true),
            ("ingest_ops_per_sec", true),
            ("mean_ingest_rtt_micros", true),
            ("wire_overhead_vs_in_process", true),
        ],
        extra: Some(|series| {
            // Both wire codecs must be represented alongside the
            // in-process baseline.
            for want in ["in-process", "loopback-json", "loopback-binary"] {
                let present = series
                    .iter()
                    .any(|entry| entry.get("mode").and_then(Value::as_str) == Some(want));
                if !present {
                    return Err(format!("no series entry with mode {want:?}"));
                }
            }
            Ok(())
        }),
        report_extra: Some(check_read_series),
    },
    Schema {
        file: "BENCH_serve.json",
        series_fields: &[
            ("shards", true),
            ("threads", true),
            ("fit_secs_min", true),
            ("answers_per_sec", true),
            ("manifest_json_bytes", true),
            ("snapshot_secs", true),
            ("restore_secs", true),
        ],
        extra: None,
        report_extra: None,
    },
    Schema {
        file: "BENCH_parallel_svi.json",
        series_fields: &[
            ("threads", true),
            ("secs_min", true),
            ("secs_median", true),
            ("items_per_sec", true),
            ("answers_per_sec", true),
        ],
        extra: None,
        report_extra: None,
    },
];

/// Fields every `read_series` entry of the transport report must carry.
const READ_SERIES_FIELDS: &[(&str, bool)] = &[
    ("read_path", false),
    ("read_op", false),
    ("shards", true),
    ("readers", true),
    ("reads", true),
    ("writes", true),
    ("dirty_shards", true),
    ("read_secs", true),
    ("reads_per_sec", true),
    // Strictly positive on the request/reply legs; on the push leg this is
    // the one-way ack→apply latency, which includes the driver's post-ack
    // warm of the dirty slabs, and still legitimately rounds to 0 when
    // every delta lands before the writer's ack returns —
    // `check_read_series` enforces the split.
    ("mean_read_rtt_micros", false),
    // Replication lag: legitimately 0 on the non-replicated legs (and on a
    // follower that never trailed), so presence is checked here and the
    // finite-and-non-negative check runs in `check_read_series`.
    ("mean_lag_epochs", false),
    ("max_lag_epochs", false),
    // Push wire economics: legitimately 0 on the non-push legs, so
    // presence is checked here and finite-and-non-negative (plus strictly
    // positive on push entries) in `check_read_series`.
    ("bytes_per_epoch", false),
    ("full_read_bytes", false),
];

/// `BENCH_transport.json` invariants over the read-mostly series: every
/// entry well-formed, and every `"view"`/`"full"` (shards, readers) point
/// paired with a `"ranged32"`, a `"follower"` and a `"push"` leg such
/// that item-ranged reads at K=4 are no slower than whole-universe reads
/// on the same view path, follower reads (served off a replica tailing
/// the leader) stay in the same regime as leader view reads, and push
/// delta frames at K=4 are cheaper on the wire than a full-universe
/// refetch per epoch.
/// Loopback reads are RTT-dominated, so the RTT checks compare **means
/// across pairs** rather than gating each pair on one noisy sample.
/// Replication lag is reported per entry (`mean_lag_epochs`/
/// `max_lag_epochs`, finite and ≥ 0) but not gated — it measures the
/// tail thread's scheduling, not the serve path.
fn check_read_series(report: &Value) -> Result<(), String> {
    let entries = report
        .get("read_series")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing or non-array field \"read_series\"".to_string())?;
    if entries.is_empty() {
        return Err("\"read_series\" is empty".to_string());
    }
    for (idx, entry) in entries.iter().enumerate() {
        let at = format!("read_series[{idx}]");
        for &(field, numeric) in READ_SERIES_FIELDS {
            check_field(entry, field, numeric, &at)?;
        }
        // Lag is epochs behind the writer's ack and the byte columns are
        // push-leg wire sizes: finite and non-negative, with 0 the
        // expected value on the legs they don't apply to.
        for field in [
            "mean_lag_epochs",
            "max_lag_epochs",
            "bytes_per_epoch",
            "full_read_bytes",
        ] {
            let x = field_f64(entry, field).map_err(|e| format!("{at}: {e}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "{at}: field {field:?} must be finite and non-negative, got {x}"
                ));
            }
        }
        // Per-read RTT must be a real measurement on the request/reply
        // legs; the push leg's one-way latency may clamp to 0.
        let rtt = field_f64(entry, "mean_read_rtt_micros").map_err(|e| format!("{at}: {e}"))?;
        let is_push = entry.get("read_path").and_then(Value::as_str) == Some("push");
        if !rtt.is_finite() || rtt < 0.0 || (rtt == 0.0 && !is_push) {
            return Err(format!(
                "{at}: field \"mean_read_rtt_micros\" must be finite and positive \
                 (non-negative on the push leg), got {rtt}"
            ));
        }
    }
    let str_of = |e: &Value, field: &str| {
        e.get(field)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .unwrap_or_default()
    };
    let find = |path: &str, op: &str, shards: f64, readers: f64| {
        entries.iter().find(|e| {
            str_of(e, "read_path") == path
                && str_of(e, "read_op") == op
                && e.get("shards").and_then(Value::as_f64) == Some(shards)
                && e.get("readers").and_then(Value::as_f64) == Some(readers)
        })
    };
    // Ranged reads exist to move O(probe) rows instead of O(items): at the
    // sharded K=4 configuration they must not be slower than full reads on
    // the same view path, comparing mean RTT across the reader counts.
    // Follower reads must stay within 3× the leader's view reads (the
    // follower's serve path is the identical view read path, but on
    // loopback its apply loop competes with its readers for the same
    // cores, so single-sample RTTs run hotter; the bound still fails if
    // follower reads fall off the view path entirely). Push legs must
    // report real wire sizes, and at K=4 the single-shard delta frames
    // must actually be cheaper than refetching the full universe every
    // epoch — the economics the push path exists for. (One-way latency
    // and staleness are reported, not gated: on a loopback single-core
    // host they measure thread scheduling.)
    let (mut full_k4, mut ranged_k4, mut k4_pairs) = (0.0, 0.0, 0usize);
    let (mut view_rtt, mut follower_rtt, mut pairs) = (0.0, 0.0, 0usize);
    let views = entries
        .iter()
        .filter(|e| str_of(e, "read_path") == "view" && str_of(e, "read_op") == "full");
    for entry in views {
        let shards = field_f64(entry, "shards")?;
        let readers = field_f64(entry, "readers")?;
        let leg = |path: &str, op: &str| {
            find(path, op, shards, readers).ok_or_else(|| {
                format!(
                    "read_series: no {path:?}/{op:?} entry for shards={shards} readers={readers}"
                )
            })
        };
        let (ranged, follower, push) = (
            leg("view", "ranged32")?,
            leg("follower", "full")?,
            leg("push", "full")?,
        );
        let rtt = field_f64(entry, "mean_read_rtt_micros")?;
        if shards == 4.0 {
            full_k4 += rtt;
            ranged_k4 += field_f64(ranged, "mean_read_rtt_micros")?;
            k4_pairs += 1;
        }
        view_rtt += rtt;
        follower_rtt += field_f64(follower, "mean_read_rtt_micros")?;
        let delta_bytes = field_f64(push, "bytes_per_epoch")?;
        let full_bytes = field_f64(push, "full_read_bytes")?;
        if delta_bytes <= 0.0 || full_bytes <= 0.0 {
            return Err(format!(
                "read_series: push entry at shards={shards} readers={readers} must report \
                 positive wire sizes, got bytes_per_epoch={delta_bytes} \
                 full_read_bytes={full_bytes}"
            ));
        }
        if shards == 4.0 && delta_bytes > full_bytes {
            return Err(format!(
                "read_series: single-shard push deltas ship more than a full refetch at K=4 \
                 readers={readers}: {delta_bytes:.0}B/epoch > {full_bytes:.0}B"
            ));
        }
        pairs += 1;
    }
    if k4_pairs == 0 {
        return Err("read_series has no \"view\"/\"full\" entries at shards=4".into());
    }
    if ranged_k4 > full_k4 {
        return Err(format!(
            "read_series: ranged reads are slower than full reads at K=4: \
             {:.1}µs > {:.1}µs mean RTT across {k4_pairs} reader counts",
            ranged_k4 / k4_pairs as f64,
            full_k4 / k4_pairs as f64,
        ));
    }
    if follower_rtt > 3.0 * view_rtt {
        return Err(format!(
            "read_series: follower reads fell out of the leader view reads' regime: \
             {:.1}µs > 3 × {:.1}µs mean RTT across {pairs} pairs",
            follower_rtt / pairs as f64,
            view_rtt / pairs as f64,
        ));
    }
    Ok(())
}

/// Shared header fields every report must carry.
const HEADER_FIELDS: &[(&str, bool)] = &[
    ("workload", false),
    ("samples_per_series", true),
    ("host_available_parallelism", true),
];

fn field_f64(entry: &Value, field: &str) -> Result<f64, String> {
    entry
        .get(field)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("field {field:?} is missing or not a number"))
}

/// Checks one field of one object: present, and if `numeric`, a finite
/// strictly positive number.
fn check_field(obj: &Value, field: &str, numeric: bool, at: &str) -> Result<(), String> {
    let value = obj
        .get(field)
        .ok_or_else(|| format!("{at}: missing field {field:?}"))?;
    if numeric {
        let x = value
            .as_f64()
            .ok_or_else(|| format!("{at}: field {field:?} is not a number"))?;
        if !x.is_finite() || x <= 0.0 {
            return Err(format!(
                "{at}: field {field:?} must be finite and positive, got {x}"
            ));
        }
    }
    Ok(())
}

fn check_report(dir: &Path, schema: &Schema) -> Result<usize, String> {
    let path = dir.join(schema.file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let report: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: not valid JSON: {e}", schema.file))?;
    for &(field, numeric) in HEADER_FIELDS {
        check_field(&report, field, numeric, schema.file)?;
    }
    let series = report
        .get("series")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: missing or non-array field \"series\"", schema.file))?;
    if series.is_empty() {
        return Err(format!("{}: \"series\" is empty", schema.file));
    }
    for (idx, entry) in series.iter().enumerate() {
        let at = format!("{} series[{idx}]", schema.file);
        for &(field, numeric) in schema.series_fields {
            check_field(entry, field, numeric, &at)?;
        }
    }
    if let Some(extra) = schema.extra {
        extra(series).map_err(|e| format!("{}: {e}", schema.file))?;
    }
    if let Some(report_extra) = schema.report_extra {
        report_extra(&report).map_err(|e| format!("{}: {e}", schema.file))?;
    }
    Ok(series.len())
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());
    let dir = Path::new(&dir);
    let mut failed = false;
    for schema in SCHEMAS {
        match check_report(dir, schema) {
            Ok(entries) => eprintln!("ok: {} ({entries} series entries)", schema.file),
            Err(e) => {
                eprintln!("FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("all committed bench reports are well-formed");
}
