//! Plain-text interchange formats.
//!
//! Real crowdsourcing exports (CrowdFlower/Figure-Eight CSVs, the SQuARE
//! benchmark the paper cites \[8\]) are long-format tables of
//! `(item, worker, label)` votes. This module reads and writes that format
//! so users can run CPA on their own data, plus a ground-truth format of
//! `(item, label)` pairs. JSON round-tripping of whole datasets lives on
//! [`crate::dataset::Dataset`] itself.

use crate::answers::{AnswerMatrix, AnswerMatrixBuilder};
use crate::dataset::Dataset;
use crate::labels::LabelSet;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Errors raised by the text loaders.
#[derive(Debug)]
pub enum IoError {
    /// A line did not have the expected number of fields.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A versioned file was written by an incompatible format version.
    Version {
        /// Version found in the file's header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::BadRecord { line, message } => {
                write!(f, "line {line}: {message}")
            }
            IoError::Version { found, expected } => {
                write!(f, "op-log version {found} (this build reads {expected})")
            }
            IoError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes an answer matrix as long-format CSV: `item,worker,label` per vote,
/// with a header. Labels are written per vote so a 3-label answer becomes
/// three rows, which is the CrowdFlower convention.
pub fn answers_to_csv(answers: &AnswerMatrix) -> String {
    let mut out = String::from("item,worker,label\n");
    for a in answers.iter() {
        for c in a.labels.iter() {
            let _ = writeln!(out, "{},{},{}", a.item, a.worker, c);
        }
    }
    out
}

/// Parses long-format CSV into an answer matrix. Dimensions are inferred
/// from the maxima unless larger ones are supplied. Duplicate
/// `(item, worker, label)` rows are idempotent; multiple labels for the same
/// `(item, worker)` accumulate into one answer set.
pub fn answers_from_csv(
    text: &str,
    min_items: usize,
    min_workers: usize,
    min_labels: usize,
) -> Result<AnswerMatrix, IoError> {
    let mut triples: Vec<(usize, usize, usize)> = Vec::new();
    let (mut max_i, mut max_w, mut max_c) = (0usize, 0usize, 0usize);
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || lineno == 0 && line.starts_with("item") {
            continue;
        }
        let mut parts = line.split(',');
        let mut field = |name: &str| -> Result<usize, IoError> {
            parts
                .next()
                .ok_or_else(|| IoError::BadRecord {
                    line: lineno + 1,
                    message: format!("missing field `{name}`"),
                })?
                .trim()
                .parse()
                .map_err(|e| IoError::BadRecord {
                    line: lineno + 1,
                    message: format!("bad `{name}`: {e}"),
                })
        };
        let (i, w, c) = (field("item")?, field("worker")?, field("label")?);
        if parts.next().is_some() {
            return Err(IoError::BadRecord {
                line: lineno + 1,
                message: "too many fields".into(),
            });
        }
        max_i = max_i.max(i + 1);
        max_w = max_w.max(w + 1);
        max_c = max_c.max(c + 1);
        triples.push((i, w, c));
    }
    let items = max_i.max(min_items);
    let workers = max_w.max(min_workers);
    let labels = max_c.max(min_labels);
    // Group labels per (item, worker).
    let mut grouped: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, w, c) in triples {
        grouped.entry((i, w)).or_default().push(c);
    }
    let mut m = AnswerMatrixBuilder::new(items, workers, labels);
    for ((i, w), cs) in grouped {
        m.insert(i, w, LabelSet::from_labels(labels, cs));
    }
    Ok(m.build())
}

/// Writes ground truth as `item,label` CSV rows.
pub fn truth_to_csv(truth: &[LabelSet]) -> String {
    let mut out = String::from("item,label\n");
    for (i, t) in truth.iter().enumerate() {
        for c in t.iter() {
            let _ = writeln!(out, "{i},{c}");
        }
    }
    out
}

/// Parses `item,label` CSV into per-item label sets.
pub fn truth_from_csv(
    text: &str,
    num_items: usize,
    num_labels: usize,
) -> Result<Vec<LabelSet>, IoError> {
    let mut truth = vec![LabelSet::empty(num_labels); num_items];
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || lineno == 0 && line.starts_with("item") {
            continue;
        }
        let mut parts = line.split(',');
        let parse = |s: Option<&str>, name: &str| -> Result<usize, IoError> {
            s.ok_or_else(|| IoError::BadRecord {
                line: lineno + 1,
                message: format!("missing field `{name}`"),
            })?
            .trim()
            .parse()
            .map_err(|e| IoError::BadRecord {
                line: lineno + 1,
                message: format!("bad `{name}`: {e}"),
            })
        };
        let i = parse(parts.next(), "item")?;
        let c = parse(parts.next(), "label")?;
        if i >= num_items || c >= num_labels {
            return Err(IoError::BadRecord {
                line: lineno + 1,
                message: format!("({i},{c}) out of bounds ({num_items},{num_labels})"),
            });
        }
        truth[i].insert(c);
    }
    Ok(truth)
}

/// Reads the top-level `version` field of a JSON document without building
/// the document: a one-field probe whose reader skips every other field.
/// `Ok(None)` when the field is missing or not an unsigned integer, or the
/// document is not an object; `Err` only when the text is not JSON. This is
/// the version-first check of the versioned JSON containers (checkpoints,
/// fleet manifests).
///
/// # Errors
/// The syntax error, when `text` is not one JSON document.
pub fn json_version(text: &str) -> Result<Option<u64>, serde::Error> {
    serde_json::from_str::<VersionProbe>(text).map(|probe| probe.version)
}

/// A document's `version` and nothing else (see [`json_version`]).
struct VersionProbe {
    version: Option<u64>,
}

impl Deserialize for VersionProbe {
    fn deserialize<'de, D: serde::Deserializer<'de>>(d: &mut D) -> Result<Self, serde::Error> {
        let mut version = None;
        if d.peek()? != serde::Kind::Object {
            d.skip()?;
        } else {
            d.map("object")?;
            while let Some(key) = d.next_key()? {
                // The first `version` key decides, as `Value::get` does.
                if &*key != "version" || version.is_some() {
                    d.skip()?;
                } else if d.peek()? == serde::Kind::Number {
                    version = Some(d.scalar("number")?.as_u64());
                } else {
                    d.skip()?;
                    version = Some(None);
                }
            }
        }
        Ok(VersionProbe {
            version: version.flatten(),
        })
    }
}

/// Format version written into the header line of every op-log. Bump on any
/// incompatible change to the line layout.
pub const OP_LOG_VERSION: u32 = 1;

/// The op-log header key carrying [`OP_LOG_VERSION`].
const OP_LOG_VERSION_KEY: &str = "op_log_version";

/// Serializes a recorded op stream as a **versioned JSONL op-log**: a header
/// line `{"op_log_version": 1}` followed by one JSON op per line, in applied
/// order. The op type is anything serde-serializable — `cpa-serve` records
/// its `FleetOp` protocol through this, but the format is op-agnostic.
///
/// Parse it back with [`oplog_from_jsonl`]; the two are inverse, so a
/// recorded log replays the byte-identical op sequence.
pub fn oplog_to_jsonl<T: serde::Serialize>(ops: &[T]) -> String {
    let mut out = format!("{{\"{OP_LOG_VERSION_KEY}\": {OP_LOG_VERSION}}}\n");
    for op in ops {
        let _ = writeln!(
            out,
            "{}",
            serde_json::to_string(op).expect("op record serialises")
        );
    }
    out
}

/// Parses a JSONL op-log written by [`oplog_to_jsonl`] back into its op
/// sequence, hardened against truncated input: a file cut mid-line fails as a [`IoError::BadRecord`] naming the cut
/// line, never a panic or a silently dropped tail. Blank lines are skipped;
/// a header-only log parses as zero ops.
///
/// The header's version is checked **before** any op line is decoded, so a
/// log written by an incompatible future version reports
/// [`IoError::Version`] — not an op parse error indistinguishable from
/// corruption.
///
/// # Errors
/// Fails on a missing or malformed header, a version mismatch, or any op
/// line that does not decode as a `T` (with its 1-based line number).
pub fn oplog_from_jsonl<T: serde::Deserialize>(text: &str) -> Result<Vec<T>, IoError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(lineno, line)| (lineno + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty());
    let (header_line, header) = lines.next().ok_or_else(|| IoError::BadRecord {
        line: 1,
        message: "missing op-log header".into(),
    })?;
    let header: serde::Value = serde_json::from_str(header).map_err(|e| IoError::BadRecord {
        line: header_line,
        message: format!("bad op-log header: {e}"),
    })?;
    let version = header
        .get(OP_LOG_VERSION_KEY)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| IoError::BadRecord {
            line: header_line,
            message: "missing op-log header".into(),
        })?;
    if version != u64::from(OP_LOG_VERSION) {
        return Err(IoError::Version {
            found: version.try_into().unwrap_or(u32::MAX),
            expected: OP_LOG_VERSION,
        });
    }
    let mut ops = Vec::new();
    for (lineno, line) in lines {
        ops.push(serde_json::from_str(line).map_err(|e| IoError::BadRecord {
            line: lineno,
            message: format!("bad op record: {e}"),
        })?);
    }
    Ok(ops)
}

/// Writes a whole dataset (answers + truth) into a directory as two CSV
/// files, `answers.csv` and `truth.csv`.
pub fn save_dataset_csv(dataset: &Dataset, dir: &std::path::Path) -> Result<(), IoError> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("answers.csv"), answers_to_csv(&dataset.answers))?;
    std::fs::write(dir.join("truth.csv"), truth_to_csv(&dataset.truth))?;
    Ok(())
}

/// Loads a dataset previously written by [`save_dataset_csv`].
pub fn load_dataset_csv(
    name: &str,
    dir: &std::path::Path,
    num_labels: usize,
) -> Result<Dataset, IoError> {
    let answers_text = std::fs::read_to_string(dir.join("answers.csv"))?;
    let answers = answers_from_csv(&answers_text, 0, 0, num_labels)?;
    let truth_text = std::fs::read_to_string(dir.join("truth.csv"))?;
    let truth = truth_from_csv(&truth_text, answers.num_items(), answers.num_labels())?;
    Ok(Dataset::new(name, answers, truth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DatasetProfile;
    use crate::simulate::simulate;
    use serde::Serialize;

    #[test]
    fn answers_roundtrip() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 201);
        let csv = answers_to_csv(&sim.dataset.answers);
        let loaded = answers_from_csv(
            &csv,
            sim.dataset.num_items(),
            sim.dataset.num_workers(),
            sim.dataset.num_labels(),
        )
        .unwrap();
        assert_eq!(loaded.num_answers(), sim.dataset.answers.num_answers());
        for a in sim.dataset.answers.iter() {
            assert_eq!(
                loaded.get(a.item as usize, a.worker as usize),
                Some(&a.labels)
            );
        }
    }

    #[test]
    fn truth_roundtrip() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 203);
        let csv = truth_to_csv(&sim.dataset.truth);
        let loaded =
            truth_from_csv(&csv, sim.dataset.num_items(), sim.dataset.num_labels()).unwrap();
        assert_eq!(loaded, sim.dataset.truth);
    }

    #[test]
    fn dataset_directory_roundtrip() {
        let sim = simulate(&DatasetProfile::movie().scaled(0.04), 205);
        let dir = std::env::temp_dir().join("cpa_io_test");
        save_dataset_csv(&sim.dataset, &dir).unwrap();
        let loaded = load_dataset_csv("movie", &dir, sim.dataset.num_labels()).unwrap();
        assert_eq!(loaded.num_items(), sim.dataset.num_items());
        assert_eq!(loaded.truth, sim.dataset.truth);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_and_blank_lines_skipped() {
        let csv = "item,worker,label\n\n0,0,1\n0,0,2\n1,1,0\n";
        let m = answers_from_csv(csv, 0, 0, 0).unwrap();
        assert_eq!(m.num_items(), 2);
        assert_eq!(m.num_workers(), 2);
        assert_eq!(m.num_labels(), 3);
        assert_eq!(m.get(0, 0).unwrap().to_vec(), vec![1, 2]);
    }

    #[test]
    fn bad_record_reports_line() {
        let csv = "item,worker,label\n0,0,1\nnonsense\n";
        let err = answers_from_csv(csv, 0, 0, 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
    }

    #[test]
    fn too_many_fields_rejected() {
        let csv = "0,0,1,7\n";
        assert!(answers_from_csv(csv, 0, 0, 0).is_err());
    }

    #[test]
    fn truth_bounds_checked() {
        let err = truth_from_csv("5,0\n", 2, 3).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum TestOp {
        Ping,
        Put { key: usize, labels: Vec<usize> },
    }

    fn test_ops() -> Vec<TestOp> {
        vec![
            TestOp::Put {
                key: 3,
                labels: vec![0, 2],
            },
            TestOp::Ping,
            TestOp::Put {
                key: 4,
                labels: vec![1],
            },
        ]
    }

    #[test]
    fn oplog_roundtrips_with_a_version_header() {
        let ops = test_ops();
        let jsonl = oplog_to_jsonl(&ops);
        let header = jsonl.lines().next().unwrap();
        assert!(header.contains("op_log_version"), "{header}");
        let back: Vec<TestOp> = oplog_from_jsonl(&jsonl).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn oplog_header_only_is_zero_ops_and_missing_header_is_an_error() {
        let empty: Vec<TestOp> = oplog_from_jsonl(&oplog_to_jsonl::<TestOp>(&[])).unwrap();
        assert!(empty.is_empty());
        // No header at all (empty file, or a log whose first line is an op).
        let err = oplog_from_jsonl::<TestOp>("").unwrap_err();
        assert!(err.to_string().contains("missing op-log header"), "{err}");
        let err = oplog_from_jsonl::<TestOp>("\"Ping\"\n").unwrap_err();
        assert!(err.to_string().contains("missing op-log header"), "{err}");
    }

    #[test]
    fn oplog_version_is_checked_before_any_op_is_decoded() {
        // Future version + ops this build cannot parse: must still report
        // Version, not a record error indistinguishable from corruption.
        let text = format!(
            "{{\"op_log_version\": {}}}\n[\"future-op-shape\"]\n",
            OP_LOG_VERSION + 1
        );
        let err = oplog_from_jsonl::<TestOp>(&text).unwrap_err();
        assert!(
            matches!(err, IoError::Version { found, .. } if found == OP_LOG_VERSION + 1),
            "{err}"
        );
    }

    #[test]
    fn oplog_truncated_mid_line_names_the_cut_line() {
        // Simulate a crash mid-append: cut the log inside its final record.
        let jsonl = oplog_to_jsonl(&test_ops());
        let cut = jsonl.len() - jsonl.lines().last().unwrap().len() / 2 - 1;
        let err = oplog_from_jsonl::<TestOp>(&jsonl[..cut]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("line 4") && msg.contains("bad op record"),
            "{msg}"
        );
    }

    #[test]
    fn oplog_wrong_shape_record_is_a_bad_record() {
        let text = format!("{{\"op_log_version\": {OP_LOG_VERSION}}}\n{{\"Put\":{{\"key\":1}}}}\n");
        let err = oplog_from_jsonl::<TestOp>(&text).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("line 2") && msg.contains("bad op record"),
            "{msg}"
        );
    }

    #[test]
    fn min_dimensions_respected() {
        let m = answers_from_csv("0,0,0\n", 10, 20, 30).unwrap();
        assert_eq!(m.num_items(), 10);
        assert_eq!(m.num_workers(), 20);
        assert_eq!(m.num_labels(), 30);
    }
}
