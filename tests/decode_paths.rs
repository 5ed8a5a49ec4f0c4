//! The pull-based decode paths: JSON text (`serde_json::from_str`), the
//! binary codec (`cpa::data::codec::from_bytes`) and a `Value` tree
//! (`serde::from_value`) all read a type straight from their source.
//!
//! Contract 1 (corpus): every document the workspace writes — each
//! `FleetOp` and `FleetReply` variant, a checkpoint of each engine, a K=4
//! manifest and the op-log — decodes from all three sources to a value
//! that re-encodes to the original JSON bytes.
//!
//! Contract 2 (semantics): the decoders keep the `Value` model's rules —
//! unknown keys skipped, the first of duplicate keys kept, missing fields
//! named, the numeric coercions of `Value::as_u64`/`as_i64`/`as_f64`
//! (a whole float beyond an integer's range is out of range), externally
//! tagged enums of exactly one entry, trailing bytes rejected — under
//! every source alike.
//!
//! Contract 3 (truncation): a reply or checkpoint cut at any byte is an
//! error, never a panic.

use cpa::core::engine::{drive, Checkpoint};
use cpa::data::answers::AnswerMatrixBuilder;
use cpa::data::codec;
use cpa::data::labels::LabelSet;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::simulate;
use cpa::data::stream::{MemorySource, WorkerBatch, WorkerStream};
use cpa::eval::runner::{engine_for, restore_engine, Method};
use cpa::math::rng::seeded;
use cpa::serve::{
    ops_from_jsonl, ops_to_jsonl, Fleet, FleetManifest, FleetOp, FleetReply, ReadKind,
};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;
use std::fmt::Debug;

const SEED: u64 = 4411;

fn fixture() -> (cpa::data::dataset::Dataset, Vec<WorkerBatch>) {
    let sim = simulate(&DatasetProfile::movie().scaled(0.05), SEED);
    let mut rng = seeded(SEED + 1);
    let batches = WorkerStream::new(&sim.dataset, 8, &mut rng).into_batches();
    (sim.dataset, batches)
}

/// Nesting depth of a tree: arrays and objects count one level each.
fn depth(value: &Value) -> usize {
    match value {
        Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Object(entries) => 1 + entries.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// Decodes `value` from its JSON text, its binary encoding and its `Value`
/// tree — as a `T` and as a `Value` — and checks that every decode
/// re-encodes to the original JSON. Returns the document's nesting depth.
fn roundtrip<T: Serialize + Deserialize>(what: &str, value: &T) -> usize {
    let json = serde_json::to_string(value).unwrap();
    let binary = codec::to_bytes(value);
    let tree = serde::to_value(value);
    let typed: [(&str, Result<T, String>); 3] = [
        (
            "JSON",
            serde_json::from_str(&json).map_err(|e| e.to_string()),
        ),
        (
            "binary",
            codec::from_bytes(&binary).map_err(|e| e.to_string()),
        ),
        ("Value", serde::from_value(&tree).map_err(|e| e.to_string())),
    ];
    for (source, back) in typed {
        let back = back.unwrap_or_else(|e| panic!("{what} from {source}: {e}"));
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            json,
            "{what} from {source}"
        );
    }
    let trees: [(&str, Value); 2] = [
        ("JSON", serde_json::from_str(&json).unwrap()),
        ("binary", codec::from_bytes(&binary).unwrap()),
    ];
    for (source, back) in trees {
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            json,
            "{what} as Value from {source}"
        );
    }
    depth(&tree)
}

#[test]
fn every_document_the_workspace_writes_decodes_the_same_from_json_binary_and_value() {
    let (d, batches) = fixture();
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    let mut fleet = Fleet::new(4, 1, i, u, c, |_| Method::CpaSvi.engine(i, u, c, SEED))
        .with_restore_hook(restore_engine);
    let mut ops: Vec<FleetOp> = batches
        .iter()
        .map(|b| FleetOp::ingest_from(&d.answers, b))
        .collect();
    ops.extend([
        FleetOp::Refit,
        FleetOp::Predict,
        FleetOp::Estimate,
        FleetOp::PredictItems {
            items: vec![3, 0, 3],
        },
        FleetOp::EstimateItems { items: vec![1, 2] },
        FleetOp::Snapshot,
    ]);
    let mut replies: Vec<FleetReply> = ops.iter().map(|op| fleet.apply(op.clone())).collect();
    let manifest = fleet.snapshot();
    for op in [
        FleetOp::Restore {
            manifest: manifest.clone(),
        },
        FleetOp::Shutdown,
    ] {
        replies.push(fleet.apply(op.clone()));
        ops.push(op);
    }
    // A fleet refuses subscriptions in process; their replies are the
    // frames a server sends: the ack and the two kinds of bootstrap.
    ops.extend([
        FleetOp::SubscribeOps { from_epoch: 2 },
        FleetOp::SubscribeReads {
            kind: ReadKind::Predictions,
            items: None,
        },
        FleetOp::SubscribeReads {
            kind: ReadKind::Estimate,
            items: Some(vec![5, 2]),
        },
    ]);
    let epoch = fleet.epoch();
    let ranged = vec![2, 5];
    let mut covering: Vec<usize> = ranged.iter().map(|&i| fleet.router().route(i)).collect();
    covering.sort_unstable();
    covering.dedup();
    replies.extend([
        FleetReply::Subscribed { epoch },
        FleetReply::PredictedDelta {
            items: (0..i).collect(),
            predictions: fleet.predict_all(),
            dirty_shards: (0..fleet.num_shards()).collect(),
            epoch,
        },
        FleetReply::EstimatedDelta {
            rows: fleet.estimate_items(&ranged),
            items: ranged,
            dirty_shards: covering,
            epoch,
        },
    ]);
    replies.push(FleetReply::OpApplied {
        epoch: 9,
        op: FleetOp::Restore {
            manifest: manifest.clone(),
        },
    });
    replies.push(FleetReply::err("bad \"op\"\n\tcontrol \u{1} — ✓ 😀"));

    let op_names: BTreeSet<&str> = ops.iter().map(FleetOp::name).collect();
    let reply_names: BTreeSet<&str> = replies.iter().map(FleetReply::name).collect();
    assert_eq!(op_names.len(), 11, "every FleetOp variant: {op_names:?}");
    assert_eq!(
        reply_names.len(),
        14,
        "every FleetReply variant: {reply_names:?}"
    );

    // (depth, document) of the deepest document seen.
    let mut deepest = (0, String::new());
    let mut check = |what: String, depth: usize| {
        if depth > deepest.0 {
            deepest = (depth, what);
        }
    };
    for op in &ops {
        check(op.name().to_string(), roundtrip(op.name(), op));
    }
    for reply in &replies {
        check(reply.name().to_string(), roundtrip(reply.name(), reply));
    }

    for method in Method::all() {
        let mut engine = engine_for(method, &d, SEED);
        drive(
            engine.as_mut(),
            &mut MemorySource::new(&d.answers, batches.clone()),
        );
        let checkpoint = engine.snapshot();
        let what = format!("{} checkpoint", method.name());
        check(what.clone(), roundtrip(&what, &checkpoint));
        let json = checkpoint.to_json();
        assert_eq!(
            Checkpoint::from_json(&json).unwrap().to_json(),
            json,
            "{what} document"
        );
    }

    check("K=4 manifest".into(), roundtrip("K=4 manifest", &manifest));
    let json = manifest.to_json();
    assert_eq!(
        FleetManifest::from_json(&json).unwrap().to_json(),
        json,
        "manifest document"
    );

    // The op-log: its header and every op line.
    let log = ops_to_jsonl(&ops);
    let mut lines = log.lines();
    let header = lines.next().expect("header line");
    let parsed: Value = serde_json::from_str(header).unwrap();
    assert_eq!(
        parsed,
        Value::Object(vec![("op_log_version".into(), Value::UInt(1))])
    );
    for (line, op) in lines.zip(&ops) {
        let back: FleetOp = serde_json::from_str(line).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), line);
        assert_eq!(line, serde_json::to_string(op).unwrap());
    }
    let want: Vec<String> = ops
        .iter()
        .map(|op| serde_json::to_string(op).unwrap())
        .collect();
    let got: Vec<String> = ops_from_jsonl(&log)
        .unwrap()
        .iter()
        .map(|op| serde_json::to_string(op).unwrap())
        .collect();
    assert_eq!(got, want, "JSONL op-log");

    // The deepest document the workspace writes sits far below the
    // decoders' nesting cap.
    let (depth, what) = deepest;
    eprintln!("deepest corpus document: {what}, {depth} levels");
    assert!(depth < serde::MAX_DEPTH / 4, "{what}: {depth} levels");
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Probe {
    id: u64,
    name: String,
    weight: f64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Line { len: u32 },
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// `doc` decoded as a `T` from its JSON text, its binary encoding and the
/// tree itself.
fn decode_all<T: Deserialize>(doc: &Value) -> [(&'static str, Result<T, String>); 3] {
    let json = serde_json::to_string(doc).unwrap();
    [
        (
            "JSON",
            serde_json::from_str(&json).map_err(|e| e.to_string()),
        ),
        (
            "binary",
            codec::from_bytes(&codec::to_bytes(doc)).map_err(|e| e.to_string()),
        ),
        ("Value", serde::from_value(doc).map_err(|e| e.to_string())),
    ]
}

fn expect_ok<T: Deserialize + PartialEq + Debug>(doc: &Value, want: &T) {
    for (source, got) in decode_all::<T>(doc) {
        assert_eq!(got.as_ref(), Ok(want), "{source}: {doc:?}");
    }
}

fn expect_err<T: Deserialize + Debug>(doc: &Value, needle: &str) {
    for (source, got) in decode_all::<T>(doc) {
        let err = got.expect_err(&format!("{source} accepted {doc:?}"));
        assert!(err.contains(needle), "{source}: `{err}` lacks `{needle}`");
    }
}

#[test]
fn decode_semantics_match_the_value_model_under_every_source() {
    let probe = |id: u64, name: &str, weight: f64| Probe {
        id,
        name: name.to_string(),
        weight,
    };
    // Unknown keys are skipped, whatever their value's shape.
    let nested = Value::Array(vec![
        Value::UInt(1),
        Value::Array(vec![Value::Null, obj(vec![("x", Value::Int(-2))])]),
    ]);
    let doc = obj(vec![
        ("junk_array", nested),
        ("id", Value::UInt(7)),
        (
            "junk_object",
            obj(vec![(
                "k",
                Value::Array(vec![Value::Bool(true), Value::Float(2.5)]),
            )]),
        ),
        ("name", s("n")),
        ("junk_string", s("a \"quoted\"\n\t\\ line ✓ 😀")),
        ("weight", Value::Float(0.25)),
    ]);
    expect_ok(&doc, &probe(7, "n", 0.25));
    // ...including escaped strings the shim's writer never produces.
    let text = r#"{"junk":"😀 A\/","id":1,"name":"é","weight":2}"#;
    assert_eq!(
        serde_json::from_str::<Probe>(text).unwrap(),
        probe(1, "é", 2.0)
    );

    // The first of duplicate keys wins.
    let doc = obj(vec![
        ("id", Value::UInt(1)),
        ("name", s("first")),
        ("id", Value::UInt(2)),
        ("weight", Value::Float(1.0)),
        ("name", s("second")),
    ]);
    expect_ok(&doc, &probe(1, "first", 1.0));

    // A missing field is named.
    let doc = obj(vec![("id", Value::UInt(1)), ("weight", Value::Float(1.0))]);
    expect_err::<Probe>(&doc, "missing field `name`");
    expect_err::<Probe>(&Value::Array(vec![]), "expected object, found array");

    // Numbers coerce as `Value::as_u64`/`as_f64` do.
    let with =
        |id: Value, weight: Value| obj(vec![("id", id), ("name", s("x")), ("weight", weight)]);
    expect_ok(
        &with(Value::Float(1.0), Value::UInt(3)),
        &probe(1, "x", 3.0),
    );
    expect_err::<Probe>(
        &with(Value::Int(-1), Value::Float(0.0)),
        "expected unsigned integer, found integer",
    );
    expect_err::<Probe>(
        &with(Value::Float(1.5), Value::Float(0.0)),
        "expected unsigned integer, found float",
    );
    expect_err::<Probe>(
        &with(s("1"), Value::Float(0.0)),
        "expected unsigned integer, found string",
    );
    for (source, got) in decode_all::<Probe>(&with(Value::UInt(4), Value::Null)) {
        assert!(got.unwrap().weight.is_nan(), "{source}: null is NaN");
    }
    // A whole float reads as an integer below 2^64 (2^63 signed) and is
    // out of range from there, as is a `UInt` above `i64::MAX` read signed.
    let (two_63, two_64) = (2f64.powi(63), 2f64.powi(64));
    expect_ok(&Value::Float(two_64 - 2048.0), &(u64::MAX - 2047));
    expect_err::<u64>(&Value::Float(two_64), "integer out of range");
    expect_ok(&Value::Float(-two_63), &i64::MIN);
    expect_err::<i64>(&Value::Float(two_63), "integer out of range");
    expect_err::<i64>(&Value::UInt(1 << 63), "integer out of range");
    for err in [
        serde_json::from_str::<u64>("18446744073709551616").unwrap_err(),
        serde_json::from_str::<i64>("9223372036854775808.0").unwrap_err(),
    ] {
        assert!(err.to_string().contains("integer out of range"), "{err}");
    }

    // Enums are externally tagged, one entry exactly.
    expect_ok(&s("Dot"), &Shape::Dot);
    let line = obj(vec![("Line", obj(vec![("len", Value::UInt(3))]))]);
    expect_ok(&line, &Shape::Line { len: 3 });
    expect_err::<Shape>(&obj(vec![]), "expected enum Shape, found object");
    let two = obj(vec![
        ("Line", obj(vec![("len", Value::UInt(3))])),
        ("Dot", Value::Null),
    ]);
    expect_err::<Shape>(&two, "expected enum Shape, found object");
    expect_err::<Shape>(&s("Square"), "unknown variant `Square`");
    expect_err::<Shape>(&s("Line"), "unknown variant `Line`");
    expect_err::<Shape>(
        &obj(vec![("Square", obj(vec![]))]),
        "unknown variant `Square`",
    );
    expect_err::<Shape>(&Value::Array(vec![]), "expected enum Shape, found array");
    // A struct variant whose body is not an object reads as missing fields.
    expect_err::<Shape>(&obj(vec![("Line", Value::UInt(3))]), "missing field `len`");

    // Trailing bytes are rejected by both readers.
    let json = serde_json::to_string(&line).unwrap();
    let err = serde_json::from_str::<Shape>(&format!("{json} x")).unwrap_err();
    assert!(err.to_string().contains("trailing"), "{err}");
    assert!(serde_json::from_str::<Shape>(&format!("{json} \n")).is_ok());
    let mut binary = codec::to_bytes(&line);
    binary.push(0);
    let err = codec::from_bytes::<Shape>(&binary).unwrap_err();
    assert!(err.to_string().contains("trailing"), "{err}");
}

/// A CPA-SVI checkpoint small enough to cut at every byte.
fn small_checkpoint() -> Checkpoint {
    let mut builder = AnswerMatrixBuilder::new(4, 3, 3);
    for (item, worker, labels) in [
        (0, 0, vec![0]),
        (1, 0, vec![1, 2]),
        (2, 1, vec![0]),
        (3, 2, vec![2]),
    ] {
        builder.insert(item, worker, LabelSet::from_labels(3, labels));
    }
    let answers = builder.build();
    let mut engine = Method::CpaSvi.engine(4, 3, 3, SEED);
    engine.ingest(
        &answers,
        &WorkerBatch {
            index: 1,
            workers: vec![0, 1, 2],
            items: vec![0, 1, 2, 3],
        },
    );
    engine.snapshot()
}

#[test]
fn documents_cut_at_every_byte_are_errors_not_panics() {
    let reply = FleetReply::Predictions {
        predictions: vec![
            LabelSet::from_labels(70, vec![0, 65]),
            LabelSet::empty(70),
            LabelSet::from_labels(70, vec![3]),
        ],
        epoch: 12,
    };
    let json = serde_json::to_string(&reply).unwrap();
    let binary = codec::to_bytes(&reply);
    for cut in 0..json.len() {
        assert!(
            serde_json::from_str::<FleetReply>(&json[..cut]).is_err(),
            "JSON cut at {cut}"
        );
    }
    for cut in 0..binary.len() {
        assert!(
            codec::from_bytes::<FleetReply>(&binary[..cut]).is_err(),
            "binary cut at {cut}"
        );
    }

    let checkpoint = small_checkpoint();
    let json = checkpoint.to_json();
    let binary = codec::to_bytes(&checkpoint);
    assert!(json.len() < 20_000, "{} bytes", json.len());
    for cut in (0..json.len()).filter(|&cut| json.is_char_boundary(cut)) {
        assert!(
            Checkpoint::from_json(&json[..cut]).is_err(),
            "JSON cut at {cut}"
        );
    }
    for cut in 0..binary.len() {
        assert!(
            codec::from_bytes::<Checkpoint>(&binary[..cut]).is_err(),
            "binary cut at {cut}"
        );
    }
    assert_eq!(
        codec::from_bytes::<Checkpoint>(&binary).unwrap().to_json(),
        json
    );
}
