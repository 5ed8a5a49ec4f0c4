//! The span-recording engine wrapper must be invisible to the fleet: a
//! wrapped fleet's predictions and manifest are bit-identical to an
//! unwrapped fleet's over the same op stream.

use cpa_data::simulate::simulate;
use cpa_data::stream::WorkerStream;
use cpa_eval::experiments::fig7::synthetic_profile;
use cpa_eval::runner::Method;
use cpa_math::rng::seeded;
use cpa_serve::{Fleet, FleetOp, FleetReply};
use servebench::trace::{SpanSink, TracedEngine};
use std::sync::Arc;

fn fleet(k: usize, i: usize, u: usize, c: usize, sink: Option<&Arc<SpanSink>>) -> Fleet {
    Fleet::new(k, 2, i, u, c, |_| {
        let engine = Method::CpaSvi.engine(i, u, c, 7);
        match sink {
            Some(sink) => TracedEngine::boxed(engine, "leader", sink),
            None => engine,
        }
    })
}

#[test]
fn wrapped_fleet_matches_unwrapped_at_k1_and_k4() {
    let d = simulate(&synthetic_profile(0.02, 5), 5).dataset;
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    let ops: Vec<FleetOp> = WorkerStream::new(&d, 15, &mut seeded(6))
        .iter()
        .map(|b| FleetOp::ingest_from(&d.answers, b))
        .collect();
    for k in [1, 4] {
        let sink = Arc::new(SpanSink::default());
        let mut plain = fleet(k, i, u, c, None);
        let mut wrapped = fleet(k, i, u, c, Some(&sink));
        for op in &ops {
            let (a, b) = (plain.apply(op.clone()), wrapped.apply(op.clone()));
            assert!(
                matches!(a, FleetReply::Ingested { .. }),
                "K={k}: {}",
                a.name()
            );
            assert_eq!(a.epoch(), b.epoch(), "K={k}");
        }
        assert_eq!(plain.predict_all(), wrapped.predict_all(), "K={k}");
        assert_eq!(
            plain.snapshot().to_json(),
            wrapped.snapshot().to_json(),
            "K={k}: manifests differ"
        );

        // One ingest span per dirty shard step, one predict span per shard.
        let spans = sink.spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert!(count("ingest") >= ops.len(), "K={k}");
        assert!(count("ingest") <= ops.len() * k, "K={k}");
        assert_eq!(count("predict"), k, "K={k}");
        assert!(spans
            .iter()
            .all(|s| s.layer == "core.engine" && s.us() >= 0.0));
    }
}
