//! The three traffic mixes. `README.md` beside this crate records why each
//! was chosen and which layer metric should move which end-to-end metric.

/// What one write carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteShape {
    /// The next `n` arriving workers with all their answers.
    Workers(usize),
    /// One worker's answers on a single round-robin target shard.
    OneShard,
}

/// Who watches the writes land, on the second connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// A `SubscribeOps` tail feeding an in-process `Follower`.
    Follower,
    /// A closed-loop reader alternating full and 32-item reads.
    Reader,
    /// A full `SubscribeReads(Predictions)` push subscription.
    Subscriber,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Share of the arrival order ingested during set-up.
    pub preload_share: f64,
    /// Batches the preload is split into.
    pub preload_batches: usize,
    /// What each measured write carries.
    pub write_shape: WriteShape,
    /// The writer's open-loop rate: sends are evenly spaced and never wait
    /// for acks. A run sends `writes_per_s × --seconds` writes, so every
    /// run of a workload has the same sample count and tail percentile.
    pub writes_per_s: f64,
    /// The second connection's role.
    pub observer: Observer,
    /// Pool threads per fleet; threads × fleets in the process = 2.
    pub fleet_threads: usize,
}

impl Workload {
    /// Writes in a run of `seconds`.
    pub fn writes(&self, seconds: f64) -> usize {
        ((self.writes_per_s * seconds).round() as usize).max(1)
    }
}

/// Every workload, by name.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ingest_replicated",
        preload_share: 0.0,
        preload_batches: 0,
        write_shape: WriteShape::Workers(2),
        writes_per_s: 20.0,
        observer: Observer::Follower,
        fleet_threads: 1,
    },
    Workload {
        name: "read_mostly",
        preload_share: 0.3,
        preload_batches: 3,
        write_shape: WriteShape::Workers(2),
        writes_per_s: 2.2,
        observer: Observer::Reader,
        fleet_threads: 2,
    },
    Workload {
        name: "push_delta",
        preload_share: 0.3,
        preload_batches: 3,
        write_shape: WriteShape::OneShard,
        writes_per_s: 6.5,
        observer: Observer::Subscriber,
        fleet_threads: 2,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}
