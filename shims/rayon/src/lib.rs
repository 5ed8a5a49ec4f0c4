//! Offline stand-in for `rayon`: the parallel-iterator entry points used by
//! this workspace, executed on a **real `std::thread` pool**. Work is
//! distributed over scoped threads in fixed chunks claimed through an atomic
//! index; results are written to per-chunk slots and reassembled in input
//! order, so `par_iter().map(f).collect()` returns exactly what the
//! sequential equivalent would — just faster on multi-core hardware. No
//! `unsafe` anywhere (see `#![deny(unsafe_code)]`).
//!
//! The width of a call follows two rules (see `shims/README.md`): outside
//! any [`ThreadPool::install`] it is `RAYON_NUM_THREADS` (1 unless that is
//! a positive integer); a call that fans out runs each item at width 1 on
//! every thread, while one that does not passes its width on.
//!
//! The combinator surface is exactly what the workspace uses: `map`,
//! `collect`, `sum`, `for_each`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Re-exports that `use rayon::prelude::*` is expected to bring in scope.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

thread_local! {
    /// Width installed on this thread by the innermost [`ThreadPool::install`]
    /// or fanned-out parallel call; 0 when neither is active.
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The width outside any `install`: `value` when it parses as a positive
/// integer, 1 otherwise (unset, empty, `0` or not a number).
fn parse_width(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// The implicit width, read from `RAYON_NUM_THREADS` once per process.
fn implicit_threads() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| parse_width(std::env::var("RAYON_NUM_THREADS").ok().as_deref()))
}

/// Number of worker threads the current scope should use.
fn current_threads() -> usize {
    match INSTALLED_THREADS.with(Cell::get) {
        0 => implicit_threads(),
        n => n,
    }
}

/// Runs `op` with `width` installed on this thread, restoring the previous
/// width afterwards, also when `op` unwinds.
fn with_width<R>(width: usize, op: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(INSTALLED_THREADS.with(|c| c.replace(width)));
    op()
}

/// How many chunks each worker thread gets on average; >1 so that uneven
/// per-item costs are load-balanced through the shared atomic index.
const CHUNKS_PER_THREAD: usize = 4;

/// Applies `f` to every item of `items`, in parallel over the current
/// width, returning outputs in input order.
///
/// Items are split into fixed chunks up front; worker threads (scoped, so
/// borrowed state needs no `'static`) claim chunks via an atomic counter,
/// compute into per-chunk result slots, and the caller thread participates
/// too. When the call fans out, every item runs at width 1; when it does
/// not, the items run inline at the caller's width. A panic inside `f`
/// propagates when the scope joins.
fn parallel_map_vec<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = current_threads();
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let num_chunks = (threads * CHUNKS_PER_THREAD).min(n);
    let chunk_size = n.div_ceil(num_chunks);

    // Per-chunk input and output slots. Mutexes are uncontended (each chunk
    // is claimed by exactly one thread through the atomic index); they exist
    // to give the scoped threads shared, safe access to the slots.
    let mut inputs: Vec<Mutex<Vec<T>>> = Vec::with_capacity(num_chunks);
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        inputs.push(Mutex::new(chunk));
    }
    let outputs: Vec<Mutex<Vec<R>>> = (0..inputs.len()).map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);

    let work = || loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= inputs.len() {
            break;
        }
        let chunk = std::mem::take(&mut *inputs[k].lock().expect("input slot poisoned"));
        let done: Vec<R> = chunk.into_iter().map(f).collect();
        *outputs[k].lock().expect("output slot poisoned") = done;
    };

    let spawned = threads.min(inputs.len()).saturating_sub(1);
    thread::scope(|s| {
        for _ in 0..spawned {
            s.spawn(|| with_width(1, work));
        }
        // The calling thread drains chunks alongside the spawned workers.
        with_width(1, work);
    });

    outputs
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect("output slot poisoned"))
        .collect()
}

/// The shim's parallel-iterator trait: a fixed set of items plus a composed
/// per-item pipeline, executed by `parallel_map_vec` at the sink.
pub trait ParallelIterator: Sized + Send {
    /// Item type produced by this stage of the pipeline.
    type Item: Send;

    /// Applies `f` to every item in parallel, preserving input order.
    /// This is the single execution primitive all sinks reduce to.
    fn run_with<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync;

    /// Maps each item through `f` (executed on the worker threads).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Collects the items in input order.
    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        C::from(self.run_with(|x| x))
    }

    /// Sums the items. The reduction itself happens in input order on the
    /// calling thread, so the result is deterministic and identical to the
    /// sequential sum.
    fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
        self.run_with(|x| x).into_iter().sum()
    }

    /// Runs `f` on every item for its side effects.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        self.run_with(f);
    }
}

/// Base parallel iterator over an owned vector of items.
#[derive(Debug)]
pub struct VecParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;

    fn run_with<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        parallel_map_vec(self.items, &f)
    }
}

/// A mapped parallel iterator; the closure runs on the worker threads.
#[derive(Debug)]
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync + Send,
{
    type Item = R;

    fn run_with<R2, G>(self, g: G) -> Vec<R2>
    where
        R2: Send,
        G: Fn(R) -> R2 + Sync,
    {
        let f = self.f;
        self.base.run_with(move |x| g(f(x)))
    }
}

/// Stand-in for `rayon::iter::IntoParallelIterator`. Materialises the source
/// eagerly into a vector, then hands chunks to the pool.
pub trait IntoParallelIterator {
    /// The parallel iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type.
    type Item: Send;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<I> IntoParallelIterator for I
where
    I: IntoIterator,
    I::Item: Send,
{
    type Iter = VecParIter<I::Item>;
    type Item = I::Item;

    fn into_par_iter(self) -> Self::Iter {
        VecParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// Stand-in for `rayon::iter::IntoParallelRefIterator` (`.par_iter()` on
/// slices and collections).
pub trait IntoParallelRefIterator<'a> {
    /// The parallel iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type (a shared reference).
    type Item: Send + 'a;

    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoIterator,
    <&'a C as IntoIterator>::Item: Send,
{
    type Iter = VecParIter<<&'a C as IntoIterator>::Item>;
    type Item = <&'a C as IntoIterator>::Item;

    fn par_iter(&'a self) -> Self::Iter {
        VecParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// A thread pool: [`ThreadPool::install`] makes `par_iter()` chains inside
/// the closure fan out over `num_threads` scoped OS threads.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count installed for the duration:
    /// parallel iterators inside `op` use `num_threads` workers. Unlike real
    /// rayon, `op` itself runs on the calling thread (and that thread
    /// participates in the chunk work), which is observationally equivalent
    /// for this workspace. The previous width is restored afterwards, also
    /// when `op` panics.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        with_width(self.num_threads, op)
    }

    /// The configured thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests `num_threads` worker threads. As in real rayon, 0 means
    /// "pick a default" — the machine's available parallelism.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool. Never fails in this shim (threads are spawned scoped,
    /// per parallel call, not up front).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = if self.num_threads == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads })
    }
}

/// Error type kept for signature compatibility; never constructed.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn par_iter_matches_iter() {
        let v = vec![1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let sum: i32 = (0..5).into_par_iter().sum();
        assert_eq!(sum, 10);
    }

    #[test]
    fn pool_installs_thread_count() {
        let pool = pool(4);
        assert_eq!(pool.current_num_threads(), 4);
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn parallel_collect_preserves_order() {
        let pool = pool(8);
        let n = 10_000usize;
        let out: Vec<usize> = pool.install(|| (0..n).into_par_iter().map(|i| i * i).collect());
        let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn work_actually_spreads_over_threads() {
        let pool = pool(4);
        let ids = Mutex::new(HashSet::new());
        pool.install(|| {
            (0..64).into_par_iter().for_each(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                // Block long enough that the caller cannot race through every
                // chunk before the spawned workers are scheduled (matters on
                // single-core machines).
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
        });
        // 4 installed threads and 16 chunks: more than one OS thread must
        // have participated (the caller plus at least one spawned worker).
        assert!(ids.lock().unwrap().len() > 1, "no parallelism observed");
    }

    #[test]
    fn no_install_means_the_implicit_width() {
        assert_eq!(super::current_threads(), super::implicit_threads());
        // An installed width of 1 is serial whatever the environment says.
        let before = std::thread::current().id();
        let ids: Vec<_> = pool(1).install(|| {
            (0..64)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert!(ids.iter().all(|&id| id == before));
    }

    #[test]
    fn install_restores_on_nested_use() {
        let outer = pool(2);
        let inner = pool(6);
        outer.install(|| {
            inner.install(|| {
                assert_eq!(super::current_threads(), 6);
            });
            assert_eq!(super::current_threads(), 2);
        });
        assert_eq!(super::current_threads(), super::implicit_threads());
    }

    #[test]
    fn fanned_out_items_run_at_width_one() {
        let pool = pool(4);
        for n in [2, 3, 64] {
            let widths: Vec<usize> = pool.install(|| {
                (0..n)
                    .into_par_iter()
                    .map(|_| super::current_threads())
                    .collect()
            });
            assert_eq!(widths, vec![1; n], "{n} items");
        }
        // The caller's width is back once the call returns.
        pool.install(|| {
            let _: Vec<usize> = (0..8).into_par_iter().collect();
            assert_eq!(super::current_threads(), 4);
        });
    }

    #[test]
    fn a_single_item_call_passes_its_width_on() {
        let widths: Vec<usize> = pool(4).install(|| {
            vec![()]
                .into_par_iter()
                .map(|_| super::current_threads())
                .collect()
        });
        assert_eq!(widths, vec![4]);
    }

    #[test]
    fn a_panicking_item_restores_the_callers_width() {
        pool(4).install(|| {
            // Every item panics, so the calling thread's own chunk does too.
            let result = std::panic::catch_unwind(|| {
                (0..16usize)
                    .into_par_iter()
                    .map(|_| -> usize { panic!("boom") })
                    .collect::<Vec<usize>>()
            });
            assert!(result.is_err());
            assert_eq!(super::current_threads(), 4);
        });
    }

    #[test]
    fn the_width_variable_parses_to_a_positive_width() {
        for unusable in [None, Some(""), Some("0"), Some("x")] {
            assert_eq!(super::parse_width(unusable), 1, "{unusable:?}");
        }
        assert_eq!(super::parse_width(Some("3")), 3);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let pool = pool(4);
        let empty: Vec<i32> =
            pool.install(|| Vec::<i32>::new().into_par_iter().map(|x| x).collect());
        assert!(empty.is_empty());
        let one: Vec<i32> = pool.install(|| vec![41].into_par_iter().map(|x| x + 1).collect());
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn panics_propagate() {
        let pool = pool(4);
        let result = std::panic::catch_unwind(|| {
            pool.install(|| {
                (0..100usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 57 {
                            panic!("boom");
                        }
                        i
                    })
                    .collect::<Vec<usize>>()
            })
        });
        assert!(result.is_err());
        // The installed thread count must have been restored despite the
        // panic, so subsequent code on this thread runs at the implicit
        // width again.
        assert_eq!(super::current_threads(), super::implicit_threads());
    }
}
