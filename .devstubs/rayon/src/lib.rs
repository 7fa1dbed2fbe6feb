//! Offline stand-in for `rayon`: the one adapter chain this workspace
//! uses, `slice.par_iter().map(f).collect()`, as a real parallel map on
//! scoped threads.
//!
//! Each `collect` spawns its workers under `std::thread::scope` and joins
//! them before returning, so there is no global pool, no shutdown path
//! and no setting. The caller's thread works too. Threads claim item
//! indices from one shared counter, so a slow item does not hold up a
//! fixed share of the rest. Results come back in input order whichever
//! thread computed them, so callers that reduce the results reduce them
//! in input order, exactly as a sequential map would.
//!
//! The thread count is `std::thread::available_parallelism()` (which
//! honours CPU affinity and cgroup quotas), read once per process and
//! capped at the number of items. With one thread or one item no worker
//! is spawned and the caller runs the whole map. A panic in `f` is
//! re-raised on the caller with its original payload.

use std::num::NonZeroUsize;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// `.par_iter()` on slices (and `Vec` via auto-deref).
pub trait ParIterExt {
    type Item: Sync;
    fn par_iter(&self) -> ParIter<'_, Self::Item>;
}

impl<T: Sync> ParIterExt for [T] {
    type Item = T;
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// A slice waiting for its per-item closure.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Apply `f` to every item; the work runs in [`ParMap::collect`].
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A pending parallel map over a slice.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Run the map on up to one thread per available CPU and collect the
    /// results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        par_map(self.items, &self.f).into_iter().collect()
    }
}

/// Threads a map may use: the process's available parallelism, read once.
fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

fn par_map<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    // With one thread or one item no worker is spawned: the caller's
    // `work()` below runs the whole map.
    let n_threads = threads().min(items.len());
    // The counter publishes no data (items are read-only and each result
    // travels back through its thread's join), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let parts = std::thread::scope(|s| {
        let workers: Vec<_> = (1..n_threads).map(|_| s.spawn(work)).collect();
        // If the caller's own share panics, `scope` joins the workers and
        // re-raises that panic.
        let mut parts = vec![work()];
        for worker in workers {
            match worker.join() {
                Ok(part) => parts.push(part),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        parts
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

pub mod prelude {
    pub use crate::ParIterExt;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::threads;
    use std::collections::HashSet;
    use std::panic;
    use std::sync::{Barrier, Mutex};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// Items 0 and 1 meet at a barrier, so the thread that claimed one of
    /// them cannot claim the other: with two or more threads they run on
    /// different threads, concurrently. Returns `None` with one thread,
    /// where the barrier would never open.
    fn meeting_point() -> Option<Barrier> {
        (threads() > 1).then(|| Barrier::new(2))
    }

    #[test]
    fn order_is_preserved_under_uneven_work() {
        let items: Vec<u64> = (0..257).collect();
        let meet = meeting_point();
        let seen = Mutex::new(HashSet::<ThreadId>::new());
        let out: Vec<u64> = items
            .par_iter()
            .map(|&x| {
                if x < 2 {
                    if let Some(b) = &meet {
                        b.wait();
                    }
                }
                // Every 64th item is slow, so later items finish first.
                if x % 64 == 0 {
                    thread::sleep(Duration::from_millis(5));
                }
                seen.lock()
                    .expect("no test closure panics")
                    .insert(thread::current().id());
                x * x
            })
            .collect();
        let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, want);
        let used = seen.into_inner().expect("no test closure panics").len();
        assert_eq!(used > 1, threads() > 1, "{used} threads for {}", threads());
    }

    #[test]
    fn empty_one_and_more_items_than_threads() {
        let empty: [u32; 0] = [];
        assert!(empty
            .par_iter()
            .map(|&x| x)
            .collect::<Vec<u32>>()
            .is_empty());

        let caller = thread::current().id();
        let one: Vec<bool> = [7u32]
            .par_iter()
            .map(|_| thread::current().id() == caller)
            .collect();
        assert_eq!(one, [true], "a single item runs on the caller");

        let many: Vec<usize> = (0..threads() * 8 + 3).collect();
        let out: Vec<String> = many.par_iter().map(usize::to_string).collect();
        assert_eq!(out, many.iter().map(usize::to_string).collect::<Vec<_>>());
    }

    fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    }

    #[test]
    fn a_panicking_item_reraises_on_the_caller() {
        let items: Vec<u32> = (0..100).collect();
        let got = panic::catch_unwind(|| {
            items
                .par_iter()
                .map(|&x| {
                    assert!(x != 37, "item {x} failed");
                    x
                })
                .collect::<Vec<u32>>()
        });
        let payload = got.expect_err("the panic must reach the caller");
        assert_eq!(payload_text(&*payload), "item 37 failed");
    }

    #[test]
    fn a_worker_panic_reraises_with_its_payload() {
        let Some(meet) = meeting_point() else {
            return; // one thread: no worker exists to panic
        };
        let caller = thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        let got = panic::catch_unwind(|| {
            items
                .par_iter()
                .map(|&x| {
                    if x < 2 {
                        meet.wait();
                        // One of items 0 and 1 is on a worker thread.
                        if thread::current().id() != caller {
                            panic!("worker failed on item {x}");
                        }
                    }
                    x
                })
                .collect::<Vec<u32>>()
        });
        let payload = got.expect_err("the worker's panic must reach the caller");
        let text = payload_text(&*payload);
        assert!(text.starts_with("worker failed on item "), "{text}");
    }
}
