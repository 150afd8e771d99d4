//! Concurrent chunked work bags.
//!
//! The non-deterministic Galois executor pulls tasks from an *unordered* pool
//! (Figure 1a of the paper: "a pool of tasks that can be performed in any
//! order"). The classic Galois worklist is a **chunked bag**: each thread
//! pushes and pops 64-task chunks LIFO for locality, and spills or refills
//! whole chunks through a shared list. Moving work chunk-at-a-time amortizes
//! synchronization to one lock operation per 64 tasks, which matters for the
//! microsecond-scale tasks of irregular applications (§5.1).

use parking_lot::Mutex;

use crate::chaos::ChaosPolicy;
use crate::padded::{CachePadded, PerThread};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const CHUNK_CAPACITY: usize = 64;

#[derive(Debug)]
struct Chunk<T> {
    items: Vec<T>,
}

impl<T> Chunk<T> {
    fn new() -> Self {
        Chunk {
            items: Vec::with_capacity(CHUNK_CAPACITY),
        }
    }
}

#[derive(Debug)]
struct Local<T> {
    /// Chunk currently being filled by pushes.
    push: Chunk<T>,
    /// Chunk currently being drained by pops.
    pop: Chunk<T>,
}

/// An unordered concurrent task pool with per-thread chunk caching.
///
/// Each thread owns a private push chunk and pop chunk; full chunks spill to a
/// shared lock-protected list, and empty threads refill from it. Ordering is
/// deliberately unspecified — this is the pool `P` of the non-deterministic
/// programming model.
///
/// # Example
///
/// ```
/// use galois_runtime::worklist::ChunkedBag;
///
/// let bag: ChunkedBag<u32> = ChunkedBag::new(2);
/// bag.push(0, 10);
/// bag.push(0, 20);
/// let mut seen = vec![bag.pop(1).unwrap(), bag.pop(1).unwrap()];
/// seen.sort();
/// assert_eq!(seen, vec![10, 20]);
/// assert!(bag.pop(0).is_none());
/// ```
pub struct ChunkedBag<T> {
    locals: PerThread<Mutex<Local<T>>>,
    shared: CachePadded<Mutex<Vec<Chunk<T>>>>,
    /// Optional adversarial spill/refill/steal-order perturbation. The bag
    /// is unordered, so no perturbation can break correctness — only expose
    /// schedules the OS never produces.
    chaos: Option<Arc<ChaosPolicy>>,
}

impl<T> std::fmt::Debug for ChunkedBag<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedBag")
            .field("threads", &self.locals.len())
            .finish()
    }
}

impl<T: Send> ChunkedBag<T> {
    /// Creates an empty bag for `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self::with_chaos(threads, None)
    }

    /// Creates an empty bag whose spill position, refill choice and
    /// steal-victim order are perturbed by `chaos` (when `Some`).
    pub fn with_chaos(threads: usize, chaos: Option<Arc<ChaosPolicy>>) -> Self {
        ChunkedBag {
            locals: PerThread::new(threads, |_| {
                Mutex::new(Local {
                    push: Chunk::new(),
                    pop: Chunk::new(),
                })
            }),
            shared: CachePadded::new(Mutex::new(Vec::new())),
            chaos,
        }
    }

    /// Inserts `item` from thread `tid`.
    pub fn push(&self, tid: usize, item: T) {
        let mut local = self.locals.get(tid).lock();
        if local.push.items.len() == CHUNK_CAPACITY {
            let full = std::mem::replace(&mut local.push, Chunk::new());
            let mut shared = self.shared.lock();
            shared.push(full);
            if let Some(c) = &self.chaos {
                // Land the spilled chunk at a drawn position instead of the
                // tail, perturbing which chunk the next refill sees.
                let last = shared.len() - 1;
                shared.swap(c.spill_index(last + 1), last);
            }
        }
        local.push.items.push(item);
    }

    /// Removes some item, preferring thread `tid`'s local chunks.
    ///
    /// Returns `None` only when the bag appeared empty; in a concurrent
    /// setting the caller must combine this with a termination detector
    /// (see [`crate::worklist::Terminator`]).
    pub fn pop(&self, tid: usize) -> Option<T> {
        {
            let mut local = self.locals.get(tid).lock();
            if let Some(item) = local.pop.items.pop() {
                return Some(item);
            }
            if let Some(item) = local.push.items.pop() {
                return Some(item);
            }
            let refilled = {
                let mut shared = self.shared.lock();
                match &self.chaos {
                    // Take a drawn chunk instead of the newest one.
                    Some(c) if !shared.is_empty() => {
                        let k = c.refill_index(shared.len());
                        Some(shared.swap_remove(k))
                    }
                    Some(_) => None,
                    None => shared.pop(),
                }
            };
            if let Some(chunk) = refilled {
                local.pop = chunk;
                return local.pop.items.pop();
            }
        }
        // Steal: scan other threads' chunks.
        let threads = self.locals.len();
        if let Some(c) = &self.chaos {
            for victim in c.steal_order(tid, threads) {
                if let Some(item) = self.steal_from(victim) {
                    return Some(item);
                }
            }
        } else {
            for victim in (tid + 1..threads).chain(0..tid) {
                if let Some(item) = self.steal_from(victim) {
                    return Some(item);
                }
            }
        }
        None
    }

    /// One steal attempt against `victim`'s local chunks (`None` when the
    /// victim is busy or empty).
    fn steal_from(&self, victim: usize) -> Option<T> {
        let mut other = self.locals.get(victim).try_lock()?;
        other.push.items.pop().or_else(|| other.pop.items.pop())
    }
}

/// A roughly-FIFO concurrent task pool.
///
/// Like [`ChunkedBag`] but chunks drain oldest-first, giving breadth-first
/// processing order. Data-driven label-correcting algorithms (bfs, sssp)
/// need this: LIFO order explores deep stale paths first and multiplies the
/// work by orders of magnitude. This mirrors the original Galois system's
/// selectable worklist policies.
pub struct ChunkedFifo<T> {
    locals: PerThread<Mutex<Local<T>>>,
    shared: CachePadded<Mutex<std::collections::VecDeque<Chunk<T>>>>,
    /// Optional adversarial perturbation; the queue is only *roughly* FIFO,
    /// so chaos stretches "roughly" without breaking the pool contract.
    chaos: Option<Arc<ChaosPolicy>>,
}

impl<T> std::fmt::Debug for ChunkedFifo<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedFifo")
            .field("threads", &self.locals.len())
            .finish()
    }
}

impl<T: Send> ChunkedFifo<T> {
    /// Creates an empty queue for `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self::with_chaos(threads, None)
    }

    /// Creates an empty queue whose spill side, refill side and steal-victim
    /// order are perturbed by `chaos` (when `Some`).
    pub fn with_chaos(threads: usize, chaos: Option<Arc<ChaosPolicy>>) -> Self {
        ChunkedFifo {
            locals: PerThread::new(threads, |_| {
                Mutex::new(Local {
                    push: Chunk::new(),
                    pop: Chunk::new(),
                })
            }),
            shared: CachePadded::new(Mutex::new(std::collections::VecDeque::new())),
            chaos,
        }
    }

    /// Inserts `item` from thread `tid`.
    pub fn push(&self, tid: usize, item: T) {
        let mut local = self.locals.get(tid).lock();
        local.push.items.push(item);
        if local.push.items.len() == CHUNK_CAPACITY {
            let full = std::mem::replace(&mut local.push, Chunk::new());
            let mut shared = self.shared.lock();
            // Chaos: spill to the front sometimes, jumping the FIFO line.
            match &self.chaos {
                Some(c) if c.spill_index(2) == 0 => shared.push_front(full),
                _ => shared.push_back(full),
            }
        }
    }

    /// Removes an item in roughly-FIFO order.
    pub fn pop(&self, tid: usize) -> Option<T> {
        let mut local = self.locals.get(tid).lock();
        loop {
            if !local.pop.items.is_empty() {
                // Chunks were filled front-to-back; drain front-to-back by
                // reversing once at refill time (items are stored reversed).
                return local.pop.items.pop();
            }
            let refilled = {
                let mut shared = self.shared.lock();
                // Chaos: refill from the back sometimes, reversing the
                // rough-FIFO drain order for a whole chunk.
                match &self.chaos {
                    Some(c) if c.refill_index(2) == 0 => shared.pop_back(),
                    _ => shared.pop_front(),
                }
            };
            if let Some(mut chunk) = refilled {
                chunk.items.reverse();
                local.pop = chunk;
                continue;
            }
            // Fall back to this thread's partially filled push chunk.
            if !local.push.items.is_empty() {
                let mut chunk = std::mem::replace(&mut local.push, Chunk::new());
                chunk.items.reverse();
                local.pop = chunk;
                continue;
            }
            drop(local);
            // Steal a partially filled chunk from another thread.
            let threads = self.locals.len();
            if let Some(c) = &self.chaos {
                for victim in c.steal_order(tid, threads) {
                    if let Some(item) = self.steal_from(victim) {
                        return Some(item);
                    }
                }
            } else {
                for victim in (tid + 1..threads).chain(0..tid) {
                    if let Some(item) = self.steal_from(victim) {
                        return Some(item);
                    }
                }
            }
            return None;
        }
    }

    /// One steal attempt against `victim`'s local chunks (`None` when the
    /// victim is busy or empty).
    fn steal_from(&self, victim: usize) -> Option<T> {
        let mut other = self.locals.get(victim).try_lock()?;
        if let Some(item) = other.pop.items.pop() {
            return Some(item);
        }
        if !other.push.items.is_empty() {
            return Some(other.push.items.remove(0));
        }
        None
    }
}

/// Termination detection for speculative executors.
///
/// Tracks the number of *uncommitted* tasks: a task is registered when pushed
/// and deregistered only when it commits. Conflicted tasks are re-pushed
/// without deregistering, so the count reaches zero exactly when every task
/// has committed — the termination condition of Figure 1a.
///
/// # Example
///
/// ```
/// use galois_runtime::worklist::Terminator;
/// let t = Terminator::new();
/// t.register(2);
/// t.finish_one();
/// assert!(!t.is_done());
/// t.finish_one();
/// assert!(t.is_done());
/// ```
#[derive(Debug, Default)]
pub struct Terminator {
    pending: AtomicUsize,
}

impl Terminator {
    /// Creates a detector with zero pending tasks.
    pub fn new() -> Self {
        Terminator::default()
    }

    /// Records `n` new pending tasks.
    pub fn register(&self, n: usize) {
        self.pending.fetch_add(n, Ordering::AcqRel);
    }

    /// Records one committed task.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if there was no pending task.
    pub fn finish_one(&self) {
        let prev = self.pending.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "finish_one without matching register");
    }

    /// Whether all registered tasks have committed.
    pub fn is_done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    /// Current number of uncommitted tasks (racy snapshot).
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_on_threads;
    use std::collections::HashSet;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn push_pop_round_trips_all_items() {
        let bag: ChunkedBag<usize> = ChunkedBag::new(1);
        for i in 0..1000 {
            bag.push(0, i);
        }
        let mut seen = HashSet::new();
        while let Some(x) = bag.pop(0) {
            assert!(seen.insert(x), "duplicate item {x}");
        }
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn cross_thread_stealing_finds_items() {
        let bag: ChunkedBag<usize> = ChunkedBag::new(4);
        // All pushed from thread 0, popped from thread 3.
        for i in 0..200 {
            bag.push(0, i);
        }
        let mut n = 0;
        while bag.pop(3).is_some() {
            n += 1;
        }
        assert_eq!(n, 200);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 500;
        let bag: ChunkedBag<usize> = ChunkedBag::new(THREADS);
        let seen = StdMutex::new(HashSet::new());
        run_on_threads(THREADS, |tid| {
            for i in 0..PER_THREAD {
                bag.push(tid, tid * PER_THREAD + i);
            }
            // Everyone also consumes.
            while let Some(x) = bag.pop(tid) {
                assert!(seen.lock().unwrap().insert(x));
            }
        });
        // Drain any remainder left by racy pops returning None early.
        while let Some(x) = bag.pop(0) {
            assert!(seen.lock().unwrap().insert(x));
        }
        assert_eq!(seen.lock().unwrap().len(), THREADS * PER_THREAD);
    }

    #[test]
    fn fifo_preserves_rough_order_single_thread() {
        let q: ChunkedFifo<usize> = ChunkedFifo::new(1);
        for i in 0..300 {
            q.push(0, i);
        }
        let mut out = Vec::new();
        while let Some(x) = q.pop(0) {
            out.push(x);
        }
        assert_eq!(out.len(), 300);
        // Exactly FIFO for a single producer/consumer.
        assert_eq!(out, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_concurrent_loses_nothing() {
        const THREADS: usize = 4;
        let q: ChunkedFifo<usize> = ChunkedFifo::new(THREADS);
        let seen = StdMutex::new(HashSet::new());
        run_on_threads(THREADS, |tid| {
            for i in 0..500 {
                q.push(tid, tid * 500 + i);
            }
            while let Some(x) = q.pop(tid) {
                assert!(seen.lock().unwrap().insert(x));
            }
        });
        while let Some(x) = q.pop(0) {
            assert!(seen.lock().unwrap().insert(x));
        }
        assert_eq!(seen.lock().unwrap().len(), THREADS * 500);
    }

    #[test]
    fn chaos_bag_loses_nothing() {
        const THREADS: usize = 4;
        let chaos = Arc::new(ChaosPolicy::new(2024));
        let bag: ChunkedBag<usize> = ChunkedBag::with_chaos(THREADS, Some(chaos));
        let seen = StdMutex::new(HashSet::new());
        run_on_threads(THREADS, |tid| {
            for i in 0..500 {
                bag.push(tid, tid * 500 + i);
            }
            while let Some(x) = bag.pop(tid) {
                assert!(seen.lock().unwrap().insert(x));
            }
        });
        while let Some(x) = bag.pop(0) {
            assert!(seen.lock().unwrap().insert(x));
        }
        assert_eq!(seen.lock().unwrap().len(), THREADS * 500);
    }

    #[test]
    fn chaos_fifo_loses_nothing() {
        const THREADS: usize = 4;
        let chaos = Arc::new(ChaosPolicy::new(31));
        let q: ChunkedFifo<usize> = ChunkedFifo::with_chaos(THREADS, Some(chaos));
        let seen = StdMutex::new(HashSet::new());
        run_on_threads(THREADS, |tid| {
            for i in 0..500 {
                q.push(tid, tid * 500 + i);
            }
            while let Some(x) = q.pop(tid) {
                assert!(seen.lock().unwrap().insert(x));
            }
        });
        while let Some(x) = q.pop(0) {
            assert!(seen.lock().unwrap().insert(x));
        }
        assert_eq!(seen.lock().unwrap().len(), THREADS * 500);
    }

    #[test]
    fn terminator_lifecycle() {
        let t = Terminator::new();
        assert!(t.is_done());
        t.register(3);
        assert_eq!(t.pending(), 3);
        t.finish_one();
        t.finish_one();
        assert!(!t.is_done());
        t.finish_one();
        assert!(t.is_done());
    }
}
