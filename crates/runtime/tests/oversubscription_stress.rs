//! Stress tests under heavy oversubscription — the configuration this
//! reproduction actually runs in (many threads, one core), where lost
//! wakeups and missed barrier phases would surface quickly.

use galois_runtime::pool::run_on_threads;
use galois_runtime::worklist::{ChunkedBag, ChunkedFifo, Terminator};
use galois_runtime::SenseBarrier;
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn barrier_survives_16x_oversubscription() {
    const THREADS: usize = 16;
    const PHASES: u64 = 300;
    let barrier = SenseBarrier::new(THREADS);
    let counter = AtomicU64::new(0);
    run_on_threads(THREADS, |_| {
        for phase in 1..=PHASES {
            counter.fetch_add(1, Ordering::Relaxed);
            barrier.wait();
            assert_eq!(counter.load(Ordering::Relaxed), phase * THREADS as u64);
            barrier.wait();
        }
    });
}

#[test]
fn producer_consumer_pipeline_through_bags() {
    // Half the threads produce into a LIFO bag; all drain into a FIFO queue;
    // totals conserved under a termination detector.
    const THREADS: usize = 8;
    const ITEMS: u64 = 20_000;
    let stage1: ChunkedBag<u64> = ChunkedBag::new(THREADS);
    let stage2: ChunkedFifo<u64> = ChunkedFifo::new(THREADS);
    let term = Terminator::new();
    term.register(ITEMS as usize);
    let drained = AtomicU64::new(0);
    run_on_threads(THREADS, |tid| {
        if tid < THREADS / 2 {
            let per = ITEMS / (THREADS / 2) as u64;
            for i in 0..per {
                stage1.push(tid, tid as u64 * per + i);
            }
        }
        loop {
            match stage1.pop(tid) {
                Some(x) => {
                    stage2.push(tid, x * 2);
                    term.finish_one();
                }
                None => {
                    if term.is_done() {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
    });
    run_on_threads(THREADS, |tid| {
        while let Some(x) = stage2.pop(tid) {
            assert_eq!(x % 2, 0);
            drained.fetch_add(1, Ordering::Relaxed);
        }
    });
    // Sweep leftovers single-threaded (racy pops may give up early).
    while stage2.pop(0).is_some() {
        drained.fetch_add(1, Ordering::Relaxed);
    }
    assert_eq!(drained.load(Ordering::Relaxed), ITEMS);
}
