//! Seeded schedule-chaos injection.
//!
//! The paper's portability claim is that the deterministic schedule is a pure
//! function of committed-task history — *nothing* the machine does to the
//! thread interleaving may leak into the output. CI only ever exercises the
//! interleavings the OS happens to produce, so this module manufactures
//! adversarial ones on demand: a [`ChaosPolicy`], driven by a single `u64`
//! seed, perturbs every scheduling degree of freedom the paper says must not
//! matter:
//!
//! - **steal-victim order** and **chunk spill/refill order** in the work bags
//!   ([`crate::worklist`]),
//! - **barrier arrival order** via injected spin delays
//!   ([`crate::barrier`]),
//! - **per-thread start skew** in the pool ([`crate::pool`]),
//! - **forced spurious aborts** at the operator failsafe point (wired up by
//!   the executors in `galois-core`), exercising the abort/retry paths far
//!   harder than real conflicts do.
//!
//! The invariance contract: under the deterministic scheduler, *no* chaos
//! seed may change the output, the canonical round log, or any
//! schedule-derived statistic (committed / aborted / rounds). Under the
//! speculative scheduler, chaos may change the output freely — it must still
//! validate against the serial oracle. The cost when no policy is installed
//! is one branch on an `Option`, the same zero-cost-when-off pattern as the
//! probe layer.
//!
//! Two kinds of draws coexist:
//!
//! - **Ticketed** draws ([`ChaosPolicy::draw`]) consume an atomic ticket, so
//!   consecutive decisions differ — good for timing jitter and ordering
//!   perturbations where variety is the point.
//! - **Pure** draws ([`ChaosPolicy::inject_spec_abort`],
//!   [`ChaosPolicy::inject_det_abort`]) hash only the seed and the caller's
//!   key. Spec injection keys on the per-attempt mark value, so a re-pushed
//!   task draws fresh on retry and termination holds almost surely; det
//!   injection keys on the task id, so a given (seed, task) injects at most
//!   once per commit attempt and the retry runs clean.

use std::sync::atomic::{AtomicU64, Ordering};

/// Domain-separation salts for the different perturbation sites.
const SALT_SKEW: u64 = 0x5157_4553;
const SALT_BARRIER: u64 = 0x4241_5252;
const SALT_STEAL: u64 = 0x5354_4541;
const SALT_SPILL: u64 = 0x5350_494c;
const SALT_REFILL: u64 = 0x5245_4649;
const SALT_SPEC_ABORT: u64 = 0x5350_4543;
const SALT_DET_ABORT: u64 = 0x4445_5421;
const SALT_SPEC_PANIC: u64 = 0x5350_5043;
const SALT_DET_PANIC: u64 = 0x4445_5043;

/// Upper bound on any injected spin delay, so chaos slows runs by bounded
/// constant factors instead of hanging them.
const MAX_SPINS: u32 = 4096;

/// Fraction (1 in `ABORT_PERIOD`) of eligible failsafe crossings that are
/// forced to abort.
const ABORT_PERIOD: u64 = 4;

/// Fraction (1 in `PANIC_PERIOD`) of eligible failsafe crossings that are
/// forced to *panic* when panic injection is enabled. Much sparser than
/// abort injection: every drawn panic quarantines a task for the rest of
/// the run (there is no retry), so a dense draw would gut the schedule.
const PANIC_PERIOD: u64 = 64;

/// A seeded source of adversarial scheduling decisions.
///
/// Cheap to share behind an [`std::sync::Arc`]; all methods take `&self`.
/// Two policies compare equal iff their seeds do (the ticket is transient
/// state, not identity).
///
/// # Example
///
/// ```
/// use galois_runtime::chaos::ChaosPolicy;
/// let c = ChaosPolicy::new(42);
/// assert_eq!(c.seed(), 42);
/// // Pure draws are reproducible...
/// assert_eq!(c.inject_det_abort(7), ChaosPolicy::new(42).inject_det_abort(7));
/// // ...ticketed draws advance.
/// let a = c.draw(1);
/// let b = c.draw(1);
/// assert_ne!(a, b);
/// ```
#[derive(Debug)]
pub struct ChaosPolicy {
    seed: u64,
    ticket: AtomicU64,
    /// Whether the panic-injection draws are live (see
    /// [`ChaosPolicy::with_panics`]). Off by default: injected panics
    /// quarantine tasks, which changes the output, so only harnesses that
    /// check *fault-report* invariance (not output invariance) enable them.
    panics: bool,
}

impl PartialEq for ChaosPolicy {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
    }
}

impl Eq for ChaosPolicy {}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosPolicy {
    /// Creates a policy from a seed. Equal seeds ⇒ equal pure draws.
    pub fn new(seed: u64) -> Self {
        ChaosPolicy {
            seed,
            ticket: AtomicU64::new(0),
            panics: false,
        }
    }

    /// Creates a policy whose panic-injection draws are live: roughly one in
    /// `PANIC_PERIOD` eligible failsafe crossings panics instead of
    /// continuing, exercising the fault-containment layer. The scheduling
    /// perturbations and abort draws are identical to [`ChaosPolicy::new`]
    /// with the same seed.
    pub fn with_panics(seed: u64) -> Self {
        ChaosPolicy {
            seed,
            ticket: AtomicU64::new(0),
            panics: true,
        }
    }

    /// The driving seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether panic-injection draws are live.
    pub fn panics_enabled(&self) -> bool {
        self.panics
    }

    /// Pure hash of `(seed, salt, key)`: reproducible across runs.
    fn pure(&self, salt: u64, key: u64) -> u64 {
        mix(self.seed ^ mix(salt ^ mix(key)))
    }

    /// Ticketed draw: consecutive calls with the same salt yield different
    /// values. Reproducible only up to ticket interleaving, which is fine —
    /// ticketed draws feed perturbations whose whole point is that the
    /// deterministic schedule must not see them.
    pub fn draw(&self, salt: u64) -> u64 {
        let t = self.ticket.fetch_add(1, Ordering::Relaxed);
        self.pure(salt, t)
    }

    /// Spin-delay budget injected before thread `tid` starts a parallel
    /// section, staggering worker start order.
    pub fn start_skew_spins(&self, tid: usize) -> u32 {
        (self.draw(SALT_SKEW ^ tid as u64) % MAX_SPINS as u64) as u32
    }

    /// Spin-delay budget injected before a barrier arrival, perturbing which
    /// thread arrives last (and therefore leads the next phase).
    pub fn barrier_jitter_spins(&self) -> u32 {
        (self.draw(SALT_BARRIER) % (MAX_SPINS as u64 / 4)) as u32
    }

    /// A perturbed victim order for work stealing: the canonical rotation
    /// `(tid+1..threads, 0..tid)` rotated by a drawn offset and possibly
    /// reversed. Always a permutation of the other threads, so stealing
    /// still finds any available work.
    pub fn steal_order(&self, tid: usize, threads: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (tid + 1..threads).chain(0..tid).collect();
        if order.len() > 1 {
            let d = self.draw(SALT_STEAL);
            let by = (d % order.len() as u64) as usize;
            order.rotate_left(by);
            if d & (1 << 40) != 0 {
                order.reverse();
            }
        }
        order
    }

    /// Position at which a spilled chunk lands in a shared list of `len`
    /// entries (instead of always at the tail).
    pub fn spill_index(&self, len: usize) -> usize {
        debug_assert!(len > 0);
        (self.draw(SALT_SPILL) % len as u64) as usize
    }

    /// Which of `len` shared chunks a refill takes (instead of always the
    /// canonical end).
    pub fn refill_index(&self, len: usize) -> usize {
        debug_assert!(len > 0);
        (self.draw(SALT_REFILL) % len as u64) as usize
    }

    /// Whether the speculative attempt identified by `mark_value` is forced
    /// to abort at its failsafe point. Pure in `(seed, mark_value)`; mark
    /// values are per-attempt unique, so a re-pushed task draws fresh and
    /// the retry chain terminates almost surely.
    pub fn inject_spec_abort(&self, mark_value: u64) -> bool {
        self.pure(SALT_SPEC_ABORT, mark_value)
            .is_multiple_of(ABORT_PERIOD)
    }

    /// Whether the deterministic commit of task `task_id` is forced to abort
    /// once at its failsafe point (the executor retries it in place, which
    /// is schedule-invisible). Pure in `(seed, task_id)`.
    pub fn inject_det_abort(&self, task_id: u64) -> bool {
        self.pure(SALT_DET_ABORT, task_id)
            .is_multiple_of(ABORT_PERIOD)
    }

    /// Whether the speculative attempt identified by `mark_value` is forced
    /// to *panic* at its failsafe point. Always false unless the policy was
    /// built with [`ChaosPolicy::with_panics`]. Pure in `(seed, mark_value)`
    /// like [`inject_spec_abort`](Self::inject_spec_abort) — but a panicked
    /// task is quarantined, never retried, so the draw fires at most once
    /// per attempt chain.
    pub fn inject_spec_panic(&self, mark_value: u64) -> bool {
        self.panics
            && self
                .pure(SALT_SPEC_PANIC, mark_value)
                .is_multiple_of(PANIC_PERIOD)
    }

    /// Whether the deterministic commit of task `task_id` is forced to
    /// *panic* at its failsafe point. Always false unless the policy was
    /// built with [`ChaosPolicy::with_panics`]. Pure in `(seed, task_id)`,
    /// so the set of faulted tasks — and therefore the canonical fault
    /// report — is a function of the seed alone, independent of thread
    /// count.
    pub fn inject_det_panic(&self, task_id: u64) -> bool {
        self.panics
            && self
                .pure(SALT_DET_PANIC, task_id)
                .is_multiple_of(PANIC_PERIOD)
    }

    /// Burns roughly `n` spin iterations (capped at the module bound).
    pub fn spin(n: u32) {
        for _ in 0..n.min(MAX_SPINS) {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_draws_reproduce_across_instances() {
        let a = ChaosPolicy::new(7);
        let b = ChaosPolicy::new(7);
        for id in 0..200u64 {
            assert_eq!(a.inject_det_abort(id), b.inject_det_abort(id));
            assert_eq!(a.inject_spec_abort(id), b.inject_spec_abort(id));
        }
    }

    #[test]
    fn seeds_change_pure_draws() {
        let a = ChaosPolicy::new(1);
        let b = ChaosPolicy::new(2);
        let differs = (0..256u64).any(|id| a.inject_det_abort(id) != b.inject_det_abort(id));
        assert!(differs, "different seeds must inject differently");
    }

    #[test]
    fn inject_rate_is_roughly_one_in_period() {
        let c = ChaosPolicy::new(99);
        let hits = (0..10_000u64).filter(|&id| c.inject_spec_abort(id)).count();
        // 1/4 nominal; allow generous slack.
        assert!((1_500..3_500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn panic_draws_are_dead_unless_opted_in() {
        let plain = ChaosPolicy::new(7);
        assert!(!plain.panics_enabled());
        assert!((0..100_000u64).all(|id| !plain.inject_det_panic(id)));
        assert!((0..100_000u64).all(|id| !plain.inject_spec_panic(id)));
    }

    #[test]
    fn panic_draws_reproduce_and_are_sparse() {
        let a = ChaosPolicy::with_panics(7);
        let b = ChaosPolicy::with_panics(7);
        assert!(a.panics_enabled());
        for id in 0..500u64 {
            assert_eq!(a.inject_det_panic(id), b.inject_det_panic(id));
            assert_eq!(a.inject_spec_panic(id), b.inject_spec_panic(id));
        }
        let hits = (0..100_000u64).filter(|&id| a.inject_det_panic(id)).count();
        // 1/64 nominal; allow generous slack.
        assert!((800..2_500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn panic_opt_in_leaves_other_draws_unchanged() {
        let plain = ChaosPolicy::new(42);
        let faulty = ChaosPolicy::with_panics(42);
        for id in 0..500u64 {
            assert_eq!(plain.inject_det_abort(id), faulty.inject_det_abort(id));
            assert_eq!(plain.inject_spec_abort(id), faulty.inject_spec_abort(id));
        }
        assert_eq!(plain, faulty, "equality stays by seed");
    }

    #[test]
    fn ticketed_draws_advance() {
        let c = ChaosPolicy::new(3);
        let xs: Vec<u64> = (0..8).map(|_| c.draw(0)).collect();
        let mut uniq = xs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), xs.len(), "consecutive draws should differ");
    }

    #[test]
    fn steal_order_is_a_permutation_of_other_threads() {
        let c = ChaosPolicy::new(11);
        for threads in 1..=8usize {
            for tid in 0..threads {
                for _ in 0..10 {
                    let mut order = c.steal_order(tid, threads);
                    assert!(!order.contains(&tid));
                    order.sort_unstable();
                    let expected: Vec<usize> = (0..threads).filter(|&v| v != tid).collect();
                    assert_eq!(order, expected);
                }
            }
        }
    }

    #[test]
    fn indices_stay_in_bounds() {
        let c = ChaosPolicy::new(5);
        for len in 1..=64usize {
            assert!(c.spill_index(len) < len);
            assert!(c.refill_index(len) < len);
        }
    }

    #[test]
    fn equality_is_by_seed() {
        let a = ChaosPolicy::new(4);
        let b = ChaosPolicy::new(4);
        let _ = a.draw(0); // tickets differ
        assert_eq!(a, b);
        assert_ne!(a, ChaosPolicy::new(5));
    }

    #[test]
    fn spin_terminates() {
        ChaosPolicy::spin(u32::MAX); // capped internally
    }
}
