//! Task identity and deterministic id assignment.
//!
//! Deterministic scheduling requires a total order on task ids (§2.1). Ids
//! are assigned per *pass* (one drain of the `todo` set, Figure 2):
//!
//! - Initial tasks receive ids in iteration order of the input collection.
//! - A task created by task `t` as its `k`-th child carries the pair
//!   `(id(t), k)`. At the pass boundary all created tasks are sorted
//!   lexicographically by that pair and renumbered by position (§3.2).
//! - Alternatively, applications whose tasks are drawn from a fixed set can
//!   pre-assign ids (§3.3, third optimization), skipping the sort.
//!
//! Mark values are `id + 1`, so [`crate::marks::UNOWNED`] (0) stays below
//! every task.

use galois_runtime::sort::parallel_sort_by_key;

/// A pass-local task id: the task's rank in the pass's deterministic order.
pub type TaskId = u64;

/// A schedulable task: payload plus pass-local id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkItem<T> {
    /// Application payload.
    pub task: T,
    /// Pass-local id (dense: `0..pass_size` for sorted passes, or the
    /// pre-assigned id for fixed-task-set applications).
    pub id: TaskId,
}

/// A newly created task awaiting id assignment: payload plus `(parent, rank)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingItem<T> {
    /// Application payload.
    pub task: T,
    /// Id of the creating task.
    pub parent: TaskId,
    /// Birth rank: this was the parent's `rank`-th push.
    pub rank: u32,
}

/// Sorts created tasks by `(parent, rank)` and renumbers them `0..n`.
///
/// The input order may be arbitrary as long as the multiset of
/// `(parent, rank)` pairs is deterministic; the output order (and therefore
/// the new ids) depends only on those pairs, because `(parent, rank)` pairs
/// are unique: a parent numbers its pushes consecutively.
pub fn assign_ids<T: Send>(pending: Vec<PendingItem<T>>, threads: usize) -> Vec<WorkItem<T>> {
    let mut pending = pending;
    parallel_sort_by_key(&mut pending, threads, |p| (p.parent, p.rank));
    pending
        .into_iter()
        .enumerate()
        .map(|(pos, p)| WorkItem {
            task: p.task,
            id: pos as TaskId,
        })
        .collect()
}

/// Applies the locality-spreading permutation (§3.3, second optimization).
///
/// Tasks adjacent in iteration order tend to have overlapping neighborhoods;
/// executing them in the same round guarantees conflicts. Dealing the
/// sequence into `stride` buckets round-robin and concatenating the buckets
/// places originally-adjacent tasks `len/stride` apart — in different rounds
/// for typical window sizes — while remaining a fixed deterministic
/// permutation (ids are unchanged; only the schedule-order view permutes).
///
/// `stride <= 1` or `stride >= len` returns the input unchanged.
///
/// # Example
///
/// ```
/// let v = vec![0, 1, 2, 3, 4, 5, 6];
/// assert_eq!(
///     galois_core::task::spread_for_locality(v, 3),
///     vec![0, 3, 6, 1, 4, 2, 5],
/// );
/// ```
pub fn spread_for_locality<T>(items: Vec<T>, stride: usize) -> Vec<T> {
    if stride <= 1 || items.len() <= 2 {
        return items;
    }
    let n = items.len();
    // Every bucket past the n-th would stay empty: a stride from an
    // untrusted manifest must not size an allocation.
    let stride = stride.min(n);
    let mut buckets: Vec<Vec<T>> = (0..stride)
        .map(|_| Vec::with_capacity(n / stride + 1))
        .collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % stride].push(item);
    }
    let mut out = Vec::with_capacity(n);
    for b in buckets {
        out.extend(b);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_ids_orders_lexicographically() {
        let pending = vec![
            PendingItem {
                task: 'c',
                parent: 1,
                rank: 1,
            },
            PendingItem {
                task: 'a',
                parent: 0,
                rank: 0,
            },
            PendingItem {
                task: 'd',
                parent: 2,
                rank: 0,
            },
            PendingItem {
                task: 'b',
                parent: 0,
                rank: 1,
            },
        ];
        let items = assign_ids(pending, 2);
        let order: Vec<char> = items.iter().map(|w| w.task).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
        let ids: Vec<u64> = items.iter().map(|w| w.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn assign_ids_independent_of_input_order() {
        let mk = |perm: &[usize]| {
            let base = [
                PendingItem {
                    task: 10,
                    parent: 5,
                    rank: 0,
                },
                PendingItem {
                    task: 20,
                    parent: 3,
                    rank: 2,
                },
                PendingItem {
                    task: 30,
                    parent: 3,
                    rank: 0,
                },
                PendingItem {
                    task: 40,
                    parent: 9,
                    rank: 1,
                },
            ];
            let v: Vec<_> = perm.iter().map(|&i| base[i].clone()).collect();
            assign_ids(v, 1)
        };
        let a = mk(&[0, 1, 2, 3]);
        let b = mk(&[3, 2, 1, 0]);
        let c = mk(&[2, 0, 3, 1]);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn spread_identity_for_small_strides() {
        let v = vec![1, 2, 3];
        assert_eq!(spread_for_locality(v.clone(), 0), v);
        assert_eq!(spread_for_locality(v.clone(), 1), v);
    }

    #[test]
    fn spread_identity_for_strides_past_the_length() {
        // A stride from a hostile manifest must neither allocate per bucket
        // nor move anything.
        let v: Vec<usize> = (0..100).collect();
        assert_eq!(spread_for_locality(v.clone(), 100), v);
        assert_eq!(spread_for_locality(v.clone(), usize::MAX), v);
    }

    #[test]
    fn spread_is_a_permutation() {
        let v: Vec<usize> = (0..100).collect();
        for stride in [2, 3, 7, 16, 99, 100, 1000] {
            let mut s = spread_for_locality(v.clone(), stride);
            s.sort_unstable();
            assert_eq!(s, v, "stride {stride} lost elements");
        }
    }

    #[test]
    fn spread_separates_neighbors() {
        let v: Vec<usize> = (0..64).collect();
        let s = spread_for_locality(v, 8);
        let pos_of = |x: usize| s.iter().position(|&y| y == x).unwrap();
        // Originally adjacent tasks end up at least len/stride - 1 apart.
        for i in 0..63 {
            let d = pos_of(i).abs_diff(pos_of(i + 1));
            assert!(d >= 7, "tasks {i},{} only {d} apart", i + 1);
        }
    }
}
