//! Task identity and deterministic id assignment.
//!
//! Deterministic scheduling requires a total order on task ids (§2.1). Ids
//! are assigned per *pass* (one drain of the `todo` set, Figure 2):
//!
//! - Initial tasks receive ids in iteration order of the input collection.
//! - A task created by task `t` as its `k`-th child is keyed by the pair
//!   `(id(t), k)`. At the pass boundary created tasks are numbered by the
//!   lexicographic order of those pairs (§3.2) — [`place_children`] does it
//!   with a counting pass over the parents instead of a sort.
//! - Alternatively, applications whose tasks are drawn from a fixed set can
//!   pre-assign ids (§3.3, third optimization).
//!
//! Mark values are `id + 1`, so [`crate::marks::UNOWNED`] (0) stays below
//! every task.

/// A pass-local task id: the task's rank in the pass's deterministic order.
pub type TaskId = u64;

/// A schedulable task: payload plus pass-local id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkItem<T> {
    /// Application payload.
    pub task: T,
    /// Pass-local id (dense: `0..pass_size` for created passes, or the
    /// pre-assigned id for fixed-task-set applications).
    pub id: TaskId,
}

/// Numbers one pass's created tasks by `(parent, rank)` and lays them out in
/// [`spread_for_locality`] order, in O(children + max parent) with no sort.
///
/// `births` lists one `(parent, count)` per task that created children, in
/// any order; `children` yields those children grouped the same way, each
/// group in push order. Parents must be distinct, as they are within a pass.
/// Child `k` of parent `p` gets id `first[p] + k`, where `first` is the
/// exclusive prefix sum of the counts in parent order — exactly its rank
/// in a stable sort by `(parent, rank)` — and lands at that id's position
/// under the spread permutation.
///
/// `pending` is cleared and refilled with `Some` at every position, and
/// `first` is scratch; both keep their capacity, so a pass boundary
/// allocates nothing once they have reached their high water.
///
/// # Example
///
/// ```
/// use galois_core::task::{place_children, WorkItem};
///
/// // Parent 4 pushed 'c', parent 1 pushed 'a' then 'b'.
/// let births = [(4, 1), (1, 2)];
/// let (mut first, mut pending) = (Vec::new(), Vec::new());
/// place_children(&births, ['c', 'a', 'b'], 1, &mut first, &mut pending);
/// let order: Vec<(char, u64)> = pending.into_iter().map(|w| {
///     let w: WorkItem<char> = w.unwrap();
///     (w.task, w.id)
/// }).collect();
/// assert_eq!(order, [('a', 0), ('b', 1), ('c', 2)]);
/// ```
pub fn place_children<T>(
    births: &[(TaskId, usize)],
    children: impl IntoIterator<Item = T>,
    stride: usize,
    first: &mut Vec<usize>,
    pending: &mut Vec<Option<WorkItem<T>>>,
) {
    let parents = births
        .iter()
        .map(|&(p, _)| p as usize + 1)
        .max()
        .unwrap_or(0);
    first.clear();
    first.resize(parents, 0);
    for &(p, count) in births {
        debug_assert_eq!(first[p as usize], 0, "parent {p} has two birth records");
        first[p as usize] = count;
    }
    let mut n = 0;
    for f in first.iter_mut() {
        let count = *f;
        *f = n;
        n += count;
    }
    pending.clear();
    pending.resize_with(n, || None);
    let place = Spread::new(stride, n);
    let mut children = children.into_iter();
    for &(p, count) in births {
        let base = first[p as usize];
        for id in base..base + count {
            let task = children.next().expect("a birth count exceeds the children");
            pending[place.position(id)] = Some(WorkItem {
                task,
                id: id as TaskId,
            });
        }
    }
    debug_assert!(children.next().is_none(), "children outnumber the births");
}

/// The position map of [`spread_for_locality`]: element `i` of `n`, dealt
/// round-robin into `s` buckets, lands at `b·q + min(b, r) + i/s` with
/// `b = i % s`, `q = n / s` and `r = n % s` (the first `r` buckets hold one
/// extra element).
struct Spread {
    s: usize,
    q: usize,
    r: usize,
}

impl Spread {
    fn new(stride: usize, n: usize) -> Self {
        // The identity cases of `spread_for_locality`; `s == n` is one too.
        let s = if stride <= 1 || n <= 2 {
            1
        } else {
            stride.min(n)
        };
        Spread {
            s,
            q: n / s,
            r: n % s,
        }
    }

    #[inline]
    fn position(&self, i: usize) -> usize {
        if self.s == 1 {
            return i; // the default: no spreading, and no divisions
        }
        let b = i % self.s;
        b * self.q + b.min(self.r) + i / self.s
    }
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
    fn placement_numbers_by_parent_then_rank_and_spreads() {
        // Births arrive out of parent order; parent 2 created nothing.
        let births = [(3, 1), (0, 2), (1, 1)];
        let (mut first, mut pending) = (Vec::new(), Vec::new());
        place_children(&births, ['d', 'a', 'b', 'c'], 2, &mut first, &mut pending);
        let placed: Vec<(char, u64)> = pending
            .into_iter()
            .map(|w| w.map(|w| (w.task, w.id)).expect("every position filled"))
            .collect();
        // Ids a0 b1 c2 d3, then dealt into two buckets: 0 2 | 1 3.
        assert_eq!(placed, [('a', 0), ('c', 2), ('b', 1), ('d', 3)]);
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
