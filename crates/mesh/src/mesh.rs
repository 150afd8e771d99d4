//! The triangle/vertex arena.

use galois_geometry::Point;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicUsize, Ordering};

/// Sentinel for "no triangle" / "no neighbor" (hull edges).
pub const INVALID: u32 = u32::MAX;

/// A snapshot of one triangle.
///
/// `v` lists the vertices in counter-clockwise order; edge `i` runs
/// `v[i] → v[(i+1) % 3]`, and `n[i]` is the triangle across edge `i`
/// ([`INVALID`] on the mesh boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriData {
    /// Vertex ids (CCW).
    pub v: [u32; 3],
    /// Neighbor triangle ids, `n[i]` across edge `i`.
    pub n: [u32; 3],
}

struct TriSlot {
    v: [AtomicU32; 3],
    n: [AtomicU32; 3],
    alive: AtomicU32,
}

impl TriSlot {
    fn empty() -> Self {
        TriSlot {
            v: [const { AtomicU32::new(INVALID) }; 3],
            n: [const { AtomicU32::new(INVALID) }; 3],
            alive: AtomicU32::new(0),
        }
    }
}

struct VertSlot {
    x: AtomicI64,
    y: AtomicI64,
}

/// An allocation counter on a cache line of its own: every `add_vertex` /
/// `create_tri` writes its counter, and neither those writes nor the other
/// counter's may invalidate the line a reader of the slices holds.
#[repr(align(64))]
struct Counter(AtomicUsize);

/// An append-only concurrent triangle mesh. See the [crate docs](crate).
pub struct Mesh {
    verts: Box<[VertSlot]>,
    vert_len: Counter,
    tris: Box<[TriSlot]>,
    tri_len: Counter,
}

impl std::fmt::Debug for Mesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mesh")
            .field("verts", &self.num_verts())
            .field("tris_allocated", &self.num_tris_allocated())
            .finish()
    }
}

impl Mesh {
    /// Creates a mesh with fixed slot capacities.
    ///
    /// Capacities are hard limits: the arena never reallocates (concurrent
    /// readers hold indices, and slot identity doubles as the abstract lock
    /// id). Allocation past capacity panics with a sizing hint.
    pub fn with_capacity(verts: usize, tris: usize) -> Self {
        Mesh {
            verts: (0..verts)
                .map(|_| VertSlot {
                    x: AtomicI64::new(0),
                    y: AtomicI64::new(0),
                })
                .collect(),
            vert_len: Counter(AtomicUsize::new(0)),
            tris: (0..tris).map(|_| TriSlot::empty()).collect(),
            tri_len: Counter(AtomicUsize::new(0)),
        }
    }

    /// Number of vertices added so far.
    pub fn num_verts(&self) -> usize {
        self.vert_len.0.load(Ordering::Acquire)
    }

    /// Total triangle slots (fixed at construction) — also the abstract-lock
    /// space for triangle-locked applications.
    pub fn tri_capacity(&self) -> usize {
        self.tris.len()
    }

    /// Number of triangle slots ever allocated (alive + dead).
    pub fn num_tris_allocated(&self) -> usize {
        self.tri_len.0.load(Ordering::Acquire)
    }

    /// Number of currently alive triangles (O(allocated) scan).
    pub fn num_tris_alive(&self) -> usize {
        self.alive_tris().count()
    }

    /// Appends a vertex, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the vertex capacity is exhausted.
    pub fn add_vertex(&self, p: Point) -> u32 {
        let id = self.vert_len.0.fetch_add(1, Ordering::AcqRel);
        assert!(
            id < self.verts.len(),
            "vertex capacity {} exhausted; size the mesh larger",
            self.verts.len()
        );
        let (gx, gy) = p.to_grid();
        self.verts[id].x.store(gx, Ordering::Relaxed);
        self.verts[id].y.store(gy, Ordering::Relaxed);
        id as u32
    }

    /// The position of vertex `v`.
    ///
    /// Bounded by the slice, not by the allocation counter: the counter's
    /// line is written by every concurrent `add_vertex`, and this is the
    /// hottest read of a commit phase.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the vertex capacity; debug builds also
    /// reject an in-capacity id that was never allocated.
    pub fn vertex(&self, v: u32) -> Point {
        debug_assert!((v as usize) < self.num_verts(), "vertex {v} not allocated");
        let slot = &self.verts[v as usize];
        Point::from_grid(
            slot.x.load(Ordering::Relaxed),
            slot.y.load(Ordering::Relaxed),
        )
    }

    /// Allocates a new alive triangle with vertices `v` (CCW) and no
    /// neighbors.
    ///
    /// # Panics
    ///
    /// Panics if the triangle capacity is exhausted.
    pub fn create_tri(&self, v: [u32; 3]) -> u32 {
        let id = self.tri_len.0.fetch_add(1, Ordering::AcqRel);
        assert!(
            id < self.tris.len(),
            "triangle capacity {} exhausted; size the mesh larger",
            self.tris.len()
        );
        let slot = &self.tris[id];
        for (k, &vk) in v.iter().enumerate() {
            slot.v[k].store(vk, Ordering::Relaxed);
            slot.n[k].store(INVALID, Ordering::Relaxed);
        }
        slot.alive.store(1, Ordering::Release);
        id as u32
    }

    /// Snapshot of triangle `t`'s vertices and neighbors.
    pub fn tri(&self, t: u32) -> TriData {
        let slot = &self.tris[t as usize];
        TriData {
            v: [
                slot.v[0].load(Ordering::Relaxed),
                slot.v[1].load(Ordering::Relaxed),
                slot.v[2].load(Ordering::Relaxed),
            ],
            n: [
                slot.n[0].load(Ordering::Relaxed),
                slot.n[1].load(Ordering::Relaxed),
                slot.n[2].load(Ordering::Relaxed),
            ],
        }
    }

    /// The three corner points of triangle `t`.
    pub fn tri_points(&self, t: u32) -> [Point; 3] {
        let d = self.tri(t);
        [
            self.vertex(d.v[0]),
            self.vertex(d.v[1]),
            self.vertex(d.v[2]),
        ]
    }

    /// Whether triangle `t` is alive. A never-allocated slot's `alive` word
    /// is still 0, so the slice bound and that word decide — the allocation
    /// counter (written by every concurrent `create_tri`) is not read.
    pub fn alive(&self, t: u32) -> bool {
        self.tris
            .get(t as usize)
            .is_some_and(|slot| slot.alive.load(Ordering::Acquire) == 1)
    }

    /// Marks triangle `t` dead (its slot is never reused).
    pub fn kill(&self, t: u32) {
        self.tris[t as usize].alive.store(0, Ordering::Release);
    }

    /// Sets the neighbor of `t` across edge `edge`.
    pub fn set_neighbor(&self, t: u32, edge: usize, neighbor: u32) {
        self.tris[t as usize].n[edge].store(neighbor, Ordering::Relaxed);
    }

    /// The edge index of `t` whose endpoints are `{a, b}` (either
    /// direction), if any.
    pub fn edge_index(&self, t: u32, a: u32, b: u32) -> Option<usize> {
        let d = self.tri(t);
        (0..3).find(|&i| {
            let (x, y) = (d.v[i], d.v[(i + 1) % 3]);
            (x == a && y == b) || (x == b && y == a)
        })
    }

    /// The edge index of `t` that points to neighbor `other`, if any.
    pub fn neighbor_index(&self, t: u32, other: u32) -> Option<usize> {
        let d = self.tri(t);
        (0..3).find(|&i| d.n[i] == other)
    }

    /// Iterates over the ids of alive triangles, in slot order.
    pub fn alive_tris(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.num_tris_allocated() as u32).filter(move |&t| self.alive(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_roundtrip() {
        let m = Mesh::with_capacity(4, 4);
        let p = Point::from_grid(10, 20);
        let v = m.add_vertex(p);
        assert_eq!(v, 0);
        assert_eq!(m.vertex(v), p);
        assert_eq!(m.num_verts(), 1);
    }

    #[test]
    fn triangle_lifecycle() {
        let m = Mesh::with_capacity(4, 4);
        for _ in 0..3 {
            m.add_vertex(Point::from_grid(0, 0));
        }
        let t = m.create_tri([0, 1, 2]);
        assert!(m.alive(t));
        assert_eq!(m.tri(t).v, [0, 1, 2]);
        assert_eq!(m.tri(t).n, [INVALID; 3]);
        m.set_neighbor(t, 1, 7);
        assert_eq!(m.tri(t).n[1], 7);
        m.kill(t);
        assert!(!m.alive(t));
        assert_eq!(m.num_tris_allocated(), 1, "slot not reused");
    }

    #[test]
    fn edge_and_neighbor_lookup() {
        let m = Mesh::with_capacity(8, 8);
        for _ in 0..4 {
            m.add_vertex(Point::from_grid(0, 0));
        }
        let t = m.create_tri([0, 1, 2]);
        assert_eq!(m.edge_index(t, 1, 0), Some(0));
        assert_eq!(m.edge_index(t, 2, 1), Some(1));
        assert_eq!(m.edge_index(t, 0, 2), Some(2));
        assert_eq!(m.edge_index(t, 0, 3), None);
        m.set_neighbor(t, 2, 5);
        assert_eq!(m.neighbor_index(t, 5), Some(2));
        assert_eq!(m.neighbor_index(t, 6), None);
    }

    #[test]
    fn invalid_is_never_alive() {
        let m = Mesh::with_capacity(1, 1);
        assert!(!m.alive(INVALID));
        assert!(!m.alive(0), "unallocated slot");
    }

    #[test]
    fn in_capacity_never_allocated_tri_is_not_alive() {
        let m = Mesh::with_capacity(4, 4);
        for _ in 0..3 {
            m.add_vertex(Point::from_grid(0, 0));
        }
        let t = m.create_tri([0, 1, 2]);
        assert!(m.alive(t));
        for never in 1..4 {
            assert!(!m.alive(never), "slot {never} was never allocated");
        }
        assert!(!m.alive(4), "one past the capacity");
    }

    #[test]
    #[should_panic]
    fn out_of_capacity_vertex_read_panics() {
        let m = Mesh::with_capacity(2, 1);
        m.add_vertex(Point::from_grid(0, 0));
        m.vertex(2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn vertex_overflow_panics() {
        let m = Mesh::with_capacity(1, 1);
        m.add_vertex(Point::from_grid(0, 0));
        m.add_vertex(Point::from_grid(1, 1));
    }

    #[test]
    fn concurrent_allocation_is_disjoint() {
        let m = Mesh::with_capacity(1000, 1000);
        galois_runtime_shim::run(4, |_| {
            for _ in 0..100 {
                m.add_vertex(Point::from_grid(1, 2));
                m.create_tri([0, 0, 0]);
            }
        });
        assert_eq!(m.num_verts(), 400);
        assert_eq!(m.num_tris_allocated(), 400);
    }

    /// Minimal scoped-thread helper to avoid a dev-dependency on the runtime
    /// crate (the mesh crate is runtime-agnostic by design).
    mod galois_runtime_shim {
        pub fn run(threads: usize, f: impl Fn(usize) + Sync) {
            std::thread::scope(|s| {
                for t in 0..threads {
                    let f = &f;
                    s.spawn(move || f(t));
                }
            });
        }
    }
}
