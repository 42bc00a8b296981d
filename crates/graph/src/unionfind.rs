//! Disjoint-set forest with union by size and path halving.
//!
//! Used for connected-component computations (`osn-metrics`) and as a
//! sanity check inside the trace generator (pre-merge networks must stay
//! disjoint).

/// Disjoint-set (union-find) structure over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    num_sets: usize,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            num_sets: n,
        }
    }

    /// Add singleton sets until the structure covers `0..n` (a no-op when
    /// it already does), for element sets that grow over time.
    pub fn grow(&mut self, n: usize) {
        let len = self.parent.len();
        if n > len {
            self.parent.extend(len as u32..n as u32);
            self.size.resize(n, 1);
            self.num_sets += n - len;
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Find the representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merge the sets containing `a` and `b`. Returns `true` if they were
    /// previously disjoint.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.num_sets -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }

    /// The representative and size of the largest set.
    ///
    /// Returns `None` for an empty structure.
    pub fn largest_set(&mut self) -> Option<(u32, u32)> {
        let n = self.parent.len() as u32;
        let mut best: Option<(u32, u32)> = None;
        for x in 0..n {
            if self.parent[x as usize] == x {
                let s = self.size[x as usize];
                if best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((x, s));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_sets(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.set_size(2), 1);
    }

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert!(uf.connected(0, 2));
        assert_eq!(uf.set_size(1), 3);
        assert_eq!(uf.num_sets(), 4);
    }

    #[test]
    fn largest_set() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(3, 4);
        uf.union(1, 2);
        let (_, size) = uf.largest_set().unwrap();
        assert_eq!(size, 3);
        assert!(UnionFind::new(0).largest_set().is_none());
    }

    #[test]
    fn transitive_chain() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_sets(), 1);
        assert!(uf.connected(0, 99));
        assert_eq!(uf.set_size(50), 100);
    }

    #[test]
    fn grow_adds_singletons_and_keeps_sets() {
        let mut uf = UnionFind::new(2);
        uf.union(0, 1);
        uf.grow(4);
        uf.grow(3);
        assert_eq!(uf.len(), 4);
        assert_eq!(uf.num_sets(), 3);
        assert!(uf.connected(0, 1));
        assert_eq!(uf.set_size(3), 1);
        uf.union(1, 3);
        assert_eq!(uf.set_size(0), 3);
    }
}
