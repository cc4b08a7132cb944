//! Interned locksets, Eraser-style.
//!
//! Locksets are small sorted vectors of lock addresses, interned so shadow
//! cells store a 4-byte id and intersections are memoized — the same
//! design Eraser used to keep shadow memory small, and a visible chunk of
//! the detector's memory footprint in the paper's memory figure.

use fxhash::FxHashMap;

/// Interned lockset id. Id 0 is always the empty lockset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocksetId(pub u32);

impl LocksetId {
    /// The empty lockset.
    pub const EMPTY: LocksetId = LocksetId(0);
}

/// Intern table for locksets.
#[derive(Clone, Debug)]
pub struct LocksetTable {
    sets: Vec<Vec<u64>>,
    index: FxHashMap<Vec<u64>, LocksetId>,
    intersect_memo: FxHashMap<(LocksetId, LocksetId), LocksetId>,
}

impl Default for LocksetTable {
    fn default() -> Self {
        let mut t = LocksetTable {
            sets: Vec::new(),
            index: FxHashMap::default(),
            intersect_memo: FxHashMap::default(),
        };
        let id = t.intern_sorted(Vec::new());
        debug_assert_eq!(id, LocksetId::EMPTY);
        t
    }
}

impl LocksetTable {
    /// Intern a lockset given as an arbitrary-order slice.
    pub fn intern(&mut self, locks: &[u64]) -> LocksetId {
        let mut v = locks.to_vec();
        v.sort_unstable();
        v.dedup();
        self.intern_sorted(v)
    }

    /// Intern a lockset the caller guarantees is sorted and deduplicated
    /// (the detector's per-thread held-lock vectors are maintained that
    /// way). Allocation-free on the hit path: `Vec<u64>: Borrow<[u64]>`
    /// lets the index be probed with the bare slice.
    pub fn intern_presorted(&mut self, locks: &[u64]) -> LocksetId {
        debug_assert!(locks.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        if let Some(&id) = self.index.get(locks) {
            return id;
        }
        self.intern_sorted(locks.to_vec())
    }

    fn intern_sorted(&mut self, v: Vec<u64>) -> LocksetId {
        if let Some(&id) = self.index.get(&v) {
            return id;
        }
        let id = LocksetId(self.sets.len() as u32);
        self.index.insert(v.clone(), id);
        self.sets.push(v);
        id
    }

    /// The locks of an interned set.
    pub fn get(&self, id: LocksetId) -> &[u64] {
        &self.sets[id.0 as usize]
    }

    /// Is the interned set `id` empty?
    pub fn set_is_empty(&self, id: LocksetId) -> bool {
        self.sets[id.0 as usize].is_empty()
    }

    /// Memoized intersection.
    pub fn intersect(&mut self, a: LocksetId, b: LocksetId) -> LocksetId {
        if a == b {
            return a;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&id) = self.intersect_memo.get(&key) {
            return id;
        }
        let (sa, sb) = (&self.sets[a.0 as usize], &self.sets[b.0 as usize]);
        let mut out = Vec::with_capacity(sa.len().min(sb.len()));
        let (mut i, mut j) = (0, 0);
        while i < sa.len() && j < sb.len() {
            match sa[i].cmp(&sb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(sa[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        let id = self.intern_sorted(out);
        self.intersect_memo.insert(key, id);
        id
    }

    /// Number of distinct interned sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Is the table empty? (Never true after `default()`, which pre-interns
    /// the empty lockset as id 0.)
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// What the table holds, for the memory metrics: interned sets,
    /// the locks in them, and memoized intersections.
    pub fn counts(&self) -> (usize, usize, usize) {
        let locks = self.sets.iter().map(Vec::len).sum();
        (self.sets.len(), locks, self.intersect_memo.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_id_zero() {
        let mut t = LocksetTable::default();
        assert_eq!(t.intern(&[]), LocksetId::EMPTY);
        assert!(t.set_is_empty(LocksetId::EMPTY));
        assert!(!t.is_empty(), "empty lockset is pre-interned");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn interning_dedupes_and_sorts() {
        let mut t = LocksetTable::default();
        let a = t.intern(&[3, 1, 2]);
        let b = t.intern(&[1, 2, 3, 3]);
        assert_eq!(a, b);
        assert_eq!(t.get(a), &[1, 2, 3]);
    }

    #[test]
    fn intersection_behaviour() {
        let mut t = LocksetTable::default();
        let ab = t.intern(&[10, 20]);
        let bc = t.intern(&[20, 30]);
        let b = t.intersect(ab, bc);
        assert_eq!(t.get(b), &[20]);
        let none = t.intern(&[40]);
        assert_eq!(t.intersect(ab, none), LocksetId::EMPTY);
        // memoized and symmetric
        assert_eq!(t.intersect(bc, ab), b);
    }

    proptest::proptest! {
        #[test]
        fn intersection_is_subset_of_operands(
            xs in proptest::collection::vec(0u64..20, 0..8),
            ys in proptest::collection::vec(0u64..20, 0..8),
        ) {
            let mut t = LocksetTable::default();
            let a = t.intern(&xs);
            let b = t.intern(&ys);
            let i = t.intersect(a, b);
            let ia: Vec<u64> = t.get(i).to_vec();
            for l in &ia {
                proptest::prop_assert!(t.get(a).contains(l));
                proptest::prop_assert!(t.get(b).contains(l));
            }
            // and contains every common element
            for l in t.get(a).to_vec() {
                if t.get(b).contains(&l) {
                    proptest::prop_assert!(ia.contains(&l));
                }
            }
        }
    }
}
