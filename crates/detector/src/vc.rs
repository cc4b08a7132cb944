//! Vector clocks and epochs — the happens-before machinery.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A vector clock: component `i` counts release points of thread `i`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorClock(Vec<u32>);

impl VectorClock {
    /// The zero clock.
    pub fn new() -> VectorClock {
        VectorClock(Vec::new())
    }

    /// Component for thread `t` (0 when never touched).
    pub fn get(&self, t: u32) -> u32 {
        self.0.get(t as usize).copied().unwrap_or(0)
    }

    /// Set component `t` to `v` (growing as needed).
    pub fn set(&mut self, t: u32, v: u32) {
        let t = t as usize;
        if t >= self.0.len() {
            self.0.resize(t + 1, 0);
        }
        self.0[t] = v;
    }

    /// Increment component `t` by one.
    pub fn tick(&mut self, t: u32) {
        let cur = self.get(t);
        self.set(t, cur + 1);
    }

    /// Pointwise maximum (`self ⊔= other`).
    pub fn join(&mut self, other: &VectorClock) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if v > self.0[i] {
                self.0[i] = v;
            }
        }
    }

    /// `self ≤ other` pointwise (the happens-before order on clocks).
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.get(i as u32))
    }

    /// Does the epoch `e` happen-before (or equal) this clock's view?
    pub fn covers(&self, e: Epoch) -> bool {
        e.clock <= self.get(e.tid)
    }

    /// Number of stored components (memory metrics).
    pub fn width(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

/// A scalar timestamp: thread `tid` at its local clock `clock`. FastTrack's
/// compact representation of "last access".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Epoch {
    /// Owning thread.
    pub tid: u32,
    /// That thread's component at the time of the event.
    pub clock: u32,
}

impl Epoch {
    /// Build an epoch.
    pub fn new(tid: u32, clock: u32) -> Epoch {
        Epoch { tid, clock }
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.clock, self.tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new();
        a.set(0, 3);
        a.set(2, 1);
        let mut b = VectorClock::new();
        b.set(0, 1);
        b.set(1, 5);
        a.join(&b);
        assert_eq!(a.get(0), 3);
        assert_eq!(a.get(1), 5);
        assert_eq!(a.get(2), 1);
    }

    #[test]
    fn leq_and_covers() {
        let mut a = VectorClock::new();
        a.set(0, 1);
        let mut b = VectorClock::new();
        b.set(0, 2);
        b.set(1, 1);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        assert!(b.covers(Epoch::new(0, 2)));
        assert!(!b.covers(Epoch::new(0, 3)));
        assert!(b.covers(Epoch::new(5, 0)), "zero clock always covered");
    }

    #[test]
    fn tick_increments() {
        let mut a = VectorClock::new();
        a.tick(3);
        a.tick(3);
        assert_eq!(a.get(3), 2);
        assert_eq!(a.get(0), 0);
    }

    proptest::proptest! {
        #[test]
        fn join_commutative(xs in proptest::collection::vec(0u32..100, 0..6),
                            ys in proptest::collection::vec(0u32..100, 0..6)) {
            let a = VectorClock(xs);
            let b = VectorClock(ys);
            let mut ab = a.clone(); ab.join(&b);
            let mut ba = b.clone(); ba.join(&a);
            // equal as functions (compare via get over a shared width)
            for i in 0..8u32 {
                proptest::prop_assert_eq!(ab.get(i), ba.get(i));
            }
        }

        #[test]
        fn join_associative(xs in proptest::collection::vec(0u32..100, 0..6),
                            ys in proptest::collection::vec(0u32..100, 0..6),
                            zs in proptest::collection::vec(0u32..100, 0..6)) {
            let a = VectorClock(xs);
            let b = VectorClock(ys);
            let c = VectorClock(zs);
            let mut ab_c = a.clone(); ab_c.join(&b); ab_c.join(&c);
            let mut a_bc = b.clone(); a_bc.join(&c); a_bc.join(&a);
            for i in 0..8u32 {
                proptest::prop_assert_eq!(ab_c.get(i), a_bc.get(i));
            }
        }

        #[test]
        fn join_idempotent_and_monotone(xs in proptest::collection::vec(0u32..100, 0..6),
                                        ys in proptest::collection::vec(0u32..100, 0..6)) {
            let a = VectorClock(xs);
            let b = VectorClock(ys);
            let mut aa = a.clone(); aa.join(&a);
            for i in 0..8u32 {
                proptest::prop_assert_eq!(aa.get(i), a.get(i));
            }
            let mut ab = a.clone(); ab.join(&b);
            proptest::prop_assert!(a.leq(&ab) && b.leq(&ab));
        }

        #[test]
        fn leq_is_a_partial_order(xs in proptest::collection::vec(0u32..20, 0..5),
                                  ys in proptest::collection::vec(0u32..20, 0..5)) {
            let a = VectorClock(xs);
            let b = VectorClock(ys);
            // reflexive
            proptest::prop_assert!(a.leq(&a));
            // antisymmetric up to function equality
            if a.leq(&b) && b.leq(&a) {
                for i in 0..8u32 {
                    proptest::prop_assert_eq!(a.get(i), b.get(i));
                }
            }
        }
    }
}
