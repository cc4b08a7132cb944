//! Thread picking. The VM preempts at every instruction and picks the
//! next thread straight from its thread table; the pick is deterministic
//! given the [`SchedulerKind`], which makes whole runs (and their event
//! streams) reproducible.

use crate::machine::{Thread, ThreadState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Declarative scheduler selection (serializable run configuration).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Fair cyclic order: each runnable thread runs one instruction in
    /// turn, so a spin loop's counterpart writer always gets its turn.
    RoundRobin,
    /// Uniform random order with the given seed. Different seeds explore
    /// different interleavings; the same seed reproduces the same run.
    Random(u64),
}

/// The picker's state for one run: the last pick, or the random stream.
pub(crate) enum Picker {
    RoundRobin { last: Option<usize> },
    Random(StdRng),
}

impl Picker {
    pub(crate) fn new(kind: SchedulerKind) -> Picker {
        match kind {
            SchedulerKind::RoundRobin => Picker::RoundRobin { last: None },
            SchedulerKind::Random(seed) => Picker::Random(StdRng::seed_from_u64(seed)),
        }
    }

    /// Index of the thread to step next, or `None` if no thread is
    /// runnable. Round-robin takes the first runnable thread after the
    /// last pick, wrapping; random draws `k` in `0..n` over the `n`
    /// runnable threads and takes the `k`-th.
    #[inline]
    pub(crate) fn pick(&mut self, threads: &[Thread]) -> Option<usize> {
        let runnable = |i: &usize| threads[*i].state == ThreadState::Runnable;
        match self {
            Picker::RoundRobin { last } => {
                let from = last.map_or(0, |l| l + 1);
                let next = (from..threads.len()).chain(0..from).find(runnable)?;
                *last = Some(next);
                Some(next)
            }
            Picker::Random(rng) => {
                let n = (0..threads.len()).filter(runnable).count();
                if n == 0 {
                    return None;
                }
                (0..threads.len()).filter(runnable).nth(rng.gen_range(0..n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Frame;
    use spinrace_tir::FuncId;

    fn threads(n: u32) -> Vec<Thread> {
        (0..n)
            .map(|id| Thread::new(id, Frame::new(FuncId(0), 0, None)))
            .collect()
    }

    #[test]
    fn round_robin_cycles() {
        let ts = threads(3);
        let mut rr = Picker::new(SchedulerKind::RoundRobin);
        let picks: Vec<usize> = (0..6).map(|_| rr.pick(&ts).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_blocked() {
        let mut ts = threads(3);
        let mut rr = Picker::new(SchedulerKind::RoundRobin);
        assert_eq!(rr.pick(&ts), Some(0));
        ts[1].state = ThreadState::BlockedJoin { target: 2 };
        assert_eq!(rr.pick(&ts), Some(2)); // next after 0 is 2
        assert_eq!(rr.pick(&ts), Some(0)); // wraps
        ts[0].state = ThreadState::Finished;
        ts[2].state = ThreadState::Finished;
        assert_eq!(rr.pick(&ts), None);
    }

    /// The same seed gives the same picks, and each pick is the `k`-th
    /// runnable thread for one `gen_range(0..n)` draw of the seed's
    /// stream.
    #[test]
    fn seeded_random_is_deterministic() {
        let mut ts = threads(4);
        ts[1].state = ThreadState::BlockedSem { sem: 0x10 };
        let run = |seed| {
            let mut p = Picker::new(SchedulerKind::Random(seed));
            (0..32).map(|_| p.pick(&ts).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
        let mut rng = StdRng::seed_from_u64(42);
        let draws: Vec<usize> = (0..32)
            .map(|_| [0, 2, 3][rng.gen_range(0..3usize)])
            .collect();
        assert_eq!(run(42), draws);
        for t in &mut ts {
            t.state = ThreadState::Finished;
        }
        assert_eq!(Picker::new(SchedulerKind::Random(42)).pick(&ts), None);
    }
}
