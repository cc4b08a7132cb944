//! The generator families: deterministic TIR module builders with
//! computable ground truth.
//!
//! Every family follows the same contract:
//!
//! * **Scaffolding is universally clean.** All synchronization is built
//!   from constructs every tool in the lineup accepts — spawn/join,
//!   mutexes, counting semaphores, barriers, and pre-spawn publication
//!   (writes by `main` before the first `spawn`). No plain cross-thread
//!   flag handoff, no bare atomics: those are exactly the ad-hoc shapes
//!   the paper's `lib`-only tools flood on, so they cannot appear in a
//!   module whose oracle says "0 contexts under *every* tool".
//! * **Seeded races are surgical.** `spec.races > 0` injects dedicated
//!   one-word victim globals (`race0`, `race1`, …), each written exactly
//!   once by each of two distinct workers, as the *first* instructions of
//!   the worker bodies — before any synchronization, so no happens-before
//!   path can order the pair, and with one static store site per thread,
//!   so each victim yields exactly one racy context.
//! * **Workers spawn in index order.** Worker `i` is dynamic thread
//!   `i + 1` (main is 0), which is what makes [`ExpectedRace`] thread
//!   identities computable at generation time.
//! * **Determinism.** All randomness (victim pairing, LCG constants,
//!   initial array contents) comes from the vendored seeded `rand`; the
//!   same spec always builds a fingerprint-identical module.

use crate::{ExpectedRace, Family, Oracle, Workload, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spinrace_synclib::patterns::spin_until_nonzero;
use spinrace_tir::{BinOp, FunctionBuilder, GlobalRef, ModuleBuilder, Reg};

/// Build `spec`'s module and oracle.
pub fn build(spec: &WorkloadSpec) -> Workload {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5eed_ab1e_0bad_c0de);
    let workers = spec.worker_threads() as usize;
    let mut mb = ModuleBuilder::new(spec.name());
    let oracle = if spec.family.reorder_only() {
        reorder(&mut mb, spec, &mut rng, spec.family == Family::Publish)
    } else {
        let seeds = VictimPlan::plan(&mut mb, spec, workers, &mut rng);
        match spec.family {
            Family::Ring => ring(&mut mb, spec, &seeds, &mut rng),
            Family::SpinFlag => spinflag(&mut mb, spec, &seeds, &mut rng),
            Family::Barrier => barrier(&mut mb, spec, &seeds, &mut rng),
            Family::Zipf => zipf(&mut mb, spec, &seeds, &mut rng),
            Family::Fanout => fanout(&mut mb, spec, &seeds, &mut rng),
            Family::Straddle | Family::Publish => unreachable!("reorder families handled above"),
        }
        seeds.oracle()
    };
    Workload {
        spec: *spec,
        oracle,
        module: mb.finish().unwrap_or_else(|e| {
            panic!("workload generator built an invalid module for {spec:?}: {e}")
        }),
    }
}

/// The victim globals and their thread assignments.
struct VictimPlan {
    /// `victims[w]` — the `(global, value)` stores worker `w` performs
    /// before its first synchronization operation.
    preludes: Vec<Vec<(GlobalRef, i64)>>,
    /// The ground truth those stores imply.
    expected: Vec<ExpectedRace>,
}

impl VictimPlan {
    fn plan(
        mb: &mut ModuleBuilder,
        spec: &WorkloadSpec,
        workers: usize,
        rng: &mut StdRng,
    ) -> VictimPlan {
        let mut preludes = vec![Vec::new(); workers];
        let mut expected = Vec::new();
        for k in 0..spec.races {
            let g = mb.global(&format!("race{k}"), 1);
            // Two distinct workers; the second drawn from the remaining
            // indices so a == b is impossible.
            let a = rng.gen_range(0..workers);
            let mut b = rng.gen_range(0..workers - 1);
            if b >= a {
                b += 1;
            }
            preludes[a].push((g, k as i64 + 1));
            preludes[b].push((g, -(k as i64 + 1)));
            expected.push(ExpectedRace::new(
                format!("race{k}"),
                a as u32 + 1,
                b as u32 + 1,
            ));
        }
        VictimPlan { preludes, expected }
    }

    /// Emit worker `w`'s victim stores (call first in the body).
    fn emit(&self, f: &mut FunctionBuilder, w: usize) {
        for &(g, v) in &self.preludes[w] {
            f.store(g.at(0), v);
        }
    }

    fn oracle(&self) -> Oracle {
        if self.expected.is_empty() {
            Oracle::RaceFree
        } else {
            let mut e = self.expected.clone();
            e.sort();
            Oracle::SeededRaces(e)
        }
    }
}

/// `for i in 0..n { body(i) }` as real TIR blocks (head/body/exit), so
/// long streams come from compact modules instead of unrolling. The exit
/// condition compares a register counter — no load feeds it, so the spin
/// finder never mistakes compute loops for waiting loops.
fn counted_loop(f: &mut FunctionBuilder, n: i64, body: impl FnOnce(&mut FunctionBuilder, Reg)) {
    let i = f.const_(0);
    let head = f.new_block();
    let body_b = f.new_block();
    let exit = f.new_block();
    f.jump(head);
    f.switch_to(head);
    let more = f.lt(i, n);
    f.branch(more, body_b, exit);
    f.switch_to(body_b);
    body(f, i);
    f.bin_into(i, BinOp::Add, i, 1);
    f.jump(head);
    f.switch_to(exit);
}

/// Producer–consumer rings: one semaphore-paced ring buffer per
/// producer/consumer pair. Slot writes and reads are ordered by the
/// `full`/`empty` semaphore edges (and slot *reuse* by the round trip),
/// so the streams exercise sem HB bookkeeping and shadow-cell churn.
fn ring(mb: &mut ModuleBuilder, spec: &WorkloadSpec, seeds: &VictimPlan, rng: &mut StdRng) {
    let pairs = spec.worker_threads() as usize / 2;
    let cap = spec.addr_space.clamp(1, 1 << 20) as i64;
    // Producer events per item: SemAcquired + Write + SemPost = 3.
    let items = (spec.events_per_thread / 3).max(1) as i64;
    let mut funcs = Vec::new();
    for p in 0..pairs {
        let ring_g = mb.global(&format!("ring{p}"), cap as u64);
        let empty = mb.global(&format!("empty{p}"), 1);
        let full = mb.global(&format!("full{p}"), 1);
        let out = mb.global(&format!("out{p}"), 1);
        let base = rng.gen_range(0i64..1000);
        let producer = mb.function(&format!("producer{p}"), 1, |f| {
            seeds.emit(f, 2 * p);
            counted_loop(f, items, |f, i| {
                f.sem_wait(empty.at(0));
                let slot = f.bin(BinOp::Rem, i, cap);
                let v = f.add(i, base);
                f.store(ring_g.idx(slot), v);
                f.sem_post(full.at(0));
            });
            f.ret(None);
        });
        let consumer = mb.function(&format!("consumer{p}"), 1, |f| {
            seeds.emit(f, 2 * p + 1);
            let sum = f.const_(0);
            counted_loop(f, items, |f, i| {
                f.sem_wait(full.at(0));
                let slot = f.bin(BinOp::Rem, i, cap);
                let v = f.load(ring_g.idx(slot));
                f.bin_into(sum, BinOp::Add, sum, v);
                f.sem_post(empty.at(0));
            });
            f.store(out.at(0), sum);
            f.ret(None);
        });
        funcs.push((producer, consumer, empty, full));
    }
    mb.entry("main", |f| {
        for &(_, _, empty, full) in &funcs {
            f.sem_init(empty.at(0), cap);
            f.sem_init(full.at(0), 0);
        }
        let mut tids = Vec::new();
        for &(producer, consumer, _, _) in &funcs {
            tids.push(f.spawn(producer, 0));
            tids.push(f.spawn(consumer, 0));
        }
        for t in tids {
            f.join(t);
        }
        f.ret(None);
    });
}

/// Spin-flag publication plus a mutex-guarded double-checked stage.
///
/// Stage 1 is the paper's canonical shape with the handoff made
/// universally clean: `main` publishes `data` and sets `flag` *before*
/// spawning, so every waiter's spinning read loop (instrumented and
/// promoted under `+spin`, with `main`'s store as the promotion seed)
/// exits on its first evaluation and the data reads are ordered by the
/// spawn edge. Stage 2 is double-checked publication done with a lock —
/// worker 0 publishes `payload` and `ready` under `mu`; everyone else
/// spin-waits on `ready` *inside* the lock (a waiting loop the spin
/// criteria correctly reject as side-effecting) and then reads `payload`
/// under the same lock.
fn spinflag(mb: &mut ModuleBuilder, spec: &WorkloadSpec, seeds: &VictimPlan, rng: &mut StdRng) {
    let workers = spec.worker_threads() as usize;
    let dsize = spec.addr_space.clamp(1, 64) as i64;
    let reads = (spec.events_per_thread.saturating_sub(10) / 2).max(1) as i64;
    let flag = mb.global("flag", 1);
    let data = mb.global("data", dsize as u64);
    let mu = mb.global("mu", 1);
    let ready = mb.global("ready", 1);
    let payload = mb.global("payload", 1);
    let out = mb.global("out", workers as u64);
    let payload_v = rng.gen_range(1i64..1_000_000);
    let inits: Vec<i64> = (0..dsize).map(|_| rng.gen_range(0i64..1000)).collect();
    let mut funcs = Vec::new();
    for w in 0..workers {
        funcs.push(mb.function(&format!("waiter{w}"), 1, |f| {
            seeds.emit(f, w);
            spin_until_nonzero(f, flag.at(0));
            let sum = f.const_(0);
            counted_loop(f, reads, |f, i| {
                let j = f.bin(BinOp::Rem, i, dsize);
                let v = f.load(data.idx(j));
                f.bin_into(sum, BinOp::Add, sum, v);
                f.store(out.at(w as i64), sum);
            });
            if w == 0 {
                f.lock(mu.at(0));
                f.store(payload.at(0), payload_v);
                f.store(ready.at(0), 1);
                f.unlock(mu.at(0));
            } else {
                let head = f.new_block();
                let done = f.new_block();
                f.jump(head);
                f.switch_to(head);
                f.lock(mu.at(0));
                let r = f.load(ready.at(0));
                f.unlock(mu.at(0));
                f.branch(r, done, head);
                f.switch_to(done);
                f.lock(mu.at(0));
                let pv = f.load(payload.at(0));
                f.unlock(mu.at(0));
                f.bin_into(sum, BinOp::Add, sum, pv);
                f.store(out.at(w as i64), sum);
            }
            f.ret(None);
        }));
    }
    mb.entry("main", |f| {
        for (j, &v) in inits.iter().enumerate() {
            f.store(data.at(j as i64), v);
        }
        f.store(flag.at(0), 1);
        let tids: Vec<_> = funcs.iter().map(|&w| f.spawn(w, 0)).collect();
        for t in tids {
            f.join(t);
        }
        f.ret(None);
    });
}

/// Barrier-phased compute: every phase, each worker reads its right
/// neighbour's stripe, crosses the barrier, rewrites its own stripe, and
/// crosses again — all cross-thread pairs are separated by a barrier
/// generation, so arbitrarily long streams stay race-free while the
/// barrier's generation bookkeeping and phase-crossing vector clocks
/// churn continuously.
fn barrier(mb: &mut ModuleBuilder, spec: &WorkloadSpec, seeds: &VictimPlan, rng: &mut StdRng) {
    let workers = spec.worker_threads() as usize;
    let stripe = (spec.addr_space as usize / workers).clamp(1, 32);
    // Events per phase: stripe reads + stripe writes + 2 barriers
    // (enter + leave each).
    let phases = (spec.events_per_thread as usize / (2 * stripe + 4)).max(1) as i64;
    let bar = mb.global("bar", 3);
    let cells = mb.global("cells", (workers * stripe) as u64);
    let out = mb.global("out", workers as u64);
    let salt = rng.gen_range(1i64..100);
    let mut funcs = Vec::new();
    for w in 0..workers {
        let own = (w * stripe) as i64;
        let neigh = (((w + 1) % workers) * stripe) as i64;
        funcs.push(mb.function(&format!("phase_worker{w}"), 1, |f| {
            seeds.emit(f, w);
            let sum = f.const_(salt + w as i64);
            counted_loop(f, phases, |f, _i| {
                for j in 0..stripe as i64 {
                    let v = f.load(cells.at(neigh + j));
                    f.bin_into(sum, BinOp::Add, sum, v);
                }
                f.barrier_wait(bar.at(0));
                for j in 0..stripe as i64 {
                    let v = f.add(sum, j);
                    f.store(cells.at(own + j), v);
                }
                f.barrier_wait(bar.at(0));
            });
            f.store(out.at(w as i64), sum);
            f.ret(None);
        }));
    }
    mb.entry("main", |f| {
        f.barrier_init(bar.at(0), workers as i64);
        let tids: Vec<_> = funcs.iter().map(|&w| f.spawn(w, 0)).collect();
        for t in tids {
            f.join(t);
        }
        f.ret(None);
    });
}

/// The 31-bit LCG constants the zipf/fanout workers run *inside TIR*
/// (glibc's venerable `rand`): compact modules, arbitrarily long streams.
const LCG_MUL: i64 = 1_103_515_245;
const LCG_ADD: i64 = 12_345;
const LCG_MASK: i64 = 0x7FFF_FFFF;

/// Zipf-skewed read streams over a shared read-only table. Each worker
/// runs an in-TIR LCG and maps the uniform sample through `spec.skew`
/// squaring rounds (u ← u²/2¹⁶ biases hard toward low indices), so a
/// few hot shadow pages see most of the traffic. The table is never written (contents come from the global
/// initializer), every worker reads it concurrently (driving `ReadState`
/// promotion), and each worker's accumulator write goes to its own slot.
fn zipf(mb: &mut ModuleBuilder, spec: &WorkloadSpec, seeds: &VictimPlan, rng: &mut StdRng) {
    let workers = spec.worker_threads() as usize;
    let n = spec.addr_space.max(8) as i64;
    let iters = (spec.events_per_thread / 2).max(1) as i64;
    let init: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..1 << 20)).collect();
    let table = mb.global_init("table", n as u64, init);
    let acc = mb.global("acc", workers as u64);
    let lcg_seeds: Vec<i64> = (0..workers)
        .map(|_| rng.gen_range(1i64..LCG_MASK))
        .collect();
    let skew = spec.skew.min(4);
    let mut funcs = Vec::new();
    for (w, &seed0) in lcg_seeds.iter().enumerate() {
        funcs.push(mb.function(&format!("zipf_worker{w}"), 1, |f| {
            seeds.emit(f, w);
            let state = f.const_(seed0);
            let sum = f.const_(0);
            counted_loop(f, iters, |f, _i| {
                f.bin_into(state, BinOp::Mul, state, LCG_MUL);
                f.bin_into(state, BinOp::Add, state, LCG_ADD);
                f.bin_into(state, BinOp::And, state, LCG_MASK);
                // u ∈ [0, 2^16); each squaring round skews toward 0.
                let mut u = f.bin(BinOp::Shr, state, 15);
                for _ in 0..skew {
                    let sq = f.mul(u, u);
                    u = f.bin(BinOp::Shr, sq, 16);
                }
                let scaled = f.mul(u, n);
                let idx = f.bin(BinOp::Shr, scaled, 16);
                let v = f.load(table.idx(idx));
                f.bin_into(sum, BinOp::Add, sum, v);
                f.store(acc.at(w as i64), sum);
            });
            f.ret(None);
        }));
    }
    mb.entry("main", |f| {
        let tids: Vec<_> = funcs.iter().map(|&w| f.spawn(w, 0)).collect();
        for t in tids {
            f.join(t);
        }
        f.ret(None);
    });
}

/// Wide thread fan-out (16–64 workers by default): every worker reads a
/// handful of shared hot words (promoting their read states to vectors
/// as wide as the thread count) and then streams strided reads over the
/// shared input with private accumulator writes — vector-clock width and
/// spread over many shadow pages, no synchronization beyond spawn/join.
fn fanout(mb: &mut ModuleBuilder, spec: &WorkloadSpec, seeds: &VictimPlan, rng: &mut StdRng) {
    let workers = spec.worker_threads() as usize;
    let n = (spec.addr_space as i64).max(workers as i64);
    let hot = n.min(4);
    let iters = (spec.events_per_thread.saturating_sub(hot as u32 + 2) / 2).max(1) as i64;
    let init: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..1 << 20)).collect();
    let input = mb.global_init("input", n as u64, init);
    let out = mb.global("out", workers as u64);
    let mut funcs = Vec::new();
    for w in 0..workers {
        funcs.push(mb.function(&format!("fan_worker{w}"), 1, |f| {
            seeds.emit(f, w);
            let sum = f.const_(0);
            for h in 0..hot {
                let v = f.load(input.at(h));
                f.bin_into(sum, BinOp::Add, sum, v);
            }
            counted_loop(f, iters, |f, i| {
                let strided = f.mul(i, workers as i64);
                let pos = f.add(strided, w as i64);
                let idx = f.bin(BinOp::Rem, pos, n);
                let v = f.load(input.idx(idx));
                f.bin_into(sum, BinOp::Add, sum, v);
                f.store(out.at(w as i64), sum);
            });
            f.ret(None);
        }));
    }
    mb.entry("main", |f| {
        let tids: Vec<_> = funcs.iter().map(|&w| f.spawn(w, 0)).collect();
        // Join in reverse order — the join fan-in the merge sees is then
        // the mirror of the spawn fan-out.
        for t in tids.into_iter().rev() {
            f.join(t);
        }
        f.ret(None);
    });
}

/// Register-only busy-wait: burns scheduler steps without emitting a
/// single event, so one worker can be held back past another's critical
/// section under the deterministic round-robin schedule. The loop
/// counter never touches memory — neither the spin finder nor any
/// detector sees anything.
fn scheduling_delay(f: &mut FunctionBuilder, rounds: i64) {
    counted_loop(f, rounds, |_f, _i| {});
}

/// The reorder-only families, `straddle` (`publish == false`) and
/// `publish` (`publish == true`): races that exist only in *correct
/// reorderings* of the recorded interleaving.
///
/// Workers come in gadget pairs `(2p, 2p+1)`. The first `spec.races`
/// pairs are racy; the rest are the conflict-controlled mirror of the
/// same shape (the edge-keeping case), and any odd leftover worker only
/// does bulk table reads. In every gadget the second worker is held
/// back by a register-only [`scheduling_delay`], so the recorded trace
/// always orders the first worker's critical section before the
/// second's and the lock's release→acquire edge is the *only*
/// happens-before path across the pair:
///
/// * **straddle, racy** — worker `a` stores `race{p}` lock-free, then
///   locks `mu{p}` and stores its private scratch word; worker `b`
///   (delayed) runs its own non-conflicting critical section and stores
///   `race{p}` after unlocking. HB tools see the pair ordered through
///   the unrelated lock region (and the lockset stage stays disengaged:
///   neither victim store holds a lock); prediction drops the
///   non-conflicting edge and must report the pair.
/// * **straddle, conflict-controlled** — identical shape, but both
///   critical sections write one shared `conflict{p}` word, so the edge
///   survives prediction and `safe{p}` is clean under every tool.
/// * **publish, racy** — worker `a` publishes `race{p}` *inside* its
///   critical section; worker `b` (delayed) runs a non-conflicting
///   critical section and loads `race{p}` only after unlocking: ordered
///   under HB, a predicted write→read race once the edge is dropped.
/// * **publish, conflict-controlled** — worker `b` instead loads
///   `pub{p}` inside its critical section; the write→read conflict
///   keeps the edge.
///
/// After its gadget, every worker streams strided reads over a shared
/// read-only table with a private accumulator slot (the bulk of the
/// event budget, race-free by construction).
fn reorder(mb: &mut ModuleBuilder, spec: &WorkloadSpec, rng: &mut StdRng, publish: bool) -> Oracle {
    let workers = spec.worker_threads() as usize;
    let pairs = workers / 2;
    let races = (spec.races as usize).min(pairs);
    debug_assert_eq!(
        races, spec.races as usize,
        "worker_threads covers all pairs"
    );
    // Generous under round-robin: the leading worker's whole gadget is
    // ~10 steps, the delay hundreds.
    let delay = 96;
    let n = spec.addr_space.max(8) as i64;
    let iters = (spec.events_per_thread / 2).max(1) as i64;
    let init: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..1 << 20)).collect();
    let input = mb.global_init("input", n as u64, init);
    let acc = mb.global("acc", workers as u64);
    // Per-pair globals, planned up front (globals must exist before the
    // worker closures reference them).
    let mus: Vec<GlobalRef> = (0..pairs)
        .map(|p| mb.global(&format!("mu{p}"), 1))
        .collect();
    let mut victims = Vec::with_capacity(pairs);
    let mut expected = Vec::with_capacity(races);
    for p in 0..pairs {
        if p < races {
            victims.push(mb.global(&format!("race{p}"), 1));
            expected.push(ExpectedRace::new(
                format!("race{p}"),
                2 * p as u32 + 1,
                2 * p as u32 + 2,
            ));
        } else if publish {
            victims.push(mb.global(&format!("pub{p}"), 1));
        } else {
            victims.push(mb.global(&format!("safe{p}"), 1));
        }
    }
    let scratch_a: Vec<GlobalRef> = (0..pairs)
        .map(|p| mb.global(&format!("cs{p}a"), 1))
        .collect();
    let scratch_b: Vec<GlobalRef> = (0..pairs)
        .map(|p| mb.global(&format!("cs{p}b"), 1))
        .collect();
    let conflicts: Vec<GlobalRef> = (0..pairs)
        .map(|p| mb.global(&format!("conflict{p}"), 1))
        .collect();
    let mut funcs = Vec::new();
    for w in 0..workers {
        let p = w / 2;
        let leader = w % 2 == 0;
        let in_pair = p < pairs;
        let racy = in_pair && p < races;
        funcs.push(mb.function(&format!("reorder_worker{w}"), 1, |f| {
            let sum = f.const_(0);
            if in_pair {
                let (mu, victim) = (mus[p], victims[p]);
                let val = p as i64 + 1;
                if leader {
                    match (publish, racy) {
                        (false, true) => {
                            // Victim store lock-free, then an unrelated
                            // critical section.
                            f.store(victim.at(0), val);
                            f.lock(mu.at(0));
                            f.store(scratch_a[p].at(0), val);
                            f.unlock(mu.at(0));
                        }
                        (false, false) => {
                            f.store(victim.at(0), val);
                            f.lock(mu.at(0));
                            f.store(conflicts[p].at(0), val);
                            f.unlock(mu.at(0));
                        }
                        (true, _) => {
                            // Publication inside the critical section.
                            f.lock(mu.at(0));
                            f.store(victim.at(0), val);
                            f.unlock(mu.at(0));
                        }
                    }
                } else {
                    scheduling_delay(f, delay);
                    match (publish, racy) {
                        (false, true) => {
                            f.lock(mu.at(0));
                            f.store(scratch_b[p].at(0), -val);
                            f.unlock(mu.at(0));
                            f.store(victim.at(0), -val);
                        }
                        (false, false) => {
                            f.lock(mu.at(0));
                            f.store(conflicts[p].at(0), -val);
                            f.unlock(mu.at(0));
                            f.store(victim.at(0), -val);
                        }
                        (true, true) => {
                            f.lock(mu.at(0));
                            f.store(scratch_b[p].at(0), -val);
                            f.unlock(mu.at(0));
                            let v = f.load(victim.at(0));
                            f.bin_into(sum, BinOp::Add, sum, v);
                        }
                        (true, false) => {
                            f.lock(mu.at(0));
                            let v = f.load(victim.at(0));
                            f.unlock(mu.at(0));
                            f.bin_into(sum, BinOp::Add, sum, v);
                        }
                    }
                }
            }
            counted_loop(f, iters, |f, i| {
                let strided = f.mul(i, workers as i64);
                let pos = f.add(strided, w as i64);
                let idx = f.bin(BinOp::Rem, pos, n);
                let v = f.load(input.idx(idx));
                f.bin_into(sum, BinOp::Add, sum, v);
                f.store(acc.at(w as i64), sum);
            });
            f.ret(None);
        }));
    }
    mb.entry("main", |f| {
        let tids: Vec<_> = funcs.iter().map(|&w| f.spawn(w, 0)).collect();
        for t in tids {
            f.join(t);
        }
        f.ret(None);
    });
    if expected.is_empty() {
        Oracle::RaceFree
    } else {
        expected.sort();
        Oracle::ReorderOnly(expected)
    }
}
