//! Workload parameterization: [`Family`], [`WorkloadSpec`], and the
//! spec↔name encoding that lets a recorded trace be rebound to its
//! generating module by name alone.

use crate::Workload;
use spinrace_vm::VmConfig;
use std::fmt;
use std::str::FromStr;

/// The generator families. Each family emits a different synchronization
/// topology, and each stresses a different detector path:
///
/// | family      | topology                          | stresses                         |
/// |-------------|-----------------------------------|----------------------------------|
/// | `ring`      | producer–consumer semaphore rings | sem HB edges, slot reuse         |
/// | `spinflag`  | spin-flag + guarded publication   | spin promotion, promotion seeds  |
/// | `barrier`   | barrier-phased neighbour compute  | barrier generations, phase HB    |
/// | `zipf`      | skewed shared-array read streams  | `ReadState` promotion, hot pages |
/// | `fanout`    | wide thread fan-out (16–64)       | vector-clock width, page spread  |
/// | `straddle`  | racy pair straddling an unrelated lock region | predictive CS-conflict edges |
/// | `publish`   | write published after an unordered release    | predictive write→read edges  |
///
/// The last two inject **reorder-only** races when `races > 0`: the
/// recorded interleaving orders the victim pair through a mutex edge
/// between *independent* critical sections, so witnessed-interleaving
/// tools must stay silent while sync-preserving prediction must report
/// the injected set ([`crate::Oracle::ReorderOnly`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Producer–consumer rings synchronized by counting semaphores.
    Ring,
    /// Spin-flag publication (pre-published flag) plus a mutex-guarded
    /// double-checked publication stage.
    SpinFlag,
    /// Barrier-phased compute with cross-thread neighbour reads.
    Barrier,
    /// Zipf-skewed read streams over a shared array (LCG in TIR).
    Zipf,
    /// Wide thread fan-out over strided slices plus shared hot words.
    Fanout,
    /// A racy store pair straddling an unrelated lock region: the lock
    /// edge between two non-conflicting critical sections is the only
    /// thing ordering the stores in the recorded trace.
    Straddle,
    /// A store inside a critical section consumed by a load *after* a
    /// later, non-conflicting critical section on the same lock.
    Publish,
}

impl Family {
    /// Every family, in canonical order.
    pub fn all() -> [Family; 7] {
        [
            Family::Ring,
            Family::SpinFlag,
            Family::Barrier,
            Family::Zipf,
            Family::Fanout,
            Family::Straddle,
            Family::Publish,
        ]
    }

    /// The short name used on command lines and in module names.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Ring => "ring",
            Family::SpinFlag => "spinflag",
            Family::Barrier => "barrier",
            Family::Zipf => "zipf",
            Family::Fanout => "fanout",
            Family::Straddle => "straddle",
            Family::Publish => "publish",
        }
    }

    /// Does `races > 0` inject reorder-only races (visible to predictive
    /// tools only) rather than witnessed ones?
    pub fn reorder_only(&self) -> bool {
        matches!(self, Family::Straddle | Family::Publish)
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A family name that [`Family::from_str`] could not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseFamilyError(pub String);

impl fmt::Display for ParseFamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown workload family {:?} (expected ring, spinflag, barrier, zipf, fanout, \
             straddle or publish)",
            self.0
        )
    }
}

impl std::error::Error for ParseFamilyError {}

impl FromStr for Family {
    type Err = ParseFamilyError;

    fn from_str(s: &str) -> Result<Family, ParseFamilyError> {
        Family::all()
            .into_iter()
            .find(|f| f.name() == s.trim())
            .ok_or_else(|| ParseFamilyError(s.to_string()))
    }
}

/// Full parameterization of one generated workload. Construction is
/// deterministic: the same spec always builds the same module (same
/// fingerprint) and the same oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// Generator family.
    pub family: Family,
    /// Requested worker threads (main excluded). Families may round this
    /// to their topology — see [`WorkloadSpec::worker_threads`].
    pub threads: u32,
    /// Approximate events each worker contributes to the stream. The
    /// generators translate this into loop trip counts; the recorded
    /// stream lands within a small constant factor.
    pub events_per_thread: u32,
    /// Size of the shared address region (array words, ring capacity).
    pub addr_space: u32,
    /// Skew intensity for [`Family::Zipf`]: the number of in-TIR
    /// squaring rounds applied to the uniform sample (0 = uniform; each
    /// round biases the index distribution harder toward low indices and
    /// therefore toward few shadow pages).
    pub skew: u32,
    /// Number of deliberately injected races. 0 builds the
    /// correct-by-construction variant ([`crate::Oracle::RaceFree`]);
    /// n > 0 injects n single-write/single-write victim pairs
    /// ([`crate::Oracle::SeededRaces`]).
    pub races: u32,
    /// Seed for all generator randomness (victim pairing, LCG constants,
    /// initial array contents) — drawn from the vendored `rand`.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A small default spec for `family` (race-free).
    pub fn new(family: Family) -> WorkloadSpec {
        WorkloadSpec {
            family,
            threads: match family {
                Family::Fanout => 16,
                _ => 4,
            },
            events_per_thread: 64,
            addr_space: match family {
                Family::Zipf => 1024,
                _ => 64,
            },
            skew: if family == Family::Zipf { 2 } else { 0 },
            races: 0,
            seed: 1,
        }
    }

    /// Builder-style setters.
    pub fn threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }
    /// Set the per-worker event budget.
    pub fn events_per_thread(mut self, events: u32) -> Self {
        self.events_per_thread = events;
        self
    }
    /// Set the shared-region size.
    pub fn addr_space(mut self, words: u32) -> Self {
        self.addr_space = words;
        self
    }
    /// Set the zipf skew (squaring rounds).
    pub fn skew(mut self, skew: u32) -> Self {
        self.skew = skew;
        self
    }
    /// Set the number of injected races.
    pub fn races(mut self, races: u32) -> Self {
        self.races = races;
        self
    }
    /// Set the generator seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Split a *total* event target across this spec's workers (used by
    /// `trace gen --events N`, which speaks in stream totals).
    pub fn with_total_events(mut self, total: u64) -> Self {
        let workers = self.worker_threads().max(1) as u64;
        self.events_per_thread = u32::try_from(total.div_ceil(workers)).unwrap_or(u32::MAX);
        self
    }

    /// Worker threads the family actually spawns. [`Family::Ring`] rounds
    /// up to full producer/consumer pairs; the reorder-only families
    /// widen to one worker pair per injected race; everything else spawns
    /// `threads` (at least 2, so a cross-thread oracle is well-defined).
    pub fn worker_threads(&self) -> u32 {
        let t = self.threads.max(2);
        match self.family {
            Family::Ring => t.div_ceil(2) * 2,
            Family::Straddle | Family::Publish => t.max(self.races.saturating_mul(2)),
            _ => t,
        }
    }

    /// Rough lower bound on the events the built module will emit —
    /// used for step budgeting, not for oracles.
    pub fn total_events_hint(&self) -> u64 {
        self.worker_threads() as u64 * self.events_per_thread.max(1) as u64
    }

    /// A VM configuration sized for this spec: deterministic round-robin
    /// scheduling with a step budget that scales with the event target
    /// (the stock 5M-step default would abort multi-million-event
    /// streams) and a thread cap clearing the fan-out width.
    pub fn vm_config(&self) -> VmConfig {
        let mut cfg = VmConfig::round_robin();
        // ~12 instructions per recorded event is generous for every
        // family; spin waits under contention add slack on top.
        let budget = 1_000_000 + self.total_events_hint().saturating_mul(24);
        cfg.max_steps = cfg.max_steps.max(budget);
        cfg.max_threads = cfg.max_threads.max(self.worker_threads() as usize + 2);
        cfg
    }

    /// The canonical module name: `wl-<family>-t..-e..-a..-k..-r..-s..`.
    /// [`WorkloadSpec::from_name`] round-trips it, which is what lets
    /// `trace replay` rebuild a generated module from its header alone.
    pub fn name(&self) -> String {
        format!(
            "wl-{}-t{}-e{}-a{}-k{}-r{}-s{}",
            self.family,
            self.threads,
            self.events_per_thread,
            self.addr_space,
            self.skew,
            self.races,
            self.seed
        )
    }

    /// Parse a spec back out of a module name produced by
    /// [`WorkloadSpec::name`]. Returns `None` for non-workload names —
    /// including truncated, garbled, or absurdly-sized fields: the name
    /// may come from an untrusted trace header, and `build()` on an
    /// unbounded spec could spin for hours, divide by zero
    /// (`addr_space == 0`), or allocate without limit. Parsed fields are
    /// therefore held to the same bounds a plausible generated workload
    /// satisfies: `1..=1024` threads, a nonzero address space, skew
    /// `<= 64`, and at most `65536` injected races.
    pub fn from_name(name: &str) -> Option<WorkloadSpec> {
        let rest = name.strip_prefix("wl-")?;
        let (family_str, rest) = rest.split_at(rest.find("-t")?);
        let family: Family = family_str.parse().ok()?;
        let mut spec = WorkloadSpec::new(family);
        for part in rest.split('-').filter(|p| !p.is_empty()) {
            // `split_at_checked`, not `split_at`: a multi-byte first
            // character must parse as "not a workload name", never panic.
            let (key, value) = part.split_at_checked(1)?;
            match key {
                "t" => spec.threads = value.parse().ok()?,
                "e" => spec.events_per_thread = value.parse().ok()?,
                "a" => spec.addr_space = value.parse().ok()?,
                "k" => spec.skew = value.parse().ok()?,
                "r" => spec.races = value.parse().ok()?,
                "s" => spec.seed = value.parse().ok()?,
                _ => return None,
            }
        }
        let plausible = (1..=1024).contains(&spec.threads)
            && spec.addr_space >= 1
            && spec.skew <= 64
            && spec.races <= 65536;
        plausible.then_some(spec)
    }

    /// Build the module and its oracle.
    pub fn build(&self) -> Workload {
        crate::families::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_round_trip() {
        for fam in Family::all() {
            assert_eq!(fam.name().parse::<Family>().unwrap(), fam);
        }
        assert!("rings".parse::<Family>().is_err());
    }

    #[test]
    fn spec_names_round_trip() {
        let spec = WorkloadSpec::new(Family::Zipf)
            .threads(9)
            .events_per_thread(12345)
            .addr_space(4096)
            .skew(3)
            .races(2)
            .seed(987654321);
        assert_eq!(spec.name(), "wl-zipf-t9-e12345-a4096-k3-r2-s987654321");
        assert_eq!(WorkloadSpec::from_name(&spec.name()), Some(spec));
        for fam in Family::all() {
            let s = WorkloadSpec::new(fam);
            assert_eq!(WorkloadSpec::from_name(&s.name()), Some(s));
        }
        assert_eq!(WorkloadSpec::from_name("blackscholes"), None);
        assert_eq!(WorkloadSpec::from_name("wl-nosuch-t2"), None);
        // Untrusted input (trace headers) must degrade to None, never
        // panic — including multi-byte characters at key position.
        assert_eq!(WorkloadSpec::from_name("wl-zipf-t2-é3"), None);
        assert_eq!(WorkloadSpec::from_name("wl-zipf-t2-x9"), None);
        assert_eq!(WorkloadSpec::from_name("wl-ring-t"), None);
    }

    /// Each malformed shape an untrusted trace header can take: truncated
    /// names, garbled fields, and digits that parse but describe a
    /// workload no generator would emit (`build()` on those could divide
    /// by zero, allocate absurdly, or spin for hours).
    #[test]
    fn from_name_rejects_truncated_and_garbled_fields() {
        for (name, why) in [
            ("wl-", "family and fields both missing"),
            ("wl-zipf", "no -t field at all"),
            ("wl-zipf-", "dangling separator"),
            ("wl-zipf-t", "key with empty value"),
            ("wl-zipf-t2-e", "later key with empty value"),
            ("wl-zipf-t2-a12x4", "non-digit splice inside a value"),
            ("wl-zipf-t-2", "value detached from its key"),
            ("wl-zipf-t2-e99999999999999999999", "value overflows u32"),
            ("wl-zipf-t2-s99999999999999999999", "seed overflows u64"),
            ("wl-zipf-t2-q7", "unknown key"),
            ("wl-zipf-t2-Т7", "multi-byte key (Cyrillic Т)"),
        ] {
            assert_eq!(WorkloadSpec::from_name(name), None, "{why}: {name:?}");
        }
    }

    /// Parsed-but-implausible field values are rejected too: `from_name`
    /// feeds `build()`, so bounds are the line between "replay rebuilds
    /// the module" and "a hostile header makes replay hang or abort".
    #[test]
    fn from_name_rejects_implausible_bounds() {
        for (name, why) in [
            ("wl-zipf-t0", "zero threads"),
            ("wl-zipf-t2000000", "absurd thread count"),
            (
                "wl-zipf-t2-a0",
                "empty address space (division by zero in families)",
            ),
            (
                "wl-zipf-t2-k4000000000",
                "absurd skew (per-round squaring loop)",
            ),
            ("wl-zipf-t2-r4000000000", "absurd race-injection count"),
        ] {
            assert_eq!(WorkloadSpec::from_name(name), None, "{why}: {name:?}");
        }
        // The boundary values themselves stay accepted.
        assert!(WorkloadSpec::from_name("wl-zipf-t1024-k64-r65536").is_some());
        assert!(WorkloadSpec::from_name("wl-zipf-t1-a1-k0-r0").is_some());
    }

    #[test]
    fn ring_rounds_to_pairs_and_total_split() {
        let spec = WorkloadSpec::new(Family::Ring).threads(5);
        assert_eq!(spec.worker_threads(), 6);
        let spec = spec.with_total_events(600_000);
        assert_eq!(spec.events_per_thread, 100_000);
    }

    #[test]
    fn vm_config_scales_with_event_target() {
        let small = WorkloadSpec::new(Family::Zipf).vm_config();
        assert_eq!(small.max_steps, 5_000_000, "small specs keep the default");
        let big = WorkloadSpec::new(Family::Zipf)
            .threads(8)
            .events_per_thread(250_000);
        assert!(big.vm_config().max_steps > 24 * 2_000_000);
        let wide = WorkloadSpec::new(Family::Fanout).threads(200);
        assert!(wide.vm_config().max_threads >= 202);
    }
}
