//! Module-level containers: functions, blocks, globals, and the spin-loop
//! side table produced by the instrumentation phase.

use crate::ids::{BlockId, FuncId, GlobalId, Pc, SpinLoopId, StrId};
use crate::instr::{Instr, Terminator};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A global variable: a contiguous array of `words` 64-bit cells.
///
/// The VM lays globals out back-to-back starting at address
/// [`Module::GLOBAL_BASE`]; [`Module::global_base`] gives each global's
/// first address.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GlobalDecl {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Number of 64-bit words occupied.
    pub words: u64,
    /// Optional initializer (shorter initializers are zero-extended).
    pub init: Vec<i64>,
}

/// A straight-line instruction sequence ending in one terminator.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
    /// The unique terminator.
    pub term: Terminator,
}

impl BasicBlock {
    /// Number of instructions, terminator excluded.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }
    /// True when the block holds no instructions (just a terminator).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// A function: parameters arrive in registers `r0..r{params}`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Function {
    /// Human-readable name.
    pub name: String,
    /// Number of parameters (bound to the first registers on entry).
    pub params: u16,
    /// Total virtual registers used (computed by the builder/validator).
    pub num_regs: u16,
    /// Basic blocks; `BlockId(0)` is the entry block.
    pub blocks: Vec<BasicBlock>,
}

impl Function {
    /// The entry block id (always block 0).
    pub const ENTRY: BlockId = BlockId(0);

    /// Access a block by id.
    pub fn block(&self, b: BlockId) -> &BasicBlock {
        &self.blocks[b.0 as usize]
    }

    /// Iterate `(BlockId, &BasicBlock)` pairs in index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total instruction count including terminators.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len() + 1).sum()
    }
}

/// Metadata for one detected spinning read loop.
///
/// Produced by the instrumentation phase (`spinrace-spinfind`) according to
/// the paper's criteria: a small natural loop whose exit condition is fed
/// by at least one memory load and is not modified inside the loop.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpinLoopInfo {
    /// Dense id of the loop within the module.
    pub id: SpinLoopId,
    /// Function containing the loop.
    pub func: FuncId,
    /// Loop header block (target of the back edge).
    pub header: BlockId,
    /// All blocks belonging to the natural loop, sorted.
    pub blocks: Vec<BlockId>,
    /// Static locations of the loads feeding the exit conditions
    /// (the "condition variables" the detector must treat specially).
    /// May include loads in pure callees invoked by the condition.
    pub cond_loads: Vec<Pc>,
    /// Effective size in basic blocks, including blocks of pure callees
    /// used by the condition — the quantity compared against the paper's
    /// 3–7 basic-block window.
    pub weight: u32,
}

/// Side table attached to a module by the instrumentation phase.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpinTable {
    /// All detected spinning read loops.
    pub loops: Vec<SpinLoopInfo>,
    /// Map from the `Pc` of a tagged load to its owning loop.
    pub tagged_loads: HashMap<Pc, SpinLoopId>,
    /// The basic-block window used for detection (paper: 3–8, default 7).
    pub window: u32,
}

impl SpinTable {
    /// Number of detected loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }
    /// True when no loops were detected.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }
}

/// A complete program.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Module {
    /// Program name (diagnostics).
    pub name: String,
    /// All functions; `entry` is started as the main thread.
    pub functions: Vec<Function>,
    /// The main function.
    pub entry: FuncId,
    /// Global variables.
    pub globals: Vec<GlobalDecl>,
    /// Diagnostic strings referenced by `Assert`.
    pub strings: Vec<String>,
    /// Spin-loop instrumentation results, if the module has been through
    /// the instrumentation phase.
    pub spin: Option<SpinTable>,
}

impl Module {
    /// First address used for globals (addresses below are never valid, so
    /// stray null-ish pointers fault loudly).
    pub const GLOBAL_BASE: u64 = 0x1000;

    /// Access a function by id.
    pub fn function(&self, f: FuncId) -> &Function {
        &self.functions[f.0 as usize]
    }

    /// Base address of a global in the VM's flat address space.
    pub fn global_base(&self, g: GlobalId) -> u64 {
        let mut base = Self::GLOBAL_BASE;
        for decl in &self.globals[..g.0 as usize] {
            base += decl.words;
        }
        base
    }

    /// Total words of global memory.
    pub fn globals_words(&self) -> u64 {
        self.globals.iter().map(|g| g.words).sum()
    }

    /// First address past all globals (heap starts here).
    pub fn heap_base(&self) -> u64 {
        Self::GLOBAL_BASE + self.globals_words()
    }

    /// Find the global (and word offset within it) containing `addr`.
    pub fn global_at(&self, addr: u64) -> Option<(GlobalId, u64)> {
        if addr < Self::GLOBAL_BASE {
            return None;
        }
        let mut base = Self::GLOBAL_BASE;
        for (i, decl) in self.globals.iter().enumerate() {
            if addr < base + decl.words {
                return Some((GlobalId(i as u32), addr - base));
            }
            base += decl.words;
        }
        None
    }

    /// Human-readable description of an address (for reports).
    pub fn describe_addr(&self, addr: u64) -> String {
        match self.global_at(addr) {
            Some((g, off)) => {
                let name = &self.globals[g.0 as usize].name;
                if off == 0 && self.globals[g.0 as usize].words == 1 {
                    name.clone()
                } else {
                    format!("{name}[{off}]")
                }
            }
            None if addr >= self.heap_base() => format!("heap+{:#x}", addr - self.heap_base()),
            None => format!("{addr:#x}"),
        }
    }

    /// Fetch the instruction at `pc`, or `None` if `pc` names a terminator.
    pub fn instr_at(&self, pc: Pc) -> Option<&Instr> {
        self.function(pc.func)
            .block(pc.block)
            .instrs
            .get(pc.idx as usize)
    }

    /// Resolve a diagnostic string.
    pub fn string(&self, s: StrId) -> &str {
        self.strings
            .get(s.0 as usize)
            .map(|s| s.as_str())
            .unwrap_or("<bad-string>")
    }

    /// Total static instruction count (terminators included).
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(|f| f.instr_count()).sum()
    }

    /// Stable structural fingerprint of the module, including any spin
    /// instrumentation. Two prepared modules with the same fingerprint
    /// execute identically under the same VM configuration, which is what
    /// lets recorded traces be shared across tools whose preparation
    /// phases produced the same program.
    ///
    /// FNV-1a 64 over the IR itself, not its rendering: the name,
    /// functions, entry, globals and strings, then the spin table's loops
    /// and its tagged loads sorted by [`Pc`]. Integers are hashed
    /// little-endian with `usize`/`isize` widened to 64 bits, so the value
    /// is the same on every platform. Two rules keep the sharing partition
    /// of the textual rendering:
    ///
    /// * [`SpinTable::window`] is left out. The VM never consults it, so
    ///   identical loop sets found at different windows are the same
    ///   program and may share one trace.
    /// * A table with no loops and no tagged loads hashes like no table,
    ///   so a `+spin` preparation of a loop-free program shares the
    ///   uninstrumented program's trace.
    ///
    /// The value is the trace header's `module_fingerprint`: changing
    /// what is hashed requires a `TRACE_FORMAT_VERSION` bump in
    /// `spinrace-vm`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a(Fnv1a::OFFSET_BASIS);
        self.name.hash(&mut h);
        self.functions.hash(&mut h);
        self.entry.hash(&mut h);
        self.globals.hash(&mut h);
        self.strings.hash(&mut h);
        let spin = self
            .spin
            .as_ref()
            .filter(|t| !t.loops.is_empty() || !t.tagged_loads.is_empty())
            .map(|t| {
                let mut tagged: Vec<_> = t.tagged_loads.iter().collect();
                tagged.sort_unstable();
                (&t.loops, tagged)
            });
        spin.hash(&mut h);
        h.finish()
    }
}

/// The FNV-1a 64 hasher behind [`Module::fingerprint`], fed a
/// platform-independent byte stream: every integer little-endian,
/// `usize`/`isize` widened to 64 bits.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as i64 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Operand, Terminator};

    fn tiny_module() -> Module {
        Module {
            name: "t".into(),
            functions: vec![Function {
                name: "main".into(),
                params: 0,
                num_regs: 0,
                blocks: vec![BasicBlock {
                    instrs: vec![],
                    term: Terminator::Ret(None),
                }],
            }],
            entry: FuncId(0),
            globals: vec![
                GlobalDecl {
                    name: "a".into(),
                    words: 2,
                    init: vec![],
                },
                GlobalDecl {
                    name: "b".into(),
                    words: 3,
                    init: vec![1, 2, 3],
                },
            ],
            strings: vec![],
            spin: None,
        }
    }

    #[test]
    fn global_layout_is_contiguous() {
        let m = tiny_module();
        assert_eq!(m.global_base(GlobalId(0)), Module::GLOBAL_BASE);
        assert_eq!(m.global_base(GlobalId(1)), Module::GLOBAL_BASE + 2);
        assert_eq!(m.heap_base(), Module::GLOBAL_BASE + 5);
    }

    #[test]
    fn global_at_inverts_layout() {
        let m = tiny_module();
        assert_eq!(m.global_at(Module::GLOBAL_BASE + 1), Some((GlobalId(0), 1)));
        assert_eq!(m.global_at(Module::GLOBAL_BASE + 4), Some((GlobalId(1), 2)));
        assert_eq!(m.global_at(Module::GLOBAL_BASE + 5), None);
        assert_eq!(m.global_at(0), None);
    }

    #[test]
    fn describe_addr_names_globals() {
        let m = tiny_module();
        assert_eq!(m.describe_addr(Module::GLOBAL_BASE), "a[0]");
        assert_eq!(m.describe_addr(Module::GLOBAL_BASE + 3), "b[1]");
        assert!(m.describe_addr(m.heap_base() + 7).starts_with("heap+"));
    }

    /// `tiny_module` with one instruction, a second function and a
    /// one-loop spin table whose tagged load is that instruction.
    fn spun_module() -> Module {
        let mut m = tiny_module();
        m.functions[0].blocks[0].instrs.push(Instr::Output {
            src: Operand::Imm(1),
        });
        m.functions.push(Function {
            name: "aux".into(),
            params: 0,
            num_regs: 0,
            blocks: vec![BasicBlock {
                instrs: vec![],
                term: Terminator::Ret(None),
            }],
        });
        let pc = Pc::new(FuncId(0), BlockId(0), 0);
        m.spin = Some(SpinTable {
            loops: vec![SpinLoopInfo {
                id: SpinLoopId(0),
                func: FuncId(0),
                header: BlockId(0),
                blocks: vec![BlockId(0)],
                cond_loads: vec![pc],
                weight: 1,
            }],
            tagged_loads: HashMap::from([(pc, SpinLoopId(0))]),
            window: 7,
        });
        m
    }

    fn table(m: &mut Module) -> &mut SpinTable {
        m.spin.as_mut().unwrap()
    }

    /// A named one-field edit of [`spun_module`].
    type Edit = (&'static str, fn(&mut Module));

    #[test]
    fn fingerprint_changes_with_anything_the_vm_executes() {
        let base = spun_module().fingerprint();
        let edits: [Edit; 5] = [
            ("instruction operand", |m| {
                m.functions[0].blocks[0].instrs[0] = Instr::Output {
                    src: Operand::Imm(2),
                }
            }),
            ("global initializer", |m| m.globals[1].init[2] = 4),
            ("entry", |m| m.entry = FuncId(1)),
            ("tagged load", |m| {
                table(m).tagged_loads =
                    HashMap::from([(Pc::new(FuncId(0), BlockId(0), 1), SpinLoopId(0))])
            }),
            ("loop weight", |m| table(m).loops[0].weight = 2),
        ];
        for (what, edit) in edits {
            let mut m = spun_module();
            edit(&mut m);
            assert_ne!(
                m.fingerprint(),
                base,
                "changing the {what} kept the fingerprint"
            );
        }
    }

    #[test]
    fn fingerprint_ignores_the_window_and_empty_tables() {
        let mut m = spun_module();
        let base = m.fingerprint();
        table(&mut m).window = 3;
        assert_eq!(m.fingerprint(), base);

        let plain = tiny_module();
        let mut empty = tiny_module();
        empty.spin = Some(SpinTable::default());
        assert_eq!(empty.fingerprint(), plain.fingerprint());
        empty.spin = Some(SpinTable {
            window: 5,
            ..SpinTable::default()
        });
        assert_eq!(empty.fingerprint(), plain.fingerprint());
    }

    #[test]
    fn fingerprint_does_not_depend_on_tagged_load_iteration_order() {
        let pcs: Vec<Pc> = (0..16).map(|i| Pc::new(FuncId(0), BlockId(0), i)).collect();
        let fingerprints: Vec<u64> = (0..8)
            .map(|round| {
                let mut m = spun_module();
                let mut order = pcs.clone();
                order.rotate_left(round);
                table(&mut m).tagged_loads =
                    order.into_iter().map(|pc| (pc, SpinLoopId(0))).collect();
                m.fingerprint()
            })
            .collect();
        assert!(fingerprints.iter().all(|&f| f == fingerprints[0]));
    }

    /// Known answer: trace headers store this value, so a change to it
    /// (to what is hashed, or how) requires a `TRACE_FORMAT_VERSION` bump
    /// in `spinrace-vm`, or old traces would be rebound to a fingerprint
    /// that means something else.
    #[test]
    fn fingerprint_known_answer() {
        assert_eq!(tiny_module().fingerprint(), 0x530b_297b_0a60_4a3d);
    }

    #[test]
    fn serde_round_trip() {
        let m = tiny_module();
        let json = serde_json::to_string(&m).unwrap();
        let back: Module = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
