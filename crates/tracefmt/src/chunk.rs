//! One chunk: a fixed-target-size run of events, encoded columnar.
//!
//! Events are transposed into struct-of-arrays columns — one column per
//! logical [`Event`] field — and each column is compressed independently
//! with the codec that fits its distribution:
//!
//! * **near-monotone streams** (thread ids, data/sync addresses, barrier
//!   generations) take zigzag **delta + varint**: consecutive events
//!   mostly touch nearby values, so deltas are tiny;
//! * **heavily repeated values** (program counters, call-chain hashes)
//!   go through a **per-chunk dictionary** plus a varint index column —
//!   a hot loop re-executes the same handful of pcs, so indices are
//!   almost always one byte;
//! * **event kinds** are one raw byte each, with the `Option`-ness of
//!   the `atomic`/`spin` fields packed into spare high bits so plain
//!   accesses (the overwhelming majority) spend nothing on them.
//!
//! All per-column codec state resets at chunk boundaries, making every
//! chunk independently decodable — the property the streaming reader and
//! per-chunk corruption detection are built on.

use crate::varint::{get_uvarint, put_uvarint, unzigzag, zigzag};
use fxhash::FxHashMap;
use spinrace_tir::{BlockId, FuncId, MemOrder, Pc, SpinLoopId};
use spinrace_vm::{Event, TraceError};

/// Number of columns a chunk carries. Written into every chunk so a
/// reader can detect framing drift structurally (and future versions can
/// add columns behind a version bump).
pub const NUM_COLUMNS: usize = 15;

// Column order inside a chunk.
const COL_KIND: usize = 0;
const COL_TID: usize = 1;
const COL_AUX_TID: usize = 2;
const COL_OBJ: usize = 3;
const COL_OBJ2: usize = 4;
const COL_VALUE: usize = 5;
const COL_VALUE2: usize = 6;
const COL_PC_DICT: usize = 7;
const COL_PC_IDX: usize = 8;
const COL_STACK_DICT: usize = 9;
const COL_STACK_IDX: usize = 10;
const COL_ORDER: usize = 11;
const COL_SPIN: usize = 12;
const COL_GEN: usize = 13;
const COL_SPIN_READS: usize = 14;

// Event tags (bits 0..=4 of the kind byte).
const TAG_SPAWN: u8 = 0;
const TAG_JOIN: u8 = 1;
const TAG_THREAD_END: u8 = 2;
const TAG_READ: u8 = 3;
const TAG_WRITE: u8 = 4;
const TAG_UPDATE: u8 = 5;
const TAG_FENCE: u8 = 6;
const TAG_MUTEX_LOCK: u8 = 7;
const TAG_MUTEX_UNLOCK: u8 = 8;
const TAG_COND_SIGNAL: u8 = 9;
const TAG_COND_BROADCAST: u8 = 10;
const TAG_COND_WAIT_RETURN: u8 = 11;
const TAG_BARRIER_ENTER: u8 = 12;
const TAG_BARRIER_LEAVE: u8 = 13;
const TAG_SEM_POST: u8 = 14;
const TAG_SEM_ACQUIRED: u8 = 15;
const TAG_SPIN_ENTER: u8 = 16;
const TAG_SPIN_EXIT: u8 = 17;
const TAG_OUTPUT: u8 = 18;
const TAG_MAX: u8 = TAG_OUTPUT;

/// Kind-byte flag: a `Read`/`Write` whose `atomic` field is `Some` (the
/// ordering itself sits in the order column).
const FLAG_ATOMIC: u8 = 0x20;
/// Kind-byte flag: a `Read` whose `spin` field is `Some` (the loop id
/// sits in the spin column).
const FLAG_SPIN: u8 = 0x40;
const TAG_MASK: u8 = 0x1f;

fn order_to_u8(o: MemOrder) -> u8 {
    match o {
        MemOrder::Relaxed => 0,
        MemOrder::Acquire => 1,
        MemOrder::Release => 2,
        MemOrder::AcqRel => 3,
        MemOrder::SeqCst => 4,
    }
}

fn order_from_u8(b: u8) -> Result<MemOrder, TraceError> {
    Ok(match b {
        0 => MemOrder::Relaxed,
        1 => MemOrder::Acquire,
        2 => MemOrder::Release,
        3 => MemOrder::AcqRel,
        4 => MemOrder::SeqCst,
        _ => return Err(TraceError::Corrupt(format!("invalid memory order {b}"))),
    })
}

/// A delta-coded varint column under construction.
#[derive(Default)]
struct DeltaCol {
    last: i64,
    buf: Vec<u8>,
}

impl DeltaCol {
    #[inline]
    fn push(&mut self, v: i64) {
        put_uvarint(&mut self.buf, zigzag(v.wrapping_sub(self.last)));
        self.last = v;
    }
}

/// A plain zigzag-varint column (no delta) for value-like fields whose
/// stream has no locality to exploit.
#[derive(Default)]
struct VarCol {
    buf: Vec<u8>,
}

impl VarCol {
    #[inline]
    fn push_i64(&mut self, v: i64) {
        put_uvarint(&mut self.buf, zigzag(v));
    }
    #[inline]
    fn push_u64(&mut self, v: u64) {
        put_uvarint(&mut self.buf, v);
    }
}

/// Per-chunk dictionary of values with heavy repetition. The dictionary
/// block stores each distinct value once (delta-coded between entries);
/// the index column references entries by varint position.
struct Dict<T> {
    map: FxHashMap<T, u32>,
    entries: Vec<T>,
}

impl<T: std::hash::Hash + Eq + Copy> Dict<T> {
    fn new() -> Self {
        Dict {
            map: FxHashMap::default(),
            entries: Vec::new(),
        }
    }

    #[inline]
    fn intern(&mut self, v: T) -> u32 {
        if let Some(&i) = self.map.get(&v) {
            return i;
        }
        let i = self.entries.len() as u32;
        self.map.insert(v, i);
        self.entries.push(v);
        i
    }
}

/// Encode `events` as one chunk, appending its framing (event count,
/// column count, per-column block lengths, payload, checksum) to `out`.
pub fn encode_chunk(events: &[Event], out: &mut Vec<u8>) {
    let mut kinds: Vec<u8> = Vec::with_capacity(events.len());
    let mut tid = DeltaCol::default();
    let mut aux_tid = DeltaCol::default();
    let mut obj = DeltaCol::default();
    let mut obj2 = DeltaCol::default();
    let mut value = VarCol::default();
    let mut value2 = VarCol::default();
    let mut pc_dict: Dict<Pc> = Dict::new();
    let mut pc_idx = VarCol::default();
    let mut stack_dict: Dict<u64> = Dict::new();
    let mut stack_idx = VarCol::default();
    let mut order_col: Vec<u8> = Vec::new();
    let mut spin_col = VarCol::default();
    let mut gen_col = DeltaCol::default();
    let mut spin_reads = VarCol::default();
    let mut spin_read_addr = DeltaCol::default();

    for ev in events {
        match ev {
            Event::Spawn { parent, child, pc } => {
                kinds.push(TAG_SPAWN);
                tid.push(i64::from(*parent));
                aux_tid.push(i64::from(*child));
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::Join { parent, child, pc } => {
                kinds.push(TAG_JOIN);
                tid.push(i64::from(*parent));
                aux_tid.push(i64::from(*child));
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::ThreadEnd { tid: t } => {
                kinds.push(TAG_THREAD_END);
                tid.push(i64::from(*t));
            }
            Event::Read {
                tid: t,
                addr,
                value: v,
                pc,
                stack,
                atomic,
                spin,
            } => {
                let mut kind = TAG_READ;
                if atomic.is_some() {
                    kind |= FLAG_ATOMIC;
                }
                if spin.is_some() {
                    kind |= FLAG_SPIN;
                }
                kinds.push(kind);
                tid.push(i64::from(*t));
                obj.push(*addr as i64);
                value.push_i64(*v);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
                stack_idx.push_u64(u64::from(stack_dict.intern(*stack)));
                if let Some(o) = atomic {
                    order_col.push(order_to_u8(*o));
                }
                if let Some(s) = spin {
                    spin_col.push_u64(u64::from(s.0));
                }
            }
            Event::Write {
                tid: t,
                addr,
                value: v,
                pc,
                stack,
                atomic,
            } => {
                let mut kind = TAG_WRITE;
                if atomic.is_some() {
                    kind |= FLAG_ATOMIC;
                }
                kinds.push(kind);
                tid.push(i64::from(*t));
                obj.push(*addr as i64);
                value.push_i64(*v);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
                stack_idx.push_u64(u64::from(stack_dict.intern(*stack)));
                if let Some(o) = atomic {
                    order_col.push(order_to_u8(*o));
                }
            }
            Event::Update {
                tid: t,
                addr,
                old,
                new,
                pc,
                stack,
                order,
            } => {
                kinds.push(TAG_UPDATE);
                tid.push(i64::from(*t));
                obj.push(*addr as i64);
                value.push_i64(*old);
                value2.push_i64(*new);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
                stack_idx.push_u64(u64::from(stack_dict.intern(*stack)));
                order_col.push(order_to_u8(*order));
            }
            Event::Fence { tid: t, order, pc } => {
                kinds.push(TAG_FENCE);
                tid.push(i64::from(*t));
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
                order_col.push(order_to_u8(*order));
            }
            Event::MutexLock { tid: t, mutex, pc } => {
                kinds.push(TAG_MUTEX_LOCK);
                tid.push(i64::from(*t));
                obj.push(*mutex as i64);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::MutexUnlock { tid: t, mutex, pc } => {
                kinds.push(TAG_MUTEX_UNLOCK);
                tid.push(i64::from(*t));
                obj.push(*mutex as i64);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::CondSignal { tid: t, cv, pc } => {
                kinds.push(TAG_COND_SIGNAL);
                tid.push(i64::from(*t));
                obj.push(*cv as i64);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::CondBroadcast { tid: t, cv, pc } => {
                kinds.push(TAG_COND_BROADCAST);
                tid.push(i64::from(*t));
                obj.push(*cv as i64);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::CondWaitReturn {
                tid: t,
                cv,
                mutex,
                pc,
            } => {
                kinds.push(TAG_COND_WAIT_RETURN);
                tid.push(i64::from(*t));
                obj.push(*cv as i64);
                obj2.push(*mutex as i64);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::BarrierEnter {
                tid: t,
                barrier,
                gen,
                pc,
            } => {
                kinds.push(TAG_BARRIER_ENTER);
                tid.push(i64::from(*t));
                obj.push(*barrier as i64);
                gen_col.push(*gen as i64);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::BarrierLeave {
                tid: t,
                barrier,
                gen,
                pc,
            } => {
                kinds.push(TAG_BARRIER_LEAVE);
                tid.push(i64::from(*t));
                obj.push(*barrier as i64);
                gen_col.push(*gen as i64);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::SemPost { tid: t, sem, pc } => {
                kinds.push(TAG_SEM_POST);
                tid.push(i64::from(*t));
                obj.push(*sem as i64);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::SemAcquired { tid: t, sem, pc } => {
                kinds.push(TAG_SEM_ACQUIRED);
                tid.push(i64::from(*t));
                obj.push(*sem as i64);
                pc_idx.push_u64(u64::from(pc_dict.intern(*pc)));
            }
            Event::SpinEnter { tid: t, spin } => {
                kinds.push(TAG_SPIN_ENTER);
                tid.push(i64::from(*t));
                spin_col.push_u64(u64::from(spin.0));
            }
            Event::SpinExit {
                tid: t,
                spin,
                reads,
            } => {
                kinds.push(TAG_SPIN_EXIT);
                tid.push(i64::from(*t));
                spin_col.push_u64(u64::from(spin.0));
                spin_reads.push_u64(reads.len() as u64);
                for (addr, pc) in reads {
                    spin_read_addr.push(*addr as i64);
                    put_uvarint(&mut spin_reads.buf, u64::from(pc_dict.intern(*pc)));
                }
            }
            Event::Output { tid: t, value: v } => {
                kinds.push(TAG_OUTPUT);
                tid.push(i64::from(*t));
                value.push_i64(*v);
            }
        }
    }

    // Serialize the dictionaries (delta-coded between entries).
    let mut pc_dict_buf = Vec::new();
    put_uvarint(&mut pc_dict_buf, pc_dict.entries.len() as u64);
    let (mut lf, mut lb, mut li) = (0i64, 0i64, 0i64);
    for pc in &pc_dict.entries {
        let (f, b, i) = (
            i64::from(pc.func.0),
            i64::from(pc.block.0),
            i64::from(pc.idx),
        );
        put_uvarint(&mut pc_dict_buf, zigzag(f - lf));
        put_uvarint(&mut pc_dict_buf, zigzag(b - lb));
        put_uvarint(&mut pc_dict_buf, zigzag(i - li));
        (lf, lb, li) = (f, b, i);
    }
    let mut stack_dict_buf = Vec::new();
    put_uvarint(&mut stack_dict_buf, stack_dict.entries.len() as u64);
    let mut last = 0i64;
    for &s in &stack_dict.entries {
        let v = s as i64;
        put_uvarint(&mut stack_dict_buf, zigzag(v.wrapping_sub(last)));
        last = v;
    }

    // The spin-read address sub-column rides at the front of the
    // spin-reads block (its own length first), keeping the column count
    // fixed.
    let mut spin_reads_buf = Vec::new();
    put_uvarint(&mut spin_reads_buf, spin_read_addr.buf.len() as u64);
    spin_reads_buf.extend_from_slice(&spin_read_addr.buf);
    spin_reads_buf.extend_from_slice(&spin_reads.buf);

    let cols: [&[u8]; NUM_COLUMNS] = [
        &kinds,
        &tid.buf,
        &aux_tid.buf,
        &obj.buf,
        &obj2.buf,
        &value.buf,
        &value2.buf,
        &pc_dict_buf,
        &pc_idx.buf,
        &stack_dict_buf,
        &stack_idx.buf,
        &order_col,
        &spin_col.buf,
        &gen_col.buf,
        &spin_reads_buf,
    ];

    // Frame: event count, column count, then each column prefixed by its
    // block length; checksum over everything framed.
    let start = out.len();
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    put_uvarint(out, NUM_COLUMNS as u64);
    for col in cols {
        put_uvarint(out, col.len() as u64);
        out.extend_from_slice(col);
    }
    let sum = crate::checksum(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// A read cursor over one column's byte block.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    last: i64,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur {
            buf,
            pos: 0,
            last: 0,
        }
    }

    #[inline(always)]
    fn uvarint(&mut self) -> Result<u64, TraceError> {
        get_uvarint(self.buf, &mut self.pos)
    }

    #[inline(always)]
    fn ivarint(&mut self) -> Result<i64, TraceError> {
        Ok(unzigzag(self.uvarint()?))
    }

    /// Next value of a zigzag-delta column.
    #[inline(always)]
    fn delta(&mut self) -> Result<i64, TraceError> {
        let d = self.ivarint()?;
        self.last = self.last.wrapping_add(d);
        Ok(self.last)
    }

    #[inline(always)]
    fn byte(&mut self) -> Result<u8, TraceError> {
        let Some(&b) = self.buf.get(self.pos) else {
            return Err(column_exhausted());
        };
        self.pos += 1;
        Ok(b)
    }

    /// Next dictionary index from this column, resolved against
    /// `entries` (`what` names the dictionary in the range error).
    #[inline(always)]
    fn lookup<T: Copy>(&mut self, entries: &[T], what: &'static str) -> Result<T, TraceError> {
        let i = self.uvarint()? as usize;
        match entries.get(i) {
            Some(&v) => Ok(v),
            None => Err(index_out_of_range(what, i)),
        }
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cold]
fn column_exhausted() -> TraceError {
    TraceError::Corrupt("column exhausted".into())
}

#[cold]
fn index_out_of_range(what: &str, i: usize) -> TraceError {
    TraceError::Corrupt(format!("{what} dictionary index {i} out of range"))
}

fn tid_u32(v: i64) -> Result<u32, TraceError> {
    u32::try_from(v).map_err(|_| TraceError::Corrupt(format!("thread id {v} out of range")))
}

/// A thread id an event names, which must be one of the `threads` ids
/// spawned so far. Detectors size per-thread state by the largest id
/// they see, so an unchecked forged id could exhaust memory.
#[inline]
fn spawned(v: i64, threads: u32) -> Result<u32, TraceError> {
    match u32::try_from(v) {
        Ok(t) if t < threads => Ok(t),
        _ => Err(never_spawned(v)),
    }
}

#[cold]
fn never_spawned(v: i64) -> TraceError {
    TraceError::Corrupt(format!("thread {v} was never spawned"))
}

/// Decode one chunk's column blocks (everything between the column-count
/// varint and the checksum) into `out`. `n` is the framed event count.
/// `threads` counts the threads spawned before this chunk (thread 0
/// included) and is advanced past every `Spawn` in it: as in the VM,
/// each spawn's child must be the next fresh id. Returns the number of
/// spin reads the chunk's `SpinExit` events carry, the heap the decoded
/// events own beyond the event slots themselves.
pub fn decode_chunk_columns(
    n: usize,
    cols: &[&[u8]; NUM_COLUMNS],
    out: &mut Vec<Event>,
    threads: &mut u32,
) -> Result<usize, TraceError> {
    // The kind column is one raw byte per event: its length is the one
    // structural invariant checkable before decoding anything.
    if cols[COL_KIND].len() != n {
        return Err(TraceError::Corrupt(format!(
            "kind column holds {} bytes for {n} events",
            cols[COL_KIND].len()
        )));
    }

    // Dictionaries first: both index columns resolve against them.
    let mut pcd = Cur::new(cols[COL_PC_DICT]);
    let pc_count = pcd.uvarint()?;
    if pc_count > n as u64 * 2 + 16 {
        return Err(TraceError::Corrupt(
            "pc dictionary larger than chunk".into(),
        ));
    }
    let mut pc_entries: Vec<Pc> = Vec::with_capacity(pc_count as usize);
    let (mut lf, mut lb, mut li) = (0i64, 0i64, 0i64);
    for _ in 0..pc_count {
        lf = lf.wrapping_add(pcd.ivarint()?);
        lb = lb.wrapping_add(pcd.ivarint()?);
        li = li.wrapping_add(pcd.ivarint()?);
        let (f, b, i) = (
            u32::try_from(lf).map_err(|_| TraceError::Corrupt("pc func out of range".into()))?,
            u32::try_from(lb).map_err(|_| TraceError::Corrupt("pc block out of range".into()))?,
            u32::try_from(li).map_err(|_| TraceError::Corrupt("pc idx out of range".into()))?,
        );
        pc_entries.push(Pc::new(FuncId(f), BlockId(b), i));
    }
    if !pcd.finished() {
        return Err(TraceError::Corrupt(
            "trailing bytes in pc dictionary".into(),
        ));
    }

    let mut std_ = Cur::new(cols[COL_STACK_DICT]);
    let stack_count = std_.uvarint()?;
    if stack_count > n as u64 + 16 {
        return Err(TraceError::Corrupt(
            "stack dictionary larger than chunk".into(),
        ));
    }
    let mut stack_entries: Vec<u64> = Vec::with_capacity(stack_count as usize);
    let mut last = 0i64;
    for _ in 0..stack_count {
        last = last.wrapping_add(std_.ivarint()?);
        stack_entries.push(last as u64);
    }
    if !std_.finished() {
        return Err(TraceError::Corrupt(
            "trailing bytes in stack dictionary".into(),
        ));
    }

    // The spin-reads block carries its address sub-column inline.
    let mut sr = Cur::new(cols[COL_SPIN_READS]);
    let sr_addr_len = sr.uvarint()? as usize;
    let rest = &cols[COL_SPIN_READS][sr.pos..];
    if sr_addr_len > rest.len() {
        return Err(TraceError::Corrupt(
            "spin-read address block overruns its column".into(),
        ));
    }
    let mut sr_addr = Cur::new(&rest[..sr_addr_len]);
    let mut sr_meta = Cur::new(&rest[sr_addr_len..]);

    let mut tid = Cur::new(cols[COL_TID]);
    let mut aux_tid = Cur::new(cols[COL_AUX_TID]);
    let mut obj = Cur::new(cols[COL_OBJ]);
    let mut obj2 = Cur::new(cols[COL_OBJ2]);
    let mut value = Cur::new(cols[COL_VALUE]);
    let mut value2 = Cur::new(cols[COL_VALUE2]);
    let mut pc_idx = Cur::new(cols[COL_PC_IDX]);
    let mut stack_idx = Cur::new(cols[COL_STACK_IDX]);
    let mut order_col = Cur::new(cols[COL_ORDER]);
    let mut spin_col = Cur::new(cols[COL_SPIN]);
    let mut gen_col = Cur::new(cols[COL_GEN]);

    let mut spin_reads = 0;
    out.reserve(n);
    for (pos, &kind) in cols[COL_KIND].iter().enumerate() {
        let tag = kind & TAG_MASK;
        let atomic_flag = kind & FLAG_ATOMIC != 0;
        let spin_flag = kind & FLAG_SPIN != 0;
        if tag > TAG_MAX {
            return Err(TraceError::Corrupt(format!(
                "unknown event tag {tag} at chunk offset {pos}"
            )));
        }
        // Flags are only meaningful on data accesses; anywhere else they
        // mean the byte was damaged in a way the checksum missed.
        if (atomic_flag && !matches!(tag, TAG_READ | TAG_WRITE)) || (spin_flag && tag != TAG_READ) {
            return Err(TraceError::Corrupt(format!(
                "flag bits on event tag {tag} at chunk offset {pos}"
            )));
        }
        let t = spawned(tid.delta()?, *threads)?;
        let ev = match tag {
            TAG_SPAWN => {
                let child = tid_u32(aux_tid.delta()?)?;
                if child != *threads || child == u32::MAX {
                    return Err(TraceError::Corrupt(format!(
                        "spawn of thread {child}, expected the fresh id {threads}"
                    )));
                }
                *threads += 1;
                Event::Spawn {
                    parent: t,
                    child,
                    pc: pc_idx.lookup(&pc_entries, "pc")?,
                }
            }
            TAG_JOIN => Event::Join {
                parent: t,
                child: spawned(aux_tid.delta()?, *threads)?,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_THREAD_END => Event::ThreadEnd { tid: t },
            TAG_READ => Event::Read {
                tid: t,
                addr: obj.delta()? as u64,
                value: value.ivarint()?,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
                stack: stack_idx.lookup(&stack_entries, "stack")?,
                atomic: if atomic_flag {
                    Some(order_from_u8(order_col.byte()?)?)
                } else {
                    None
                },
                spin: if spin_flag {
                    Some(SpinLoopId(u32::try_from(spin_col.uvarint()?).map_err(
                        |_| TraceError::Corrupt("spin id out of range".into()),
                    )?))
                } else {
                    None
                },
            },
            TAG_WRITE => Event::Write {
                tid: t,
                addr: obj.delta()? as u64,
                value: value.ivarint()?,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
                stack: stack_idx.lookup(&stack_entries, "stack")?,
                atomic: if atomic_flag {
                    Some(order_from_u8(order_col.byte()?)?)
                } else {
                    None
                },
            },
            TAG_UPDATE => Event::Update {
                tid: t,
                addr: obj.delta()? as u64,
                old: value.ivarint()?,
                new: value2.ivarint()?,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
                stack: stack_idx.lookup(&stack_entries, "stack")?,
                order: order_from_u8(order_col.byte()?)?,
            },
            TAG_FENCE => Event::Fence {
                tid: t,
                order: order_from_u8(order_col.byte()?)?,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_MUTEX_LOCK => Event::MutexLock {
                tid: t,
                mutex: obj.delta()? as u64,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_MUTEX_UNLOCK => Event::MutexUnlock {
                tid: t,
                mutex: obj.delta()? as u64,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_COND_SIGNAL => Event::CondSignal {
                tid: t,
                cv: obj.delta()? as u64,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_COND_BROADCAST => Event::CondBroadcast {
                tid: t,
                cv: obj.delta()? as u64,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_COND_WAIT_RETURN => Event::CondWaitReturn {
                tid: t,
                cv: obj.delta()? as u64,
                mutex: obj2.delta()? as u64,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_BARRIER_ENTER => Event::BarrierEnter {
                tid: t,
                barrier: obj.delta()? as u64,
                gen: gen_col.delta()? as u64,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_BARRIER_LEAVE => Event::BarrierLeave {
                tid: t,
                barrier: obj.delta()? as u64,
                gen: gen_col.delta()? as u64,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_SEM_POST => Event::SemPost {
                tid: t,
                sem: obj.delta()? as u64,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_SEM_ACQUIRED => Event::SemAcquired {
                tid: t,
                sem: obj.delta()? as u64,
                pc: pc_idx.lookup(&pc_entries, "pc")?,
            },
            TAG_SPIN_ENTER => Event::SpinEnter {
                tid: t,
                spin: SpinLoopId(
                    u32::try_from(spin_col.uvarint()?)
                        .map_err(|_| TraceError::Corrupt("spin id out of range".into()))?,
                ),
            },
            TAG_SPIN_EXIT => {
                let spin = SpinLoopId(
                    u32::try_from(spin_col.uvarint()?)
                        .map_err(|_| TraceError::Corrupt("spin id out of range".into()))?,
                );
                let count = sr_meta.uvarint()?;
                if count > 1 << 20 {
                    return Err(TraceError::Corrupt("implausible spin-read count".into()));
                }
                spin_reads += count as usize;
                let mut reads = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let addr = sr_addr.delta()? as u64;
                    let pc = sr_meta.lookup(&pc_entries, "pc")?;
                    reads.push((addr, pc));
                }
                Event::SpinExit {
                    tid: t,
                    spin,
                    reads,
                }
            }
            TAG_OUTPUT => Event::Output {
                tid: t,
                value: value.ivarint()?,
            },
            _ => unreachable!("tag validated above"),
        };
        out.push(ev);
    }

    // Every cursor must land exactly on its column's end: leftover bytes
    // mean the columns and the kind stream disagree about the chunk's
    // shape — corruption the checksum may have missed only if the file
    // was rewritten wholesale.
    let cursors = [
        (&tid, "tid"),
        (&aux_tid, "aux-tid"),
        (&obj, "object"),
        (&obj2, "second object"),
        (&value, "value"),
        (&value2, "second value"),
        (&pc_idx, "pc index"),
        (&stack_idx, "stack index"),
        (&order_col, "order"),
        (&spin_col, "spin"),
        (&gen_col, "generation"),
        (&sr_addr, "spin-read address"),
        (&sr_meta, "spin-read"),
    ];
    for (cur, name) in cursors {
        if !cur.finished() {
            return Err(TraceError::Corrupt(format!(
                "trailing bytes in {name} column"
            )));
        }
    }
    Ok(spin_reads)
}
