//! Host-speed calibration.
//!
//! On a shared host, neighbours change how fast every instruction runs:
//! over minutes, the same op's wall and CPU time drift by up to 2x, which
//! would swamp any change to the program. The benchmark therefore times a
//! fixed kernel of its own in the same process, between ops, and reports
//! every timed metric scaled to the speed at which the kernel takes
//! [`REF_MS`]. The kernel is benchmark code, so no change to the program
//! can move it; it mixes the work the program does most (varint encode
//! and decode, multiplicative hashing, scattered updates of a table
//! larger than the L2 cache).
//!
//! The streamed ops keep both vCPUs busy (decode-ahead thread and
//! detector), and a neighbour can slow one vCPU and not the other, so
//! when the process may use more than one CPU each sample runs the
//! kernel on the calling thread and, at the same time, on a helper
//! thread, and takes the mean of the two times.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Kernel time, in ms, that defines reference speed.
pub const REF_MS: f64 = 5.0;

/// Table the kernel scatters into: 4 MiB of u64.
const TABLE_WORDS: usize = 1 << 19;
const VALUES_PER_ROUND: usize = 20_000;
const ROUNDS: u64 = 4;

thread_local! {
    static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![1; TABLE_WORDS]);
    static HELPER: Option<Helper> = std::thread::available_parallelism()
        .is_ok_and(|n| n.get() > 1)
        .then(Helper::spawn);
}

/// A thread that runs the kernel each time it is told to and sends back
/// its time. It ends, and is joined, when the thread that owns it exits.
struct Helper {
    go: Option<Sender<()>>,
    done: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Helper {
        let (go, go_rx) = channel::<()>();
        let (done_tx, done) = channel();
        let thread = std::thread::spawn(move || {
            while go_rx.recv().is_ok() {
                if done_tx.send(time_kernel()).is_err() {
                    break;
                }
            }
        });
        Helper {
            go: Some(go),
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop.
        self.go.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Run the kernel on this thread, and on a helper thread at the same
/// time when there is one, and return the mean of their wall times in ms.
pub fn sample_ms() -> f64 {
    HELPER.with(|helper| {
        let Some(h) = helper else {
            return time_kernel();
        };
        h.go.as_ref()
            .expect("the helper's channel is open while it is in use")
            .send(())
            .expect("the calibration helper thread is running");
        let mine = time_kernel();
        let theirs = h
            .done
            .recv()
            .expect("the calibration helper thread answers");
        (mine + theirs) / 2.0
    })
}

fn time_kernel() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

fn kernel() -> u64 {
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let mask = TABLE_WORDS - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        let mut bytes: Vec<u8> = Vec::with_capacity(VALUES_PER_ROUND * 10);
        for round in 0..ROUNDS {
            bytes.clear();
            for _ in 0..VALUES_PER_ROUND {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let mut v = (x >> (x & 31)) ^ round;
                loop {
                    let b = (v & 0x7f) as u8;
                    v >>= 7;
                    if v == 0 {
                        bytes.push(b);
                        break;
                    }
                    bytes.push(b | 0x80);
                }
            }
            let (mut v, mut shift) = (0u64, 0u32);
            for &b in black_box(&bytes) {
                v |= u64::from(b & 0x7f) << shift;
                shift += 7;
                if b & 0x80 == 0 {
                    let i = (v.wrapping_mul(0x100_0000_01b3) as usize) & mask;
                    table[i] = table[i].wrapping_add(v);
                    acc ^= table[(i ^ 0x5555) & mask];
                    v = 0;
                    shift = 0;
                }
            }
        }
        acc
    })
}
