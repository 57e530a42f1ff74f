//! Workload attachment: trace sources and thread descriptors.

use crate::config::MemPolicy;
use crate::request::MemOp;

/// A stream of memory operations — the program under profile.
///
/// Implementations must be deterministic: the `workloads` crate seeds every
/// generator explicitly. The `Send` bound lets whole machines migrate into
/// long-lived shard worker threads (fleetd) — generators are plain seeded
/// state, so this costs implementors nothing.
pub trait TraceSource: Send {
    /// The next operation, or `None` when the program finishes.
    fn next_op(&mut self) -> Option<MemOp>;

    /// Virtual address-space size this trace touches, in bytes. The machine
    /// sizes the thread's page table from this.
    fn footprint(&self) -> usize;
}

/// A workload thread pinned to a core with a memory placement policy
/// (the paper's "running environment": pinned cores + mapped memory nodes).
pub struct Workload {
    /// Report label, e.g. `"519.lbm_r"` or `"GUPS-2"`.
    pub name: String,
    /// The op stream.
    pub trace: Box<dyn TraceSource>,
    /// Page placement policy for this thread's address space.
    pub policy: MemPolicy,
    /// Which CXL device backs this thread's CXL pages.
    pub cxl_device: u8,
}

impl Workload {
    pub fn new(
        name: impl Into<String>,
        trace: Box<dyn TraceSource>,
        policy: MemPolicy,
    ) -> Workload {
        Workload {
            name: name.into(),
            trace,
            policy,
            cxl_device: 0,
        }
    }
}

/// A sequential read sweep over `footprint` bytes, `iters` times — the
/// simplest possible streaming trace, used by unit tests (rich generators
/// live in the `workloads` crate).
pub struct SeqReadTrace {
    footprint: usize,
    stride: usize,
    remaining: usize,
    pos: u64,
    work: u32,
}

impl SeqReadTrace {
    pub fn new(footprint: usize, total_ops: usize) -> Self {
        SeqReadTrace {
            footprint,
            stride: 64,
            remaining: total_ops,
            pos: 0,
            work: 2,
        }
    }

    pub fn with_work(mut self, work: u32) -> Self {
        self.work = work;
        self
    }
}

impl TraceSource for SeqReadTrace {
    fn next_op(&mut self) -> Option<MemOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = self.pos;
        self.pos = (self.pos + self.stride as u64) % self.footprint as u64;
        Some(MemOp::load(addr).with_work(self.work))
    }

    fn footprint(&self) -> usize {
        self.footprint
    }
}

/// A sequential read+write sweep (`write_every` gives the store mix).
pub struct SeqRwTrace {
    inner: SeqReadTrace,
    write_every: usize,
    n: usize,
}

impl SeqRwTrace {
    pub fn new(footprint: usize, total_ops: usize, write_every: usize) -> Self {
        assert!(write_every > 0);
        SeqRwTrace {
            inner: SeqReadTrace::new(footprint, total_ops),
            write_every,
            n: 0,
        }
    }
}

impl TraceSource for SeqRwTrace {
    fn next_op(&mut self) -> Option<MemOp> {
        let op = self.inner.next_op()?;
        self.n += 1;
        if self.n.is_multiple_of(self.write_every) {
            Some(MemOp::store(op.vaddr).with_work(op.work))
        } else {
            Some(op)
        }
    }

    fn footprint(&self) -> usize {
        self.inner.footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::AccessKind;

    #[test]
    fn seq_trace_wraps_and_terminates() {
        let mut t = SeqReadTrace::new(256, 10);
        let mut addrs = Vec::new();
        while let Some(op) = t.next_op() {
            addrs.push(op.vaddr);
        }
        assert_eq!(addrs.len(), 10);
        assert!(addrs.iter().all(|&a| a < 256));
        assert_eq!(addrs[0], 0);
        assert_eq!(addrs[4], 0); // wrapped after 4 lines of 64B
    }

    #[test]
    fn rw_trace_mixes_stores() {
        let mut t = SeqRwTrace::new(1 << 20, 100, 4);
        let mut stores = 0;
        while let Some(op) = t.next_op() {
            if matches!(op.kind, AccessKind::Store) {
                stores += 1;
            }
        }
        assert_eq!(stores, 25);
    }
}
