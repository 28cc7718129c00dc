//! In-memory spans around calls into the library's public API.
//!
//! Each span records its name, start, end, parent span and request id.
//! Spans go into a fixed-size ring, so the cost of recording stays the same
//! for the whole run, and the ring is written out as JSON lines when the
//! run ends.  A disabled tracer records nothing and reads no clock.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An open span; closing it records it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Spans kept: the newest 2^16.
const RING: usize = 1 << 16;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    ring: Vec<Span>,
    recorded: u64,
    next_id: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            ring: Vec::with_capacity(RING),
            recorded: 0,
            next_id: 1,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn open(&mut self, req: u64, parent: u64, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            req,
            name,
            start: Instant::now(),
        }
    }

    /// Record the span and return its duration in microseconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            name: open.name,
            start_ns: open.start.saturating_duration_since(self.t0).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.t0).as_nanos() as u64,
        };
        if self.ring.len() < RING {
            self.ring.push(span);
        } else {
            self.ring[(self.recorded % RING as u64) as usize] = span;
        }
        self.recorded += 1;
        (end - open.start).as_secs_f64() * 1e6
    }

    /// Run `f` inside a span when tracing is on; returns its result and the
    /// span's duration in microseconds (0 when off).
    pub fn span<R>(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        if !self.on {
            return (f(), 0.0);
        }
        let open = self.open(req, parent, name);
        let result = f();
        (result, self.close(open))
    }

    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    pub fn kept(&self) -> usize {
        self.ring.len()
    }

    /// Write the ring, oldest span first, as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let split = if self.ring.len() < RING {
            0
        } else {
            (self.recorded % RING as u64) as usize
        };
        for s in self.ring[split..].iter().chain(&self.ring[..split]) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
