//! In-memory spans recorded by the benchmark's own code around every
//! call it makes into a layer, written out as JSONL when the run ends.
//! Nothing inside `crates/` is instrumented.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval. `parent` indexes the same tracer's span list;
/// spans of one transaction share `txn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub txn: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span list; all tracers of a run share an epoch so their
/// timestamps are comparable.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: u32, txn: u64) -> u32 {
        let now = self.now_ns();
        self.push(name, parent, txn, now, now)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a finished span.
    pub fn push(&mut self, name: &'static str, parent: u32, txn: u64, start: u64, end: u64) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            txn,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a child span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        txn: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, txn);
        let out = f();
        self.close(id);
        out
    }
}

/// Each span's self time: its duration minus its children's. The
/// driver's spans are strictly sequential, so children never overlap
/// each other or overhang their parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let parent = &mut own[s.parent as usize];
            *parent = parent.saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Writes every tracer's spans as one JSON object per line, stopping
/// each tracer after `max_roots` root spans (with their children) so a
/// long run does not leave a gigabyte behind. Ids are made unique
/// across tracers by offsetting each list.
pub fn write_jsonl(path: &Path, tracers: &[(String, &Tracer)], max_roots: usize) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut offset = 0u64;
    for (owner, tracer) in tracers {
        let selfs = self_times(&tracer.spans);
        let mut roots = 0;
        for (i, (s, self_ns)) in tracer.spans.iter().zip(selfs).enumerate() {
            roots += usize::from(s.parent == NO_PARENT);
            if roots > max_roots {
                break;
            }
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => (offset + u64::from(p)).to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"txn\":{},\"owner\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                offset + i as u64,
                parent,
                s.txn,
                owner,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns
            )?;
        }
        offset += tracer.spans.len() as u64;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start: u64, end: u64) -> Span {
        Span {
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            txn: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(NO_PARENT, 0, 100),
            span(0, 10, 30),
            span(0, 40, 90),
            span(2, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn children_plus_self_sum_to_the_span() {
        let spans = [span(NO_PARENT, 5, 105), span(0, 5, 25), span(0, 25, 80)];
        let selfs = self_times(&spans);
        let kids: u64 = spans[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(selfs[0] + kids, spans[0].duration_ns());
    }
}
