//! Wall-clock spans recorded around calls into the simulator's layers.
//!
//! Spans are kept in memory (name, start, end, parent, run id) and
//! written out once, when the benchmark ends, in the Chrome-trace shape
//! `workload::telemetry` already emits, so Perfetto opens both. A
//! disabled tracer records nothing; the untraced runs that give the
//! end-to-end metrics use one.

use std::time::Instant;

use netsim::TraceBuilder;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `topology.build`.
    pub name: &'static str,
    /// The run (one seeded repetition or one layer probe) it belongs to.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; `Tracer::off()` makes every call a no-op.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on()
        }
    }

    /// Tag the spans opened from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `enter` returned (spans close innermost first).
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Close every open span now (after a run panicked mid-span).
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.exit(Some(id));
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every closed span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the part of it that
    /// its child spans cover (children never overlap — one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The spans as a Chrome-trace JSON document: one track per run,
    /// nested by time, the layer (the name's prefix) as the category.
    pub fn chrome_json(&self) -> String {
        let mut tb = TraceBuilder::new();
        tb.process_name(1, "perfbench");
        let mut runs: Vec<u32> = self.spans.iter().map(|s| s.run).collect();
        runs.dedup();
        for run in runs {
            tb.thread_name(1, run, &format!("run {run}"));
        }
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            tb.complete(s.name, layer, 1, s.run, s.start_ns, s.dur_ns());
        }
        tb.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        let outer = t.enter("a.outer");
        t.span("b.inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let own = t.self_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0] + t.spans()[1].dur_ns(), t.spans()[0].dur_ns());
        assert!(t.chrome_json().contains("\"cat\":\"b\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("a.x");
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
