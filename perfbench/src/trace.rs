//! In-memory span recorder for the traced run, with a Chrome trace
//! export and a self-time table.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public entry points; nothing inside the program is
//! instrumented. A span's name is `<layer>.<kind>[.<detail>...]`, e.g.
//! `arch.stage.dcgan.red.s1`; the self-time table groups by
//! `<layer>.<kind>`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The benchmark iteration the span belongs to.
    pub iter: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: impl Into<String>, iter: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            iter,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in ms, of every span named exactly `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans as Chrome trace events of process `pid` (complete `X`
    /// events, µs timestamps, the span id, parent id and iteration in
    /// `args`), which Perfetto and `chrome://tracing` open directly.
    pub fn chrome_events(&self, pid: u32) -> Vec<String> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{},\"iter\":{}}}}}",
                    s.name,
                    layer_of(&s.name),
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3,
                    s.parent.map_or(-1, |p| p as i64),
                    s.iter,
                )
            })
            .collect()
    }

    /// Self time (duration minus the time its child spans cover) summed
    /// per `<layer>.<kind>` group, in ms.
    pub fn self_time_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut groups: BTreeMap<String, f64> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *groups.entry(group_of(&s.name)).or_default() +=
                s.dur_ns().saturating_sub(child) as f64 / 1e6;
        }
        groups
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn group_of(name: &str) -> String {
    name.splitn(3, '.').take(2).collect::<Vec<_>>().join(".")
}
