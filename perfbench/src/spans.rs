//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code, around each call into
//! a public function of the repository's crates; nothing inside those
//! crates is instrumented. The benchmark is single-threaded, so a span's
//! children never overlap each other and its self time is its duration
//! minus the sum of its children's durations.

use std::time::Instant;

use swat_serve::json::Json;

/// One timed call, in seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `sim.run` or `accel.run.lf16`.
    pub name: String,
    /// Start time.
    pub start_s: f64,
    /// End time.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// End minus start.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans while enabled; calls straight through otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with recording initially on or off.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span called `name`. When recording is off this is
    /// a plain call: no clock is read and nothing is stored.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_s();
            }
        }
        own
    }

    /// The spans as JSON (name, start, end, parent index), with each
    /// span's derived self time.
    pub fn to_json(&self) -> Json {
        let own = self.self_times();
        Json::arr(self.spans.iter().zip(own).map(|(s, self_s)| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("start_s", Json::Num(s.start_s)),
                ("end_s", Json::Num(s.end_s)),
                ("parent", Json::maybe(s.parent, |p| Json::Int(p as i64))),
                ("self_s", Json::Num(self_s)),
            ])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_spans_and_derives_self_time() {
        let mut tr = Tracer::new(true);
        tr.span("root", |tr| {
            tr.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("b", |tr| tr.span("c", |_| ()));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let own = tr.self_times();
        let total: f64 = own.iter().sum();
        assert!((total - spans[0].duration_s()).abs() < 1e-9);
        assert!(own.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn records_nothing_when_off() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
