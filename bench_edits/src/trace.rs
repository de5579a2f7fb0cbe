//! The traced run's instruments: an in-memory span log written out as
//! Chrome trace-event JSON at the end of the run, and a translator wrapper
//! that timestamps every per-particle `translate_state` call.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the library is instrumented beyond the
//! `core::metrics` counters it already has.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use depgraph::{ExecGraph, IncrementalTranslator};
use incremental::{StateTranslator, TranslateCtx};
use ppl::{LogWeight, PplError};
use rand::RngCore;

use crate::json::Json;

/// One completed span: a named interval with the edit it belongs to.
#[derive(Debug)]
struct Span {
    /// Layer or phase name.
    name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    end_ns: u64,
    /// The edit (request) the span serves, `None` for set-up and
    /// end-of-session work.
    edit: Option<usize>,
    /// Numeric annotations shown in the trace viewer.
    args: Vec<(&'static str, f64)>,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `t`.
    fn ns(&self, t: Instant) -> u64 {
        since(self.epoch, t)
    }

    /// Records the span `[start, end]`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        edit: Option<usize>,
    ) {
        self.record_ns(name, self.ns(start), self.ns(end), edit, Vec::new());
    }

    /// Records a span given in epoch nanoseconds, with annotations.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        edit: Option<usize>,
        args: Vec<(&'static str, f64)>,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            edit,
            args,
        });
    }

    /// Renders the log as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps), which Perfetto and `chrome://tracing`
    /// open directly. Spans nest by time on one track.
    pub fn to_chrome_json(&self) -> String {
        let str = |s: &str| Json::Str(s.to_string());
        let events = self.spans.iter().map(|s| {
            let edit = s.edit.map(|e| ("edit".to_string(), Json::Num(e as f64)));
            let args = edit
                .into_iter()
                .chain(s.args.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))))
                .collect();
            Json::Obj(vec![
                ("name".into(), str(s.name)),
                ("cat".into(), str("bench_edits")),
                ("ph".into(), str("X")),
                ("pid".into(), Json::Num(1.0)),
                ("tid".into(), Json::Num(1.0)),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("args".into(), Json::Obj(args)),
            ])
        });
        let doc = Json::Obj(vec![
            ("displayTimeUnit".into(), str("ms")),
            ("traceEvents".into(), Json::Arr(events.collect())),
        ]);
        format!("{doc}\n")
    }
}

fn since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// An [`IncrementalTranslator`] that timestamps each `translate_state`
/// call. The spans are kept per call and read back once the stage is over.
#[derive(Debug)]
pub struct TimedTranslator {
    inner: IncrementalTranslator,
    epoch: Instant,
    calls: Mutex<Vec<(u64, u64)>>,
}

impl TimedTranslator {
    /// Wraps `inner`, timing calls against `epoch`.
    pub fn new(inner: IncrementalTranslator, epoch: Instant, particles: usize) -> TimedTranslator {
        TimedTranslator {
            inner,
            epoch,
            calls: Mutex::new(Vec::with_capacity(particles)),
        }
    }

    /// Takes the `(start_ns, end_ns)` interval of every call so far.
    pub fn take_calls(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.calls.lock().expect("call log lock poisoned"))
    }
}

impl StateTranslator<Arc<ExecGraph>> for TimedTranslator {
    fn translate_state(
        &self,
        state: &Arc<ExecGraph>,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(Arc<ExecGraph>, LogWeight), PplError> {
        let start = Instant::now();
        let out = self.inner.translate_state(state, ctx, rng);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("call log lock poisoned")
            .push((since(self.epoch, start), since(self.epoch, end)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_is_valid_json_with_nested_spans() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch);
        log.record_ns("edit", 1_000, 9_000, Some(0), vec![]);
        log.record_ns("stage", 2_000, 8_000, Some(0), vec![("particles", 4.0)]);
        log.record_ns("setup", 0, 500, None, vec![("bad", f64::NAN)]);
        let doc = Json::parse(&log.to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let ts = |i: usize, k: &str| events[i].get(k).unwrap().as_f64().unwrap();
        assert!(ts(0, "ts") <= ts(1, "ts"));
        assert!(ts(1, "ts") + ts(1, "dur") <= ts(0, "ts") + ts(0, "dur"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("particles")
                .unwrap()
                .as_f64(),
            Some(4.0)
        );
    }
}
