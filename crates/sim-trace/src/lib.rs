//! Structured tracing for the SMT simulator.
//!
//! The simulator core stays observability-agnostic: it holds a
//! [`Tracer`] handle and emits typed [`TraceEvent`]s through it. When no
//! sink is attached (the default), `emit` is a branch on a `None` and
//! the event-construction closure is never evaluated — tracing costs
//! nothing unless switched on. Sinks are pluggable:
//!
//! * [`sinks::RingSink`] — bounded in-memory ring buffer with a
//!   cloneable inspection handle, for tests and programmatic analysis;
//! * [`chrome::ChromeTraceSink`] — Chrome trace-event JSON loadable in
//!   Perfetto / `chrome://tracing`, mapping interval metrics to counter
//!   tracks and governor/DVM decisions to instant events.
//!
//! The [`timing`] module provides the coarse wall-clock phase timers
//! used by run manifests.

pub mod chrome;
pub mod events;
pub mod sinks;
pub mod timing;

pub use events::{FlushReason, GovernorEvent, TraceEvent};

use parking_lot::Mutex;
use std::sync::Arc;

/// Receives trace events. Implementations decide retention and format.
pub trait TraceSink {
    fn record(&mut self, event: &TraceEvent);

    /// Push buffered output to its destination (file sinks).
    fn flush(&mut self) {}
}

/// Cloneable handle the instrumented code emits through. The default
/// (`Tracer::off()`) carries no sink: `emit` reduces to one `Option`
/// test and never builds the event.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<dyn TraceSink + Send>>>);

impl Tracer {
    /// A tracer with no sink; every `emit` is a no-op.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    pub fn new<S: TraceSink + Send + 'static>(sink: S) -> Tracer {
        Tracer(Some(Arc::new(Mutex::new(sink))))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Record one event. The closure runs only when a sink is attached,
    /// so call sites may capture and format freely.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            sink.lock().record(&build());
        }
    }

    pub fn flush(&self) {
        if let Some(sink) = &self.0 {
            sink.lock().flush();
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_on() {
            "Tracer(on)"
        } else {
            "Tracer(off)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_never_builds_events() {
        let tracer = Tracer::off();
        let mut built = false;
        tracer.emit(|| {
            built = true;
            TraceEvent::L2Miss {
                cycle: 0,
                tid: 0,
                addr: 0,
            }
        });
        assert!(!built);
        assert!(!tracer.is_on());
    }

    #[test]
    fn clones_share_one_sink() {
        let sink = sinks::RingSink::new(16);
        let handle = sink.handle();
        let a = Tracer::new(sink);
        let b = a.clone();
        a.emit(|| TraceEvent::L2Miss {
            cycle: 1,
            tid: 0,
            addr: 64,
        });
        b.emit(|| TraceEvent::L2Miss {
            cycle: 2,
            tid: 1,
            addr: 128,
        });
        assert_eq!(handle.len(), 2);
    }
}
