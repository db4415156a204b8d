//! Execution tracing in Chrome Trace Event Format (Perfetto-loadable).
//!
//! The simulator runs in two clock domains: each simulated device advances
//! its own `SimClock` by modeled kernel cost, while host worker threads live
//! on real wall time. A [`TraceSink`] collects events from both domains into
//! one timeline: the `ts` field always carries the *primary* clock of the
//! track the event sits on (simulated seconds for device tracks, host
//! microseconds since the sink's epoch for host tracks), and the opposite
//! domain rides along in `args` (`wall_us` / `sim_us`) so skew between the
//! two is inspectable.
//!
//! Track layout:
//! - process [`SIM_PID`] — simulated devices; tid = device id, plus the
//!   dedicated [`SYNC_TID`] track for ϕ-synchronisation spans (sync overlaps
//!   the θ-update kernels, so putting it on a device track would break B/E
//!   nesting).
//! - process [`HOST_PID`] — host worker threads; tid = worker index.
//!
//! Export sorts events by `(pid, tid, ts, seq)`, which makes per-track
//! timestamps monotonic in file order — a property the golden test asserts.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Trace process id for simulated devices.
pub const SIM_PID: u32 = 0;
/// Trace process id for host worker threads.
pub const HOST_PID: u32 = 1;
/// Thread id (within [`SIM_PID`]) of the dedicated ϕ-sync track.
pub const SYNC_TID: u32 = 1000;
/// Base thread id (within [`SIM_PID`]) of the per-device host→device copy
/// tracks: device `d`'s H2D engine traces on `H2D_TID_BASE + d`. The copy
/// engine runs one transfer at a time, so its spans nest cleanly; they
/// overlap the *compute* spans on the staging track — that overlap is the
/// point of the prefetch pipeline, and flow arrows tie each chunk's copy
/// to its kernel.
pub const H2D_TID_BASE: u32 = 2000;
/// Base thread id (within [`SIM_PID`]) of the per-device staging-compute
/// tracks: device `d`'s pipelined chunk kernels trace on
/// `STAGE_TID_BASE + d`, at their scheduled pipeline times (the raw
/// kernel spans on the `gpu{d}` track carry pre-pipelining clocks).
pub const STAGE_TID_BASE: u32 = 3000;
/// Base thread id (within [`SIM_PID`]) of the per-node tracks used by the
/// cluster layer: node `n`'s intra-node ϕ sync spans trace on
/// `NODE_TID_BASE + n` (they overlap across nodes, so they cannot share
/// the single [`SYNC_TID`] track), with flow arrows into the node-level
/// superstep span on [`SYNC_TID`].
pub const NODE_TID_BASE: u32 = 4000;

/// Chrome Trace Event phases used by the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// `"B"` — duration begin.
    Begin,
    /// `"E"` — duration end.
    End,
    /// `"i"` — instant.
    Instant,
    /// `"s"` — flow start.
    FlowStart,
    /// `"f"` — flow finish.
    FlowFinish,
}

impl EventKind {
    /// The Chrome `ph` field value.
    pub fn ph(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::FlowStart => "s",
            EventKind::FlowFinish => "f",
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (kernel name, `"phi_sync"`, …).
    pub name: String,
    /// Category — the phase label for kernel spans.
    pub cat: String,
    /// Chrome phase.
    pub kind: EventKind,
    /// Timestamp in microseconds on the owning track's primary clock.
    pub ts_us: f64,
    /// Track process id.
    pub pid: u32,
    /// Track thread id.
    pub tid: u32,
    /// Flow binding id (flow events only).
    pub flow_id: Option<u64>,
    /// Extra key/value payload.
    pub args: Vec<(String, Json)>,
}

/// Collects [`TraceEvent`]s from many threads and exports Chrome JSON.
#[derive(Debug)]
pub struct TraceSink {
    events: Mutex<Vec<(u64, TraceEvent)>>,
    seq: AtomicU64,
    next_flow: AtomicU64,
    epoch: Instant,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink {
            events: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            next_flow: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }
}

/// Converts simulated seconds to trace microseconds.
pub fn sim_us(seconds: f64) -> f64 {
    seconds * 1e6
}

impl TraceSink {
    /// A fresh sink; the host-clock epoch is the moment of creation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Microseconds of host wall time since this sink was created.
    pub fn host_now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Allocates a fresh flow id tying a `FlowStart` to its `FlowFinish`.
    pub fn new_flow_id(&self) -> u64 {
        self.next_flow.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, ev: TraceEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events.lock().unwrap().push((seq, ev));
    }

    /// Emits a B/E span on a simulated-device track. `start_s`/`end_s` are
    /// simulated seconds; `wall_us` (host-clock duration, if known) and any
    /// extra `args` are attached to the begin event.
    pub fn span_sim(
        &self,
        tid: u32,
        name: &str,
        cat: &str,
        start_s: f64,
        end_s: f64,
        mut args: Vec<(String, Json)>,
    ) {
        args.push(("wall_us".into(), Json::Num(self.host_now_us())));
        self.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            kind: EventKind::Begin,
            ts_us: sim_us(start_s),
            pid: SIM_PID,
            tid,
            flow_id: None,
            args,
        });
        self.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            kind: EventKind::End,
            ts_us: sim_us(end_s),
            pid: SIM_PID,
            tid,
            flow_id: None,
            args: Vec::new(),
        });
    }

    /// Emits a B/E span on a host worker track. Timestamps are host
    /// microseconds (from [`TraceSink::host_now_us`]); `sim_us_at_end`
    /// records the device clock at completion for cross-domain correlation.
    #[allow(clippy::too_many_arguments)] // the span's full address + both clocks
    pub fn span_host(
        &self,
        tid: u32,
        name: &str,
        cat: &str,
        start_us: f64,
        end_us: f64,
        sim_us_at_end: f64,
        mut args: Vec<(String, Json)>,
    ) {
        args.push(("sim_us".into(), Json::Num(sim_us_at_end)));
        self.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            kind: EventKind::Begin,
            ts_us: start_us,
            pid: HOST_PID,
            tid,
            flow_id: None,
            args,
        });
        self.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            kind: EventKind::End,
            ts_us: end_us,
            pid: HOST_PID,
            tid,
            flow_id: None,
            args: Vec::new(),
        });
    }

    /// Emits an instant event on a simulated-device track.
    pub fn instant_sim(&self, tid: u32, name: &str, cat: &str, ts_s: f64) {
        self.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            kind: EventKind::Instant,
            ts_us: sim_us(ts_s),
            pid: SIM_PID,
            tid,
            flow_id: None,
            args: vec![("wall_us".into(), Json::Num(self.host_now_us()))],
        });
    }

    /// Emits the start of a flow arrow at `(pid, tid, ts_s)`.
    pub fn flow_start(&self, pid: u32, tid: u32, name: &str, ts_s: f64, flow_id: u64) {
        self.push(TraceEvent {
            name: name.into(),
            cat: "flow".into(),
            kind: EventKind::FlowStart,
            ts_us: sim_us(ts_s),
            pid,
            tid,
            flow_id: Some(flow_id),
            args: Vec::new(),
        });
    }

    /// Emits the end of a flow arrow at `(pid, tid, ts_s)`.
    pub fn flow_finish(&self, pid: u32, tid: u32, name: &str, ts_s: f64, flow_id: u64) {
        self.push(TraceEvent {
            name: name.into(),
            cat: "flow".into(),
            kind: EventKind::FlowFinish,
            ts_us: sim_us(ts_s),
            pid,
            tid,
            flow_id: Some(flow_id),
            args: Vec::new(),
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the events in export order: `(pid, tid, ts, seq)`.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut evs: Vec<(u64, TraceEvent)> = self.events.lock().unwrap().clone();
        evs.sort_by(|(sa, a), (sb, b)| {
            (a.pid, a.tid)
                .cmp(&(b.pid, b.tid))
                .then(a.ts_us.total_cmp(&b.ts_us))
                .then(sa.cmp(sb))
        });
        evs.into_iter().map(|(_, e)| e).collect()
    }

    /// Exports the full trace as a Chrome Trace Event Format document:
    /// `{"traceEvents": [...], "displayTimeUnit": "ms"}`, with `M` metadata
    /// events naming every process and thread, followed by the payload
    /// events sorted so per-track timestamps are monotonic in file order.
    pub fn export_chrome_json(&self) -> String {
        let events = self.events();
        let mut out: Vec<Json> = Vec::with_capacity(events.len() + 8);

        let mut tracks: Vec<(u32, u32)> = events.iter().map(|e| (e.pid, e.tid)).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for &pid in &[SIM_PID, HOST_PID] {
            if tracks.iter().any(|&(p, _)| p == pid) {
                out.push(metadata_event(pid, None, "process_name", process_name(pid)));
            }
        }
        for &(pid, tid) in &tracks {
            out.push(metadata_event(
                pid,
                Some(tid),
                "thread_name",
                &track_name(pid, tid),
            ));
        }

        for e in &events {
            let mut obj = Json::obj()
                .with("name", e.name.as_str())
                .with("cat", e.cat.as_str())
                .with("ph", e.kind.ph())
                .with("ts", e.ts_us)
                .with("pid", e.pid)
                .with("tid", e.tid);
            if e.kind == EventKind::Instant {
                obj = obj.with("s", "t");
            }
            if let Some(id) = e.flow_id {
                obj = obj.with("id", id);
            }
            if e.kind == EventKind::FlowFinish {
                // Bind to the enclosing slice's end rather than its start.
                obj = obj.with("bp", "e");
            }
            if !e.args.is_empty() {
                obj = obj.with("args", Json::Obj(e.args.clone()));
            }
            out.push(obj);
        }

        Json::obj()
            .with("traceEvents", Json::Arr(out))
            .with("displayTimeUnit", "ms")
            .render()
    }
}

fn process_name(pid: u32) -> &'static str {
    if pid == SIM_PID {
        "simulated devices"
    } else {
        "host workers"
    }
}

fn track_name(pid: u32, tid: u32) -> String {
    match (pid, tid) {
        (SIM_PID, SYNC_TID) => "phi-sync".to_string(),
        (SIM_PID, t) if t >= NODE_TID_BASE => format!("node{}", t - NODE_TID_BASE),
        (SIM_PID, t) if t >= STAGE_TID_BASE => format!("gpu{}-stage", t - STAGE_TID_BASE),
        (SIM_PID, t) if t >= H2D_TID_BASE => format!("gpu{}-h2d", t - H2D_TID_BASE),
        (SIM_PID, t) => format!("gpu{t}"),
        (_, t) => format!("worker{t}"),
    }
}

fn metadata_event(pid: u32, tid: Option<u32>, name: &str, value: &str) -> Json {
    let mut obj = Json::obj()
        .with("name", name)
        .with("ph", "M")
        .with("pid", pid);
    if let Some(tid) = tid {
        obj = obj.with("tid", tid);
    }
    obj.with("args", Json::obj().with("name", value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_export_sorted_per_track() {
        let sink = TraceSink::new();
        sink.span_sim(1, "b", "sampling", 2.0, 3.0, Vec::new());
        sink.span_sim(0, "a", "sampling", 0.0, 1.0, Vec::new());
        sink.span_sim(0, "c", "theta", 1.0, 1.5, Vec::new());
        let evs = sink.events();
        // Track 0 events come first, in time order.
        assert_eq!(evs[0].tid, 0);
        let ts: Vec<f64> = evs.iter().filter(|e| e.tid == 0).map(|e| e.ts_us).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn export_is_valid_json_with_metadata() {
        let sink = TraceSink::new();
        sink.span_sim(
            0,
            "k",
            "phi",
            0.0,
            1.0,
            vec![("grid".into(), Json::Num(8.0))],
        );
        let id = sink.new_flow_id();
        sink.flow_start(SIM_PID, 0, "phi_reduce", 1.0, id);
        sink.flow_finish(SIM_PID, SYNC_TID, "phi_reduce", 1.0, id);
        sink.instant_sim(0, "phi_ready", "sync", 2.0);
        let doc = Json::parse(&sink.export_chrome_json()).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(evs
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("M")));
        assert!(evs
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("s")));
        assert!(evs
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("f")
                && e.get("bp").unwrap().as_str() == Some("e")));
    }

    #[test]
    fn staging_tracks_get_engine_names() {
        assert_eq!(track_name(SIM_PID, H2D_TID_BASE + 2), "gpu2-h2d");
        assert_eq!(track_name(SIM_PID, STAGE_TID_BASE), "gpu0-stage");
        assert_eq!(track_name(SIM_PID, NODE_TID_BASE + 1), "node1");
        assert_eq!(track_name(SIM_PID, 3), "gpu3");
    }

    #[test]
    fn host_spans_carry_sim_clock_arg() {
        let sink = TraceSink::new();
        let t0 = sink.host_now_us();
        sink.span_host(2, "iter 0", "host", t0, t0 + 5.0, 123.0, Vec::new());
        let evs = sink.events();
        let begin = evs.iter().find(|e| e.kind == EventKind::Begin).unwrap();
        assert_eq!(begin.pid, HOST_PID);
        assert!(begin.args.iter().any(|(k, _)| k == "sim_us"));
    }
}
