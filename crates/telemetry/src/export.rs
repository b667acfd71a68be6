//! Snapshot exporters: chrome-trace JSON and Prometheus text exposition.
//!
//! Exporters run at quiescent points (end of a run, test teardown) and are
//! the *only* readers of the rings; they allocate freely — the
//! zero-allocation contract covers probes, not snapshots. Output is
//! deterministic given deterministic timestamps: rings are walked in
//! registration (tid) order, slots in push order.

use crate::{
    Counter, Hist, Phase, Recorder, HIST_BUCKETS, KIND_INSTANT, KIND_SIM_SPAN, KIND_SPAN,
    SLOT_WORDS,
};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Escapes a label for embedding in a JSON string / Prometheus label value.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn snapshot_rings(rec: &Recorder) -> Vec<Arc<crate::ThreadRing>> {
    let mut rings = rec.rings.lock().unwrap().clone();
    rings.sort_by_key(|r| r.tid);
    rings
}

/// Events the snapshotted rings have wrapped over: a reader must know the
/// export is short by this many.
fn events_dropped(rings: &[Arc<crate::ThreadRing>]) -> u64 {
    rings.iter().map(|r| r.dropped()).sum()
}

/// One decoded ring slot.
struct Event {
    kind: u64,
    phase: Phase,
    track: u32,
    t0: u64,
    t1: u64,
    args: [u64; 3],
}

fn decode_events(ring: &crate::ThreadRing) -> Vec<Event> {
    let head = ring.head.load(Ordering::Acquire);
    let n = head.min(ring.capacity as u64);
    let mut events = Vec::with_capacity(n as usize);
    for seq in (head - n)..head {
        let slot = (seq as usize % ring.capacity) * SLOT_WORDS;
        let w = &ring.words;
        let meta = w[slot].load(Ordering::Relaxed);
        let kind = meta & 0xf;
        let Some(phase) = Phase::from_u8(((meta >> 4) & 0xff) as u8) else {
            continue;
        };
        if kind == 0 {
            continue;
        }
        events.push(Event {
            kind,
            phase,
            track: ((meta >> 16) & 0xffff_ffff) as u32,
            t0: w[slot + 1].load(Ordering::Relaxed),
            t1: w[slot + 2].load(Ordering::Relaxed),
            args: [
                w[slot + 3].load(Ordering::Relaxed),
                w[slot + 4].load(Ordering::Relaxed),
                w[slot + 5].load(Ordering::Relaxed),
            ],
        });
    }
    events
}

fn push_args(out: &mut String, phase: Phase, args: [u64; 3]) {
    let names = phase.arg_names();
    let _ = write!(
        out,
        "\"args\":{{\"{}\":{},\"{}\":{},\"{}\":{}}}",
        names[0], args[0], names[1], args[1], names[2], args[2]
    );
}

/// Renders every retained event as chrome-trace JSON. Host threads live
/// under pid 0 (one `tid` per registered ring); simulated-SoC spans live
/// under pid 1 (one `tid` per simulated worker/track).
pub(crate) fn chrome_trace(rec: Option<&Recorder>) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };
    emit(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"host\"}}".into(),
        &mut out,
    );
    emit(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"simulated-soc\"}}"
            .into(),
        &mut out,
    );
    if let Some(rec) = rec {
        let rings = snapshot_rings(rec);
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"name\":\"events_dropped\",\"args\":{{\"count\":{}}}}}",
                events_dropped(&rings)
            ),
            &mut out,
        );
        let mut sim_tracks: Vec<u32> = Vec::new();
        for ring in &rings {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                    ring.tid,
                    escape(&ring.label)
                ),
                &mut out,
            );
        }
        for ring in &rings {
            for ev in decode_events(ring) {
                let ts_us = ev.t0 as f64 / 1_000.0;
                let mut line = String::with_capacity(160);
                let _ = write!(
                    line,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",",
                    ev.phase.name(),
                    ev.phase.category()
                );
                match ev.kind {
                    KIND_SPAN => {
                        let dur_us = (ev.t1 - ev.t0) as f64 / 1_000.0;
                        let _ = write!(
                            line,
                            "\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},",
                            ring.tid
                        );
                    }
                    KIND_INSTANT => {
                        let _ = write!(
                            line,
                            "\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{ts_us:.3},",
                            ring.tid
                        );
                    }
                    KIND_SIM_SPAN => {
                        if !sim_tracks.contains(&ev.track) {
                            sim_tracks.push(ev.track);
                        }
                        let dur_us = (ev.t1 - ev.t0) as f64 / 1_000.0;
                        let _ = write!(
                            line,
                            "\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},",
                            ev.track
                        );
                    }
                    _ => continue,
                }
                push_args(&mut line, ev.phase, ev.args);
                line.push('}');
                emit(line, &mut out);
            }
        }
        sim_tracks.sort_unstable();
        for track in sim_tracks {
            let label = if track == crate::SIM_SCHEDULER_TRACK {
                "sim-scheduler".to_string()
            } else {
                format!("sim-worker-{track}")
            };
            emit(
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"name\":\"thread_name\",\"args\":{{\"name\":\"{label}\"}}}}"
                ),
                &mut out,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Snapshots counters, histograms and per-worker tallies in Prometheus text
/// exposition format.
pub(crate) fn prometheus_text(rec: Option<&Recorder>) -> String {
    let mut out = String::new();
    let Some(rec) = rec else {
        return out;
    };
    for idx in 0..Counter::COUNT {
        let Some(counter) = Counter::from_usize(idx) else {
            continue;
        };
        let v = rec.counters[idx].load(Ordering::Relaxed);
        let name = counter.name();
        let _ = writeln!(out, "# TYPE cicero_{name}_total counter");
        let _ = writeln!(out, "cicero_{name}_total {v}");
    }
    for idx in 0..Hist::COUNT {
        let Some(hist) = Hist::from_usize(idx) else {
            continue;
        };
        let h = &rec.hists[idx];
        let name = hist.name();
        let _ = writeln!(out, "# TYPE cicero_{name} histogram");
        let mut cumulative = 0u64;
        let mut last_nonzero = 0usize;
        for (i, b) in h.buckets.iter().enumerate() {
            if b.load(Ordering::Relaxed) > 0 {
                last_nonzero = i;
            }
        }
        for (i, b) in h.buckets.iter().enumerate().take(last_nonzero + 1) {
            cumulative += b.load(Ordering::Relaxed);
            if cumulative == 0 && i < last_nonzero {
                continue; // skip the empty low tail, keep one leading zero
            }
            // Bucket i counts values < 2^i.
            let le = if i >= 63 { u64::MAX } else { 1u64 << i };
            let _ = writeln!(out, "cicero_{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let count = h.count.load(Ordering::Relaxed);
        let _ = writeln!(out, "cicero_{name}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "cicero_{name}_sum {}", h.sum.load(Ordering::Relaxed));
        let _ = writeln!(out, "cicero_{name}_count {count}");
    }
    let rings = snapshot_rings(rec);
    let _ = writeln!(out, "# TYPE cicero_telemetry_events_dropped_total counter");
    let _ = writeln!(
        out,
        "cicero_telemetry_events_dropped_total {}",
        events_dropped(&rings)
    );
    let _ = writeln!(out, "# TYPE cicero_pool_worker_busy_ns counter");
    let _ = writeln!(out, "# TYPE cicero_pool_worker_idle_ns counter");
    let _ = writeln!(out, "# TYPE cicero_pool_worker_jobs counter");
    for ring in &rings {
        let busy = ring.busy_ns.load(Ordering::Relaxed);
        let idle = ring.idle_ns.load(Ordering::Relaxed);
        let jobs = ring.jobs.load(Ordering::Relaxed);
        if busy == 0 && idle == 0 && jobs == 0 {
            continue;
        }
        let labels = format!(
            "{{tid=\"{}\",thread=\"{}\"}}",
            ring.tid,
            escape(&ring.label)
        );
        let _ = writeln!(out, "cicero_pool_worker_busy_ns{labels} {busy}");
        let _ = writeln!(out, "cicero_pool_worker_idle_ns{labels} {idle}");
        let _ = writeln!(out, "cicero_pool_worker_jobs{labels} {jobs}");
    }
    let _ = writeln!(out, "# TYPE cicero_hist_buckets gauge");
    let _ = writeln!(out, "cicero_hist_buckets {HIST_BUCKETS}");
    out
}
