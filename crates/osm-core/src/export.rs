//! Exporters for the observability layer: Chrome tracing JSON, textual
//! pipeline diagrams, and machine-readable metrics JSON.
//!
//! All exporters are pure functions from recorded data ([`EventLog`],
//! [`MetricsReport`]) plus naming context (spec table, [`ManagerTable`]) to
//! `String`; callers decide where the bytes go. The Chrome exporter emits
//! the Trace Event Format understood by `chrome://tracing` and Perfetto:
//! one *process* per operation class (spec), one *thread* lane per OSM,
//! `"X"` complete events for state residencies and `"i"` instant events for
//! token transactions and stall charges.

use crate::ids::OsmId;
use crate::machine::Machine;
use crate::manager::ManagerTable;
use crate::observe::{EventLog, MetricsReport, ObservedEvent};
use crate::spec::StateMachineSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    esc(s)
}

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn manager_name(managers: &ManagerTable, id: crate::ids::ManagerId) -> String {
    managers
        .try_get(id)
        .map(|m| m.name().to_owned())
        .unwrap_or_else(|| format!("<unknown {id}>"))
}

/// Incremental writer for Chrome Trace Event Format documents (the
/// JSON-object form with a `traceEvents` array, understood by
/// `chrome://tracing` and Perfetto).
///
/// [`chrome_trace`] renders machine event logs through it, and the
/// `simfarm` crate's farm-schedule exporter reuses it for fleet-level
/// traces, so every trace this workspace emits shares one writer and one
/// envelope shape. Event `name`s are escaped by the builder; `args_json`
/// parameters are embedded verbatim and must already be a valid JSON
/// object literal (use [`json_escape`] for string members).
#[derive(Debug, Default)]
pub struct TraceJsonBuilder {
    events: Vec<String>,
}

impl TraceJsonBuilder {
    /// An empty builder.
    pub fn new() -> TraceJsonBuilder {
        TraceJsonBuilder::default()
    }

    /// Events queued so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been queued yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `"M"` metadata event naming a process track.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{}"}}}}"#,
            esc(name)
        ));
    }

    /// `"M"` metadata event naming a thread lane within a process track.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
            esc(name)
        ));
    }

    /// `"X"` complete event: a slice of `dur` trace-time units at `ts`.
    pub fn complete(&mut self, name: &str, pid: u64, tid: u64, ts: u64, dur: u64, args_json: &str) {
        self.events.push(format!(
            r#"{{"name":"{}","ph":"X","pid":{pid},"tid":{tid},"ts":{ts},"dur":{dur},"args":{args_json}}}"#,
            esc(name)
        ));
    }

    /// `"i"` thread-scoped instant event at `ts`.
    pub fn instant(&mut self, name: &str, pid: u64, tid: u64, ts: u64, args_json: &str) {
        self.events.push(format!(
            r#"{{"name":"{}","ph":"i","pid":{pid},"tid":{tid},"ts":{ts},"s":"t","args":{args_json}}}"#,
            esc(name)
        ));
    }

    /// Closes the document: the `traceEvents` array plus an `otherData`
    /// object holding the given counters, in the given order.
    pub fn finish(self, other_data: &[(&str, u64)]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let n = self.events.len();
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            if i + 1 < n {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (key, value)) in other_data.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{value}", esc(key));
        }
        out.push_str("}}");
        out
    }
}

/// Renders an [`EventLog`] as Chrome Trace Event Format JSON
/// (`chrome://tracing` / Perfetto / `about:tracing`). One control step maps
/// to one microsecond of trace time.
///
/// Grouping: `pid` = spec index (named after the operation class), `tid` =
/// OSM id. State residencies become `"X"` complete events; token
/// transactions and stall charges become `"i"` instant events on the same
/// lane.
pub fn chrome_trace(
    log: &EventLog,
    specs: &[Arc<StateMachineSpec>],
    managers: &ManagerTable,
) -> String {
    // First pass: which spec does each OSM instantiate, and how far does the
    // log reach? (Token events do not carry the spec index.)
    let mut osm_spec: BTreeMap<OsmId, u32> = BTreeMap::new();
    let mut end_cycle: u64 = 0;
    for ev in log.iter() {
        end_cycle = end_cycle.max(ev.cycle());
        match ev {
            ObservedEvent::Transition(t) => {
                osm_spec.insert(t.osm, t.spec);
            }
            ObservedEvent::Stall(s) => {
                osm_spec.insert(s.osm, s.spec);
            }
            ObservedEvent::Token(_) => {}
        }
    }
    let spec_of = |osm: OsmId| osm_spec.get(&osm).copied().unwrap_or(0);
    let state_name = |spec: u32, state: crate::ids::StateId| -> String {
        match specs.get(spec as usize) {
            Some(s) => s.state_name(state).to_owned(),
            None => format!("{state}"),
        }
    };

    let mut trace = TraceJsonBuilder::new();
    // Metadata: one process per spec, one thread lane per OSM.
    for (idx, spec) in specs.iter().enumerate() {
        trace.process_name(idx as u64, spec.name());
    }
    for (&osm, &spec) in &osm_spec {
        trace.thread_name(u64::from(spec), u64::from(osm.0), &osm.to_string());
    }

    // Second pass: fold transitions into state residencies; emit instants.
    let mut cur: BTreeMap<OsmId, (crate::ids::StateId, u64)> = BTreeMap::new();
    for ev in log.iter() {
        match ev {
            ObservedEvent::Transition(t) => {
                if let Some((state, since)) = cur.remove(&t.osm) {
                    // Skip idle-state lanes: `started` marks a leave from the
                    // initial state, whose residency is not an execution step.
                    if !t.started && state == t.from {
                        trace.complete(
                            &state_name(t.spec, state),
                            u64::from(t.spec),
                            u64::from(t.osm.0),
                            since,
                            t.cycle - since,
                            &format!(r#"{{"edge":"{}"}}"#, t.edge),
                        );
                    }
                }
                if !t.completed {
                    cur.insert(t.osm, (t.to, t.cycle));
                }
            }
            ObservedEvent::Token(t) => {
                trace.instant(
                    &format!(
                        "{} {}({})",
                        t.outcome,
                        t.op,
                        manager_name(managers, t.manager)
                    ),
                    u64::from(spec_of(t.osm)),
                    u64::from(t.osm.0),
                    t.cycle,
                    &format!(r#"{{"ident":"{}","edge":"{}"}}"#, t.ident, t.edge),
                );
            }
            ObservedEvent::Stall(s) => {
                trace.instant(
                    &format!("stall {}({})", s.op, manager_name(managers, s.manager)),
                    u64::from(s.spec),
                    u64::from(s.osm.0),
                    s.cycle,
                    &format!(r#"{{"state":"{}"}}"#, esc(&state_name(s.spec, s.state))),
                );
            }
        }
    }
    // Close still-open residencies at the end of the covered window.
    for (osm, (state, since)) in cur {
        let spec = spec_of(osm);
        trace.complete(
            &state_name(spec, state),
            u64::from(spec),
            u64::from(osm.0),
            since,
            (end_cycle + 1).saturating_sub(since),
            "{}",
        );
    }

    trace.finish(&[
        ("events_recorded", log.total()),
        ("events_dropped", log.dropped()),
    ])
}

/// Convenience wrapper: exports the machine's own event log, if one is
/// installed (see [`Machine::enable_event_log`]).
pub fn chrome_trace_for<S: 'static>(machine: &Machine<S>) -> Option<String> {
    machine
        .event_log()
        .map(|log| chrome_trace(log, machine.specs(), &machine.managers))
}

/// Renders a gem5-pipeview-style textual pipeline diagram from an
/// [`EventLog`]: one lane per OSM, one character column per control step in
/// `[from, to)`. An uppercase letter marks the cycle a state was entered,
/// lowercase its continued occupancy, `.` the idle (initial) state and `?`
/// cycles before the OSM's first recorded transition. A legend maps the
/// letters drawn in `[from, to)` back to state names.
///
/// OSMs in `lanes` get a lane even if the log holds no transition of them:
/// a log that covers only the diagrammed cycles misses the OSMs that first
/// move after them, which a log of the whole run would show as all `?`.
pub fn pipeline_diagram(
    log: &EventLog,
    specs: &[Arc<StateMachineSpec>],
    lanes: &[OsmId],
    from: u64,
    to: u64,
) -> String {
    let width = to.saturating_sub(from) as usize;
    let letter = |spec: u32, state: crate::ids::StateId| -> char {
        specs
            .get(spec as usize)
            .map(|s| s.state_name(state).chars().next().unwrap_or('?'))
            .unwrap_or('?')
            .to_ascii_uppercase()
    };

    // Lane per OSM: start unknown ('?') until the first transition is seen.
    let mut lanes: BTreeMap<OsmId, Vec<char>> =
        lanes.iter().map(|&osm| (osm, vec!['?'; width])).collect();
    // Per OSM: spec, current state, the cycle and log position it was
    // entered at.
    let mut cur: BTreeMap<OsmId, (u32, Option<crate::ids::StateId>, u64, usize)> =
        BTreeMap::new();
    // The states drawn in the window, by the log position of their entry.
    let mut drawn: Vec<(usize, u32, crate::ids::StateId)> = Vec::new();
    let mut fill = |lane: &mut Vec<char>,
                    (spec, state, since, entry): (u32, Option<crate::ids::StateId>, u64, usize),
                    until: u64| {
        let (a, b) = (since.max(from), until.min(to));
        if let Some(s) = state.filter(|_| a < b) {
            drawn.push((entry, spec, s));
        }
        for c in a..b {
            let i = (c - from) as usize;
            lane[i] = match state {
                None => '.',
                Some(s) => {
                    let ch = letter(spec, s);
                    if c == since {
                        ch
                    } else {
                        ch.to_ascii_lowercase()
                    }
                }
            };
        }
    };
    for (entry, t) in log.transitions().enumerate() {
        let lane = lanes.entry(t.osm).or_insert_with(|| vec!['?'; width]);
        if let Some(held) = cur.remove(&t.osm) {
            fill(lane, held, t.cycle);
        }
        let next = if t.completed { None } else { Some(t.to) };
        cur.insert(t.osm, (t.spec, next, t.cycle, entry));
    }
    for (osm, held) in cur {
        let lane = lanes.entry(osm).or_insert_with(|| vec!['?'; width]);
        fill(lane, held, to);
    }
    // The legend names each letter drawn after the first state, in log
    // order, that drew it.
    drawn.sort_unstable_by_key(|&(entry, ..)| entry);
    let mut legend: BTreeMap<char, String> = BTreeMap::new();
    for (_, spec, s) in drawn {
        legend
            .entry(letter(spec, s))
            .or_insert_with(|| match specs.get(spec as usize) {
                Some(sp) => format!("{}.{}", sp.name(), sp.state_name(s)),
                None => format!("{s}"),
            });
    }

    let mut out = String::new();
    let _ = writeln!(out, "pipeline diagram, cycles {from}..{to}:");
    for (osm, lane) in &lanes {
        let _ = writeln!(out, "{:>6} |{}|", osm.to_string(), lane.iter().collect::<String>());
    }
    for (ch, name) in &legend {
        let _ = writeln!(out, "   {ch} = {name}");
    }
    out
}

/// Convenience wrapper: diagrams the machine's own event log, if installed.
pub fn pipeline_diagram_for<S: 'static>(machine: &Machine<S>, from: u64, to: u64) -> Option<String> {
    machine
        .event_log()
        .map(|log| pipeline_diagram(log, machine.specs(), &[], from, to))
}

fn json_u64_array(vals: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
    s
}

/// Renders a [`MetricsReport`] as machine-readable JSON (the format the
/// bench crate's smoke checker validates against `schemas/metrics.schema.json`).
pub fn metrics_json(report: &MetricsReport) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"cycles\":{},\"transitions\":{},\"completions\":{},\"token_grants\":{},\"token_denials\":{},\"restarts\":{},",
        report.cycles, report.transitions, report.completions, report.token_grants,
        report.token_denials, report.restarts
    );
    out.push_str("\"states\":[");
    for (i, s) in report.states.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"spec\":\"{}\",\"state\":\"{}\",\"occupancy_cycles\":{},\"entries\":{},\"mean_residency\":{:.6}}}",
            esc(&s.spec), esc(&s.state), s.occupancy_cycles, s.entries, s.mean_residency
        );
    }
    out.push_str("],\"managers\":[");
    for (i, m) in report.managers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"granted\":{},\"denied\":{},\"aborted\":{},\"avg_held\":{:.6}}}",
            esc(&m.name),
            json_u64_array(&m.granted),
            json_u64_array(&m.denied),
            json_u64_array(&m.aborted),
            m.avg_held
        );
    }
    let _ = write!(
        out,
        "],\"window\":{},\"throughput\":{},",
        report.window,
        json_u64_array(&report.throughput)
    );
    match &report.stalls {
        None => out.push_str("\"stalls\":null}"),
        Some(st) => {
            let _ = write!(
                out,
                "\"stalls\":{{\"global_stall_cycles\":{},\"charged\":{},\"by_manager\":[",
                st.global_stall_cycles, st.charged
            );
            for (i, c) in st.by_manager.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"manager\":\"{}\",\"op\":\"{}\",\"cycles\":{}}}",
                    esc(&c.manager_name),
                    c.op,
                    c.cycles
                );
            }
            out.push_str("],\"by_osm\":[");
            for (i, c) in st.by_osm.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"osm\":{},\"manager\":\"{}\",\"op\":\"{}\",\"cycles\":{}}}",
                    c.osm.0,
                    esc(&c.cause.manager_name),
                    c.cause.op,
                    c.cause.cycles
                );
            }
            out.push_str("]}}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn esc_handles_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_array_renders() {
        assert_eq!(json_u64_array(&[1, 2, 3]), "[1,2,3]");
        assert_eq!(json_u64_array(&[]), "[]");
    }
}
