//! The benchmark's own in-memory span recorder (choosing-metrics §4).
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer; nothing inside the program is instrumented. A span is a
//! name, a start, an end and the span that caused it; all spans of one
//! run share the workload id. Spans stay in memory and are written out
//! once, when the workload ends.

use lammps_tersoff_vector::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans while `enabled`; a disabled recorder costs one branch
/// per call, so the untraced pass runs the same code path.
pub struct Recorder {
    enabled: bool,
    paused: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            paused: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Suspend or resume recording between spans: the traced run
    /// interleaves recorded and unrecorded blocks of steps to measure the
    /// recorder's own overhead.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn recording(&self) -> bool {
        self.enabled && !self.paused
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &str) {
        if !self.recording() {
            return;
        }
        let id = SpanId(self.spans.len());
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
    }

    /// Open `stem[index]`; the name is only formatted while recording.
    pub fn begin_indexed(&mut self, stem: &str, index: usize) {
        if self.recording() {
            self.begin(&format!("{stem}[{index}]"));
        }
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.recording() {
            return;
        }
        let id = self.open.pop().expect("end without begin");
        self.spans[id.0].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Time `f` as a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    /// Append a span measured elsewhere (a client thread's request), as a
    /// child of `parent`. Times are seconds since [`Recorder::epoch`].
    pub fn push_measured(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: f64,
        end: f64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end,
        });
        Some(id)
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(SpanId(p)) = span.parent {
            let parent = &spans[p];
            let lo = span.start.max(parent.start);
            let hi = span.end.min(parent.end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (span.duration() - covered).max(0.0)
        })
        .collect()
}

/// Total and self seconds per span name, with indexed names (`step[17]`)
/// folded onto their stem (`step`).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for (span, self_s) in spans.iter().zip(selfs) {
        let stem = span.name.split('[').next().unwrap_or(&span.name);
        let entry = out.entry(stem.to_string()).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += span.duration();
        entry.2 += self_s;
    }
    out
}

/// The trace document written to `out/trace_<workload>.json`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let rows: Vec<Json> = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (span, self_s))| {
            obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(span.name.clone())),
                (
                    "parent",
                    span.parent
                        .map(|SpanId(p)| Json::Num(p as f64))
                        .unwrap_or(Json::Null),
                ),
                ("start_s", Json::Num(span.start)),
                ("end_s", Json::Num(span.end)),
                ("self_s", Json::Num(*self_s)),
            ])
        })
        .collect();
    let summary: Vec<Json> = totals_by_name(spans)
        .into_iter()
        .map(|(name, (count, total, self_s))| {
            obj([
                ("name", Json::Str(name)),
                ("count", Json::Num(count as f64)),
                ("total_s", Json::Num(total)),
                ("self_s", Json::Num(self_s)),
            ])
        })
        .collect();
    obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("by_name", Json::Arr(summary)),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            parent: parent.map(SpanId),
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span("run", None, 0.0, 10.0),
            span("step[0]", Some(0), 1.0, 4.0),
            span("step[1]", Some(0), 5.0, 9.0),
            span("force", Some(1), 2.0, 3.5),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 3.0).abs() < 1e-12);
        assert!((selfs[1] - 1.5).abs() < 1e-12);
        assert!((selfs[2] - 4.0).abs() < 1e-12);
        assert!((selfs[3] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two client requests overlap inside one job span; one child
        // overhangs its parent.
        let spans = vec![
            span("job", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 6.0),
            span("b", Some(0), 4.0, 8.0),
            span("c", Some(0), 9.0, 12.0),
        ];
        let selfs = self_times(&spans);
        // covered: [1,8] ∪ [9,10] = 8
        assert!((selfs[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.span("setup", |rec| {
            rec.span("lattice", |_| ());
            rec.span("build", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(SpanId(0)));
        assert_eq!(spans[2].parent, Some(SpanId(0)));
        assert!(spans[0].end >= spans[2].end);

        let mut off = Recorder::new(false);
        off.span("setup", |rec| rec.span("lattice", |_| ()));
        assert!(off.spans().is_empty());
    }

    #[test]
    fn indexed_names_fold_onto_their_stem() {
        let spans = vec![
            span("step[0]", None, 0.0, 1.0),
            span("step[1]", None, 1.0, 3.0),
        ];
        let totals = totals_by_name(&spans);
        let (count, total, _) = totals["step"];
        assert_eq!(count, 2);
        assert!((total - 3.0).abs() < 1e-12);
    }
}
