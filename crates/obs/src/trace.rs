//! Opt-in decision-trace recording.
//!
//! A [`Recorder`] is a bounded ring buffer of typed scheduler events,
//! each tagged with the job id and the paper's workload category
//! (SN/SW/LN/LW). The driver tags every job at arrival and emits the
//! lifecycle events (`Arrive`, `Start`, `Complete`, `Preempt`);
//! schedulers that hold an availability profile additionally emit their
//! decisions (`Reserve`, `Backfill`, `Compress`). Recording is strictly
//! observational: nothing in here feeds back into scheduling, so traces
//! are decision-neutral by construction.
//!
//! # JSONL schema
//!
//! One flat object per event, fields in fixed order:
//!
//! ```text
//! {"t":<sim-seconds>,"job":<id>,"cat":"SN|SW|LN|LW|?","ev":"<kind>",...payload}
//! ```
//!
//! Payload fields per kind (alphabetical): `Arrive {estimate, width}`,
//! `Reserve {anchor}`, `Backfill {filled_hole}`, `Start {}`,
//! `Complete {overestimate_factor}`, `Compress {moved}`, `Preempt {}`.
//! Times and durations are integral simulation seconds;
//! `overestimate_factor` (estimate ÷ actual runtime) is a float.
//! [`TraceEvent::parse_json_line`] accepts the fields in any order, so
//! the format round-trips through external tools.

use crate::json::{push_f64, push_str_literal, FlatObject};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::rc::Rc;

/// Default ring capacity: enough for every event of a paper-scale run
/// (~5 events per job × 10 000 jobs) without unbounded growth.
pub const DEFAULT_TRACE_CAP: usize = 1 << 16;

/// The paper's four workload categories (Short/Long × Narrow/Wide), plus
/// `Unknown` for events recorded before the job was tagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Short-Narrow.
    SN,
    /// Short-Wide.
    SW,
    /// Long-Narrow.
    LN,
    /// Long-Wide.
    LW,
    /// Not tagged (never arrived through a tagging driver).
    Unknown,
}

impl TraceCategory {
    /// Wire label (`"?"` for unknown).
    pub fn label(self) -> &'static str {
        match self {
            TraceCategory::SN => "SN",
            TraceCategory::SW => "SW",
            TraceCategory::LN => "LN",
            TraceCategory::LW => "LW",
            TraceCategory::Unknown => "?",
        }
    }

    /// Parse a wire label.
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "SN" => TraceCategory::SN,
            "SW" => TraceCategory::SW,
            "LN" => TraceCategory::LN,
            "LW" => TraceCategory::LW,
            "?" => TraceCategory::Unknown,
            other => return Err(format!("unknown category `{other}`")),
        })
    }
}

/// What the scheduler (or driver) did.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// The job entered the system.
    Arrive {
        /// User runtime estimate, seconds.
        estimate: u64,
        /// Processors requested.
        width: u32,
    },
    /// A reservation was (re)established at `anchor`.
    Reserve {
        /// Absolute reservation start, sim seconds.
        anchor: u64,
    },
    /// The job was started out of queue order into an idle hole.
    Backfill {
        /// Length of the hole it slotted into, seconds (time until the
        /// blocking reservation's anchor).
        filled_hole: u64,
    },
    /// The job began executing.
    Start,
    /// The job finished.
    Complete {
        /// Estimate ÷ actual runtime (≥ 1 for conservative estimates).
        overestimate_factor: f64,
    },
    /// Compression moved the job's reservation earlier.
    Compress {
        /// How much earlier, seconds.
        moved: u64,
    },
    /// The job was suspended by a preemptive scheduler.
    Preempt,
}

impl TraceKind {
    /// Wire name of the variant.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Arrive { .. } => "Arrive",
            TraceKind::Reserve { .. } => "Reserve",
            TraceKind::Backfill { .. } => "Backfill",
            TraceKind::Start => "Start",
            TraceKind::Complete { .. } => "Complete",
            TraceKind::Compress { .. } => "Compress",
            TraceKind::Preempt => "Preempt",
        }
    }
}

/// One recorded decision: when, which job, its category, and what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time, seconds.
    pub time: u64,
    /// Job identifier.
    pub job: u64,
    /// The job's paper category at tagging time.
    pub category: TraceCategory,
    /// The decision.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Render the JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(80);
        let _ = write!(out, "{{\"t\":{},\"job\":{},\"cat\":", self.time, self.job);
        push_str_literal(&mut out, self.category.label());
        out.push_str(",\"ev\":");
        push_str_literal(&mut out, self.kind.name());
        match &self.kind {
            TraceKind::Arrive { estimate, width } => {
                let _ = write!(out, ",\"estimate\":{estimate},\"width\":{width}");
            }
            TraceKind::Reserve { anchor } => {
                let _ = write!(out, ",\"anchor\":{anchor}");
            }
            TraceKind::Backfill { filled_hole } => {
                let _ = write!(out, ",\"filled_hole\":{filled_hole}");
            }
            TraceKind::Complete {
                overestimate_factor,
            } => {
                out.push_str(",\"overestimate_factor\":");
                push_f64(&mut out, *overestimate_factor);
            }
            TraceKind::Compress { moved } => {
                let _ = write!(out, ",\"moved\":{moved}");
            }
            TraceKind::Start | TraceKind::Preempt => {}
        }
        out.push('}');
        out
    }

    /// Parse one JSONL line (fields accepted in any order).
    pub fn parse_json_line(line: &str) -> Result<TraceEvent, String> {
        let mut time = None;
        let mut job = None;
        let mut cat = None;
        let mut ev = None;
        let mut fields: HashMap<String, crate::json::Scalar> = HashMap::new();
        for (key, value) in FlatObject::parse(line)?.pairs()? {
            match key.as_str() {
                "t" => time = Some(value.as_u64()?),
                "job" => job = Some(value.as_u64()?),
                "cat" => cat = Some(TraceCategory::parse(value.as_str()?)?),
                "ev" => ev = Some(value.as_str()?.to_string()),
                _ => {
                    fields.insert(key, value);
                }
            }
        }
        let field_u64 = |name: &str| -> Result<u64, String> {
            fields
                .get(name)
                .ok_or_else(|| format!("missing field `{name}`"))?
                .as_u64()
        };
        let ev = ev.ok_or("missing field `ev`")?;
        let kind = match ev.as_str() {
            "Arrive" => TraceKind::Arrive {
                estimate: field_u64("estimate")?,
                width: field_u64("width")? as u32,
            },
            "Reserve" => TraceKind::Reserve {
                anchor: field_u64("anchor")?,
            },
            "Backfill" => TraceKind::Backfill {
                filled_hole: field_u64("filled_hole")?,
            },
            "Start" => TraceKind::Start,
            "Complete" => TraceKind::Complete {
                overestimate_factor: fields
                    .get("overestimate_factor")
                    .ok_or("missing field `overestimate_factor`")?
                    .as_f64()?,
            },
            "Compress" => TraceKind::Compress {
                moved: field_u64("moved")?,
            },
            "Preempt" => TraceKind::Preempt,
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok(TraceEvent {
            time: time.ok_or("missing field `t`")?,
            job: job.ok_or("missing field `job`")?,
            category: cat.unwrap_or(TraceCategory::Unknown),
            kind,
        })
    }
}

/// A bounded ring buffer of [`TraceEvent`]s plus the job→category tag
/// map. Once `cap` events are held, each new event overwrites the oldest
/// (`dropped` counts the overwritten ones), so a runaway run can never
/// exhaust memory.
#[derive(Debug)]
pub struct Recorder {
    cap: usize,
    /// Ring storage; grows to `cap` then wraps.
    buf: Vec<TraceEvent>,
    /// Index the next event is written to once the ring is full.
    next: usize,
    dropped: u64,
    tags: HashMap<u64, TraceCategory>,
}

impl Recorder {
    /// A recorder holding at most `cap` events (minimum 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Recorder {
            cap,
            buf: Vec::new(),
            next: 0,
            dropped: 0,
            tags: HashMap::new(),
        }
    }

    /// Maximum events held.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Events currently held (≤ cap).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Associate `job` with its paper category (the driver calls this at
    /// arrival; category assignment uses the actual runtime, which
    /// schedulers never see — tagging lives with the driver on purpose).
    pub fn tag(&mut self, job: u64, category: TraceCategory) {
        self.tags.insert(job, category);
    }

    /// The category `job` was tagged with (or `Unknown`).
    pub fn category_of(&self, job: u64) -> TraceCategory {
        self.tags
            .get(&job)
            .copied()
            .unwrap_or(TraceCategory::Unknown)
    }

    /// Record one event, tagging it from the category map.
    pub fn record(&mut self, time: u64, job: u64, kind: TraceKind) {
        let event = TraceEvent {
            time,
            job,
            category: self.category_of(job),
            kind,
        };
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.next] = event;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }

    /// Write the retained events as JSONL, oldest first, straight from
    /// the ring (no copy of the events).
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let (newer, older) = self.buf.split_at(self.next);
        for event in older.iter().chain(newer) {
            w.write_all(event.to_json_line().as_bytes())?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }
}

/// The recorder handle threaded through driver and scheduler. A run is
/// single-threaded, so `Rc<RefCell<…>>` suffices; service workers each
/// own their recorder.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// Convenience constructor for a [`SharedRecorder`].
pub fn shared(cap: usize) -> SharedRecorder {
    Rc::new(RefCell::new(Recorder::new(cap)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<TraceKind> {
        vec![
            TraceKind::Arrive {
                estimate: 3600,
                width: 4,
            },
            TraceKind::Reserve { anchor: 7200 },
            TraceKind::Backfill { filled_hole: 900 },
            TraceKind::Start,
            TraceKind::Complete {
                overestimate_factor: 2.5,
            },
            TraceKind::Compress { moved: 300 },
            TraceKind::Preempt,
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        for (i, kind) in every_kind().into_iter().enumerate() {
            let event = TraceEvent {
                time: 100 + i as u64,
                job: i as u64,
                category: [
                    TraceCategory::SN,
                    TraceCategory::SW,
                    TraceCategory::LN,
                    TraceCategory::LW,
                    TraceCategory::Unknown,
                ][i % 5],
                kind,
            };
            let line = event.to_json_line();
            assert!(!line.contains('\n'));
            let back = TraceEvent::parse_json_line(&line).unwrap();
            assert_eq!(back, event, "line was `{line}`");
        }
    }

    #[test]
    fn parse_accepts_any_field_order() {
        let event = TraceEvent::parse_json_line(
            r#"{"ev":"Arrive","width":8,"estimate":60,"cat":"LW","job":3,"t":5}"#,
        )
        .unwrap();
        assert_eq!(event.job, 3);
        assert_eq!(event.category, TraceCategory::LW);
        assert_eq!(
            event.kind,
            TraceKind::Arrive {
                estimate: 60,
                width: 8
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceEvent::parse_json_line("not json").is_err());
        assert!(TraceEvent::parse_json_line(r#"{"t":1,"job":2,"cat":"SN"}"#).is_err());
        assert!(
            TraceEvent::parse_json_line(r#"{"t":1,"job":2,"cat":"SN","ev":"Reserve"}"#).is_err(),
            "Reserve without anchor must be rejected"
        );
        assert!(TraceEvent::parse_json_line(r#"{"t":1,"job":2,"cat":"XX","ev":"Start"}"#).is_err());
    }

    #[test]
    fn ring_wraps_at_cap() {
        let mut rec = Recorder::new(4);
        for i in 0..10u64 {
            rec.record(i, i, TraceKind::Start);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let times: Vec<u64> = rec.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![6, 7, 8, 9], "oldest events are overwritten");
        // The JSONL writer reads the wrapped ring in place, oldest first.
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let written: Vec<u64> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| TraceEvent::parse_json_line(l).unwrap().time)
            .collect();
        assert_eq!(written, times);
    }

    #[test]
    fn category_tagging() {
        let mut rec = Recorder::new(8);
        rec.tag(1, TraceCategory::LW);
        rec.record(0, 1, TraceKind::Start);
        rec.record(0, 2, TraceKind::Start);
        let events = rec.events();
        assert_eq!(events[0].category, TraceCategory::LW);
        assert_eq!(events[1].category, TraceCategory::Unknown);
    }

    #[test]
    fn write_jsonl_emits_one_line_per_event() {
        let mut rec = Recorder::new(8);
        rec.tag(1, TraceCategory::SN);
        rec.record(10, 1, TraceKind::Start);
        rec.record(
            20,
            1,
            TraceKind::Complete {
                overestimate_factor: 1.0,
            },
        );
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            TraceEvent::parse_json_line(line).unwrap();
        }
    }
}
