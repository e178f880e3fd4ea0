//! Opt-in decision-trace recording.
//!
//! A [`Recorder`] streams typed scheduler events to a `Write` sink as
//! JSONL, one line per event as it happens, each tagged with the job id
//! and the paper's workload category (SN/SW/LN/LW). Nothing is held back
//! beyond the sink's own buffer, so a trace is lossless at any scale.
//! The driver tags every job at arrival and emits the lifecycle events
//! (`Arrive`, `Start`, `Complete`, `Preempt`); schedulers that hold an
//! availability profile additionally emit their decisions (`Reserve`,
//! `Backfill`, `Compress`). Recording is strictly observational: nothing
//! in here feeds back into scheduling, so traces are decision-neutral by
//! construction.
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
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::rc::Rc;

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

/// Parse a whole JSONL document (one event per non-empty line).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            TraceEvent::parse_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// Writes each recorded event to its sink as one JSONL line
/// ([`TraceEvent::to_json_line`] plus `\n`) the moment it is recorded,
/// and keeps the category tags of the jobs alive now: a job is tagged at
/// arrival and its tag is dropped at its `Complete`. Memory is therefore
/// bounded by the live jobs, whatever the run's length, and every event
/// reaches the sink.
///
/// The first write error is kept and nothing more is written after it;
/// [`Recorder::finish`] flushes the sink and returns that error, so a
/// failing sink is reported, never silently truncated.
pub struct Recorder<W: Write + ?Sized = dyn Write> {
    tags: HashMap<u64, TraceCategory>,
    error: Option<io::Error>,
    sink: W,
}

impl<W: Write> Recorder<W> {
    /// A recorder writing to `sink`: a `BufWriter<File>` for a trace
    /// file, a `Vec<u8>` to read the trace back in memory.
    pub fn new(sink: W) -> Self {
        Recorder {
            tags: HashMap::new(),
            error: None,
            sink,
        }
    }
}

impl<W: Write + ?Sized> Recorder<W> {
    /// Associate `job` with its paper category (the driver calls this at
    /// arrival; category assignment uses the actual runtime, which
    /// schedulers never see — tagging lives with the driver on purpose).
    pub fn tag(&mut self, job: u64, category: TraceCategory) {
        self.tags.insert(job, category);
    }

    /// Record one event, tagged from the category map, and write its
    /// line to the sink. A `Complete` is the job's last event, so it
    /// takes the job's tag out of the map.
    pub fn record(&mut self, time: u64, job: u64, kind: TraceKind) {
        let category = match kind {
            TraceKind::Complete { .. } => self.tags.remove(&job),
            _ => self.tags.get(&job).copied(),
        };
        if self.error.is_some() {
            return;
        }
        let mut line = TraceEvent {
            time,
            job,
            category: category.unwrap_or(TraceCategory::Unknown),
            kind,
        }
        .to_json_line();
        line.push('\n');
        if let Err(e) = self.sink.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }

    /// Flush the sink; the first write error, if any, instead.
    pub fn finish(&mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.sink.flush(),
        }
    }

    /// The sink the events were written to.
    pub fn sink(&self) -> &W {
        &self.sink
    }
}

impl<W: Write + ?Sized> fmt::Debug for Recorder<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("live_jobs", &self.tags.len())
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// The recorder handle threaded through driver and scheduler. A run is
/// single-threaded, so `Rc<RefCell<…>>` suffices. A typed handle such as
/// `Rc<RefCell<Recorder<Vec<u8>>>>` coerces to it, so its owner can read
/// the sink back after the run.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

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

    /// The events a recorder wrote to its in-memory sink.
    fn written(rec: &Recorder<Vec<u8>>) -> Vec<TraceEvent> {
        parse_jsonl(std::str::from_utf8(rec.sink()).unwrap()).unwrap()
    }

    #[test]
    fn category_tagging() {
        let mut rec = Recorder::new(Vec::new());
        rec.tag(1, TraceCategory::LW);
        rec.record(0, 1, TraceKind::Start);
        rec.record(0, 2, TraceKind::Start);
        let events = written(&rec);
        assert_eq!(events[0].category, TraceCategory::LW);
        assert_eq!(events[1].category, TraceCategory::Unknown);
    }

    #[test]
    fn record_writes_one_line_per_event() {
        let mut rec = Recorder::new(Vec::new());
        rec.tag(1, TraceCategory::SN);
        rec.record(10, 1, TraceKind::Start);
        let complete = TraceKind::Complete {
            overestimate_factor: 1.0,
        };
        rec.record(20, 1, complete.clone());
        rec.finish().unwrap();
        let text = std::str::from_utf8(rec.sink()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(text.ends_with('\n'));
        let events = written(&rec);
        assert_eq!(
            lines[1],
            events[1].to_json_line(),
            "the wire line is to_json_line"
        );
        assert_eq!(
            events[1],
            TraceEvent {
                time: 20,
                job: 1,
                category: TraceCategory::SN,
                kind: complete,
            }
        );
    }

    #[test]
    fn complete_drops_the_jobs_tag() {
        let mut rec = Recorder::new(Vec::new());
        rec.tag(4, TraceCategory::SW);
        let complete = TraceKind::Complete {
            overestimate_factor: 2.0,
        };
        rec.record(5, 4, complete.clone());
        rec.record(6, 4, complete);
        let cats: Vec<TraceCategory> = written(&rec).iter().map(|e| e.category).collect();
        assert_eq!(cats, [TraceCategory::SW, TraceCategory::Unknown]);
        assert!(format!("{rec:?}").contains("live_jobs: 0"), "{rec:?}");
    }

    /// A sink that accepts `room` bytes, then fails every write.
    struct Failing {
        room: usize,
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "sink full"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn finish_surfaces_the_first_write_error() {
        let mut rec = Recorder::new(Failing { room: 10 });
        for t in 0..3 {
            rec.record(t, 1, TraceKind::Start);
        }
        let err = rec.finish().expect_err("the sink failed mid-trace");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(rec.sink().room, 0);
    }
}
