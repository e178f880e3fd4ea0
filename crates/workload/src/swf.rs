//! Standard Workload Format (SWF) v2 parsing and writing.
//!
//! SWF is the format of Feitelson's Parallel Workloads Archive — the source
//! of the CTC and SDSC logs the paper uses. Supporting it means a user who
//! *does* have the real logs can drop them straight into this simulator and
//! rerun every experiment against them; our calibrated synthetic traces are
//! only the default.
//!
//! An SWF file is line-oriented:
//! * header comment lines start with `;` and may carry `; Key: Value` pairs
//!   (we extract `MaxProcs`, `MaxNodes`, and `Computer`);
//! * each data line has 18 whitespace-separated fields, `-1` meaning
//!   "unknown".
//!
//! Field indices (0-based) used here: 0 job number, 1 submit time,
//! 3 run time, 4 allocated processors, 7 requested processors,
//! 8 requested (estimated) time, 10 status.
//!
//! Real archive files are occasionally dirty — truncated last lines,
//! stray non-numeric tokens. The default [`ParseMode::Strict`] aborts at
//! the first malformed line; [`ParseMode::Lenient`] skips such lines and
//! counts them per field in a [`ParseReport`] so the caller can decide
//! whether the damage is tolerable.

use crate::job::Job;
use crate::trace::{Trace, TraceError};
use simcore::{JobId, SimSpan, SimTime};
use std::collections::BTreeMap;

/// One raw SWF record, fields as written (after `-1` → `None` mapping for
/// the ones we interpret). Keeps enough to rebuild a valid simulator job.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfRecord {
    /// Field 0: job number.
    pub job_number: i64,
    /// Field 1: submit time, seconds.
    pub submit: i64,
    /// Field 3: run time, seconds (`None` if unknown).
    pub run_time: Option<i64>,
    /// Field 4: number of allocated processors.
    pub allocated_procs: Option<i64>,
    /// Field 7: number of requested processors.
    pub requested_procs: Option<i64>,
    /// Field 8: requested (estimated) time, seconds.
    pub requested_time: Option<i64>,
    /// Field 10: completion status (1 = completed OK).
    pub status: Option<i64>,
}

/// Parse outcome: the usable trace plus per-reason drop counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfParse {
    /// The cleaned trace.
    pub trace: Trace,
    /// Header key/value pairs found in `;`-comments.
    pub header: BTreeMap<String, String>,
    /// Records dropped, by reason.
    pub dropped: DropCounts,
    /// Malformed lines skipped by a lenient parse (all zero under
    /// [`ParseMode::Strict`], which aborts instead).
    pub report: ParseReport,
}

/// How the parser reacts to a malformed data line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseMode {
    /// Abort the whole parse at the first malformed line (the default).
    #[default]
    Strict,
    /// Skip malformed lines, counting each in a [`ParseReport`].
    Lenient,
}

/// Malformed data lines skipped by a lenient parse, counted per field.
///
/// "Malformed" here means the line shape itself is wrong — too few
/// fields, or a field that is not a number. Records that parse but fail
/// the *cleaning* rules (unknown runtime, too wide, …) are counted in
/// [`DropCounts`] instead, in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParseReport {
    /// Lines with fewer than the 18 required fields (truncated lines
    /// land here too).
    pub short_lines: u32,
    /// Lines whose field 0 (job number) was non-numeric.
    pub bad_job_number: u32,
    /// Lines whose field 1 (submit time) was non-numeric.
    pub bad_submit: u32,
    /// Lines whose field 3 (run time) was non-numeric.
    pub bad_run_time: u32,
    /// Lines whose field 4 (allocated processors) was non-numeric.
    pub bad_allocated_procs: u32,
    /// Lines whose field 7 (requested processors) was non-numeric.
    pub bad_requested_procs: u32,
    /// Lines whose field 8 (requested time) was non-numeric.
    pub bad_requested_time: u32,
    /// Lines whose field 10 (status) was non-numeric.
    pub bad_status: u32,
}

impl ParseReport {
    /// Total malformed lines skipped.
    pub fn total(&self) -> u32 {
        self.short_lines
            + self.bad_job_number
            + self.bad_submit
            + self.bad_run_time
            + self.bad_allocated_procs
            + self.bad_requested_procs
            + self.bad_requested_time
            + self.bad_status
    }

    /// Compact human-readable breakdown, e.g. `"2 short, 1 bad run time"`.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = [
            (self.short_lines, "short"),
            (self.bad_job_number, "bad job number"),
            (self.bad_submit, "bad submit time"),
            (self.bad_run_time, "bad run time"),
            (self.bad_allocated_procs, "bad allocated procs"),
            (self.bad_requested_procs, "bad requested procs"),
            (self.bad_requested_time, "bad requested time"),
            (self.bad_status, "bad status"),
        ]
        .iter()
        .filter(|(n, _)| *n > 0)
        .map(|(n, what)| format!("{n} {what}"))
        .collect();
        if parts.is_empty() {
            "clean".to_string()
        } else {
            parts.join(", ")
        }
    }

    fn count_bad_field(&mut self, idx: usize) {
        match idx {
            0 => self.bad_job_number += 1,
            1 => self.bad_submit += 1,
            3 => self.bad_run_time += 1,
            4 => self.bad_allocated_procs += 1,
            7 => self.bad_requested_procs += 1,
            8 => self.bad_requested_time += 1,
            _ => self.bad_status += 1,
        }
    }
}

/// Why records were dropped during cleaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropCounts {
    /// Unknown/zero runtime (cancelled before start, or missing data).
    pub bad_runtime: u32,
    /// Unknown/zero processor request.
    pub bad_width: u32,
    /// Width beyond machine size.
    pub too_wide: u32,
    /// Negative submit time.
    pub bad_submit: u32,
}

impl DropCounts {
    /// Total records dropped.
    pub fn total(&self) -> u32 {
        self.bad_runtime + self.bad_width + self.too_wide + self.bad_submit
    }
}

/// Error from SWF parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum SwfError {
    /// A data line did not have at least 18 numeric fields.
    MalformedLine {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// No machine size: no `MaxProcs`/`MaxNodes` header and no override.
    UnknownMachineSize,
    /// The cleaned job set failed trace validation.
    Trace(TraceError),
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::MalformedLine { line, reason } => {
                write!(f, "SWF line {line}: {reason}")
            }
            SwfError::UnknownMachineSize => {
                write!(
                    f,
                    "no MaxProcs/MaxNodes header; pass an explicit machine size"
                )
            }
            SwfError::Trace(e) => write!(f, "trace validation: {e}"),
        }
    }
}

impl std::error::Error for SwfError {}

impl From<TraceError> for SwfError {
    fn from(e: TraceError) -> Self {
        SwfError::Trace(e)
    }
}

fn parse_field(s: &str, line: usize) -> Result<i64, SwfError> {
    // SWF in the wild sometimes uses floats for times; accept and truncate.
    if let Ok(v) = s.parse::<i64>() {
        return Ok(v);
    }
    if let Ok(v) = s.parse::<f64>() {
        if v.is_finite() {
            return Ok(v as i64);
        }
    }
    Err(SwfError::MalformedLine {
        line,
        reason: format!("unparseable field {s:?}"),
    })
}

fn opt(v: i64) -> Option<i64> {
    if v < 0 {
        None
    } else {
        Some(v)
    }
}

/// Raw records, header pairs, and the malformed-line report of one parse.
pub type RawParse = (Vec<SwfRecord>, BTreeMap<String, String>, ParseReport);

/// Parse raw SWF text into records, header pairs and a [`ParseReport`].
///
/// Under [`ParseMode::Strict`] the report is always all-zero (the first
/// malformed line aborts the parse); under [`ParseMode::Lenient`] each
/// malformed line is skipped and counted.
pub fn parse_records_with(input: &str, mode: ParseMode) -> Result<RawParse, SwfError> {
    let mut header = BTreeMap::new();
    let mut records = Vec::new();
    let mut report = ParseReport::default();
    for (i, raw) in input.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix(';') {
            if let Some((key, value)) = comment.split_once(':') {
                header.insert(key.trim().to_string(), value.trim().to_string());
            }
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 18 {
            match mode {
                ParseMode::Strict => {
                    return Err(SwfError::MalformedLine {
                        line: line_no,
                        reason: format!("expected 18 fields, found {}", fields.len()),
                    })
                }
                ParseMode::Lenient => {
                    report.short_lines += 1;
                    continue;
                }
            }
        }
        // Each field parse carries its index so a lenient skip can be
        // attributed to the right per-field counter.
        let f = |idx: usize| parse_field(fields[idx], line_no).map_err(|e| (idx, e));
        let record = (|| {
            Ok(SwfRecord {
                job_number: f(0)?,
                submit: f(1)?,
                run_time: opt(f(3)?),
                allocated_procs: opt(f(4)?),
                requested_procs: opt(f(7)?),
                requested_time: opt(f(8)?),
                status: opt(f(10)?),
            })
        })();
        match record {
            Ok(r) => records.push(r),
            Err((idx, e)) => match mode {
                ParseMode::Strict => return Err(e),
                ParseMode::Lenient => report.count_bad_field(idx),
            },
        }
    }
    Ok((records, header, report))
}

/// Parse SWF text into a cleaned, simulation-ready [`Trace`].
///
/// ```
/// let text = "\
/// ; MaxProcs: 64
/// 1 0 -1 120 4 -1 -1 4 600 -1 1 1 1 1 1 1 -1 -1
/// 2 30 -1 300 8 -1 -1 8 300 -1 1 2 1 1 1 1 -1 -1
/// ";
/// let parsed = workload::swf::parse_trace(text, "demo", None).unwrap();
/// assert_eq!(parsed.trace.len(), 2);
/// assert_eq!(parsed.trace.nodes(), 64);
/// assert_eq!(parsed.trace.jobs()[0].estimate.as_secs(), 600);
/// ```
///
/// Cleaning rules (the standard ones from the backfilling literature):
/// * width = requested processors, falling back to allocated; drop if
///   unknown or zero;
/// * runtime must be known and positive;
/// * estimate = requested time, clamped **up** to the runtime when the job
///   overran its limit (so `estimate ≥ runtime` always holds); missing
///   estimates fall back to the runtime (i.e. accurate);
/// * machine size from `nodes_override`, else the `MaxProcs`/`MaxNodes`
///   header; jobs wider than the machine are dropped.
pub fn parse_trace(
    input: &str,
    name: &str,
    nodes_override: Option<u32>,
) -> Result<SwfParse, SwfError> {
    parse_trace_with(input, name, nodes_override, ParseMode::Strict)
}

/// [`parse_trace`] with an explicit [`ParseMode`]. Lenient parses skip
/// malformed lines (reported in [`SwfParse::report`]) instead of failing.
pub fn parse_trace_with(
    input: &str,
    name: &str,
    nodes_override: Option<u32>,
    mode: ParseMode,
) -> Result<SwfParse, SwfError> {
    let (records, header, report) = parse_records_with(input, mode)?;
    let header_nodes = ["MaxProcs", "MaxNodes"]
        .iter()
        .find_map(|k| header.get(*k))
        .and_then(|v| v.parse::<u32>().ok());
    let nodes = nodes_override
        .or(header_nodes)
        .ok_or(SwfError::UnknownMachineSize)?;

    let mut dropped = DropCounts::default();
    let mut jobs = Vec::with_capacity(records.len());
    for r in &records {
        if r.submit < 0 {
            dropped.bad_submit += 1;
            continue;
        }
        let Some(runtime) = r.run_time.filter(|&t| t > 0) else {
            dropped.bad_runtime += 1;
            continue;
        };
        let width = match r.requested_procs.filter(|&p| p > 0).or(r.allocated_procs) {
            Some(p) if p > 0 => p as u64,
            _ => {
                dropped.bad_width += 1;
                continue;
            }
        };
        if width > nodes as u64 {
            dropped.too_wide += 1;
            continue;
        }
        let runtime = SimSpan::new(runtime as u64);
        let estimate = match r.requested_time.filter(|&t| t > 0) {
            Some(t) => SimSpan::new(t as u64).max(runtime),
            None => runtime,
        };
        jobs.push(Job {
            id: JobId(0), // reassigned by Trace::new
            arrival: SimTime::new(r.submit as u64),
            runtime,
            estimate,
            width: width as u32,
        });
    }
    let trace = Trace::new(name, nodes, jobs)?;
    Ok(SwfParse {
        trace,
        header,
        dropped,
        report,
    })
}

/// Serialize a trace to SWF text (round-trippable through [`parse_trace`]).
pub fn write_trace(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(&format!("; Computer: {}\n", trace.name()));
    out.push_str(&format!("; MaxProcs: {}\n", trace.nodes()));
    out.push_str("; Generated by backfill-sim\n");
    for job in trace.jobs() {
        // 18 fields; unknown fields written as -1.
        out.push_str(&format!(
            "{} {} -1 {} {} -1 -1 {} {} -1 1 -1 -1 -1 -1 -1 -1 -1\n",
            job.id.0 + 1,
            job.arrival.as_secs(),
            job.runtime.as_secs(),
            job.width,
            job.width,
            job.estimate.as_secs(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Computer: Test SP2
; MaxProcs: 128
; Note: tiny sample
1 0 5 100 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1
2 60 2 3600 -1 -1 -1 16 7200 -1 1 2 1 1 1 1 -1 -1
3 120 0 -1 8 -1 -1 8 100 -1 0 3 1 1 1 1 -1 -1
4 180 1 50 256 -1 -1 256 100 -1 1 4 1 1 1 1 -1 -1
";

    #[test]
    fn parses_header_pairs() {
        let (_, header, _) = parse_records_with(SAMPLE, ParseMode::Strict).unwrap();
        assert_eq!(header.get("MaxProcs").unwrap(), "128");
        assert_eq!(header.get("Computer").unwrap(), "Test SP2");
    }

    #[test]
    fn cleans_and_builds_trace() {
        let parsed = parse_trace(SAMPLE, "test", None).unwrap();
        // Job 3 has unknown runtime, job 4 is wider than 128.
        assert_eq!(parsed.trace.len(), 2);
        assert_eq!(parsed.dropped.bad_runtime, 1);
        assert_eq!(parsed.dropped.too_wide, 1);
        assert_eq!(parsed.dropped.total(), 2);
        let j0 = &parsed.trace.jobs()[0];
        assert_eq!(j0.arrival, SimTime::new(0));
        assert_eq!(j0.runtime, SimSpan::new(100));
        assert_eq!(j0.estimate, SimSpan::new(200));
        assert_eq!(j0.width, 4);
        assert_eq!(parsed.trace.nodes(), 128);
    }

    #[test]
    fn nodes_override_wins_over_header() {
        let parsed = parse_trace(SAMPLE, "test", Some(300)).unwrap();
        assert_eq!(parsed.trace.nodes(), 300);
        // Width-256 job now fits.
        assert_eq!(parsed.trace.len(), 3);
    }

    #[test]
    fn missing_machine_size_is_an_error() {
        let input = "1 0 5 100 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n";
        assert_eq!(
            parse_trace(input, "t", None),
            Err(SwfError::UnknownMachineSize)
        );
        assert!(parse_trace(input, "t", Some(8)).is_ok());
    }

    #[test]
    fn estimate_clamped_up_to_runtime() {
        // Runtime 500 > requested time 100 (job overran, scheduler killed
        // late): estimate becomes 500 so the invariant holds.
        let input = "; MaxProcs: 8\n1 0 5 500 4 -1 -1 4 100 -1 1 1 1 1 1 1 -1 -1\n";
        let parsed = parse_trace(input, "t", None).unwrap();
        assert_eq!(parsed.trace.jobs()[0].estimate, SimSpan::new(500));
    }

    #[test]
    fn missing_estimate_falls_back_to_runtime() {
        let input = "; MaxProcs: 8\n1 0 5 500 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1\n";
        let parsed = parse_trace(input, "t", None).unwrap();
        assert_eq!(parsed.trace.jobs()[0].estimate, SimSpan::new(500));
    }

    #[test]
    fn requested_procs_fall_back_to_allocated() {
        let input = "; MaxProcs: 8\n1 0 5 10 6 -1 -1 -1 20 -1 1 1 1 1 1 1 -1 -1\n";
        let parsed = parse_trace(input, "t", None).unwrap();
        assert_eq!(parsed.trace.jobs()[0].width, 6);
    }

    #[test]
    fn short_line_is_an_error() {
        let input = "; MaxProcs: 8\n1 0 5\n";
        assert!(matches!(
            parse_trace(input, "t", None),
            Err(SwfError::MalformedLine { line: 2, .. })
        ));
    }

    #[test]
    fn garbage_field_is_an_error() {
        let input = "; MaxProcs: 8\n1 0 5 abc 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n";
        assert!(matches!(
            parse_trace(input, "t", None),
            Err(SwfError::MalformedLine { .. })
        ));
    }

    #[test]
    fn float_times_are_accepted() {
        let input = "; MaxProcs: 8\n1 0.0 5 100.5 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n";
        let parsed = parse_trace(input, "t", None).unwrap();
        assert_eq!(parsed.trace.jobs()[0].runtime, SimSpan::new(100));
    }

    #[test]
    fn write_then_parse_round_trips() {
        let parsed = parse_trace(SAMPLE, "roundtrip", None).unwrap();
        let text = write_trace(&parsed.trace);
        let reparsed = parse_trace(&text, "roundtrip", None).unwrap();
        assert_eq!(reparsed.trace.nodes(), parsed.trace.nodes());
        assert_eq!(reparsed.trace.jobs(), parsed.trace.jobs());
        assert_eq!(reparsed.dropped.total(), 0);
    }

    #[test]
    fn empty_input_gives_empty_trace_with_override() {
        let parsed = parse_trace("; MaxProcs: 4\n", "empty", None).unwrap();
        assert!(parsed.trace.is_empty());
    }

    /// A dirty trace mixing truncated, non-numeric and short-field lines:
    /// strict aborts at the first bad line; lenient keeps the good jobs
    /// and attributes every skip to the right per-field counter.
    const DIRTY: &str = "\
; MaxProcs: 64
1 0 5 100 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1
2 30 5
3 60 5 xyz 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1
4 90 5 100 4 -1 -1 4 200 -1 oops 1 1 1 1 1 -1 -1
5 120 5 100 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1
6 150 5 100 4";

    #[test]
    fn strict_mode_aborts_on_the_first_malformed_line() {
        assert!(matches!(
            parse_trace(DIRTY, "dirty", None),
            Err(SwfError::MalformedLine { line: 3, .. })
        ));
    }

    #[test]
    fn lenient_mode_skips_malformed_lines_and_reports_per_field() {
        let parsed = parse_trace_with(DIRTY, "dirty", None, ParseMode::Lenient).unwrap();
        // Jobs 1 and 5 survive; lines 3/7 are short (line 7 truncated
        // mid-record), line 4 has a non-numeric run time, line 5 a
        // non-numeric status.
        assert_eq!(parsed.trace.len(), 2);
        assert_eq!(
            parsed
                .trace
                .jobs()
                .iter()
                .map(|j| j.arrival.as_secs())
                .collect::<Vec<_>>(),
            vec![0, 120]
        );
        assert_eq!(parsed.report.short_lines, 2);
        assert_eq!(parsed.report.bad_run_time, 1);
        assert_eq!(parsed.report.bad_status, 1);
        assert_eq!(parsed.report.total(), 4);
        assert_eq!(
            parsed.report.summary(),
            "2 short, 1 bad run time, 1 bad status"
        );
    }

    #[test]
    fn clean_parse_reports_zero_skips_in_both_modes() {
        let strict = parse_trace(SAMPLE, "t", None).unwrap();
        assert_eq!(strict.report.total(), 0);
        let lenient = parse_trace_with(SAMPLE, "t", None, ParseMode::Lenient).unwrap();
        assert_eq!(lenient, strict);
        assert_eq!(lenient.report.summary(), "clean");
    }
}
