//! Structured, leveled, targeted logging.
//!
//! Records carry a [`Level`], a target (defaulting to the emitting
//! module's path), and a formatted message. A process-global logger is
//! installed once via [`init`], which the binaries reach through
//! [`crate::cli::parse`]; the `error!`, `warn!`, `info!`, `debug!`, and
//! `trace!` macros check a single relaxed atomic load before formatting
//! anything, so disabled levels are near-free on the hot path and pool
//! workers can log without coordination beyond the sink mutex.
//!
//! # Filter grammar
//!
//! The filter string (flag `--log-level` or env `BFSIM_LOG`) is a
//! comma-separated list of directives:
//!
//! ```text
//! directive := level | target '=' level
//! level     := "off" | "error" | "warn" | "info" | "debug" | "trace"
//! ```
//!
//! A bare level sets the default; `target=level` overrides it for any
//! record whose target starts with `target` (longest prefix wins).
//! Examples: `info`, `warn,service=debug`, `off,sched=trace`.
//!
//! # Sinks
//!
//! Text (default): `[LEVEL target] message` on stderr. JSON
//! (`--log-json`): one object per line,
//! `{"seq":N,"level":"info","target":"...","msg":"..."}` — `seq` is a
//! process-monotone counter, deterministic where a wall clock would not
//! be. Opting into [`LogConfig::elapsed`] (flag `--log-elapsed`) adds a
//! monotonic `elapsed_ms` field (text sink: a `+Nms` tag) for latency
//! eyeballing; it stays off by default so golden log output is
//! byte-stable.

use crate::json::push_str_literal;
use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Log verbosity, ordered: `Error < Warn < Info < Debug < Trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed; the process may be about to exit.
    Error = 1,
    /// Something surprising that the process can absorb.
    Warn = 2,
    /// Coarse progress: one line per request / run / phase.
    Info = 3,
    /// Per-operation detail for debugging.
    Debug = 4,
    /// Event-level firehose (per scheduler decision).
    Trace = 5,
}

impl Level {
    /// Lower-case name, as used in filters and the JSON sink.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Upper-case name, as used by the text sink.
    pub fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    /// Parse a level name; `None` maps "off" and unknown names apart.
    pub fn parse(s: &str) -> Result<Option<Level>, String> {
        Ok(Some(match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => return Ok(None),
            "error" => Level::Error,
            "warn" | "warning" => Level::Warn,
            "info" => Level::Info,
            "debug" => Level::Debug,
            "trace" => Level::Trace,
            other => return Err(format!("unknown log level `{other}`")),
        }))
    }
}

/// One `target=level` override (empty target = the default directive).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Directive {
    target: String,
    level: Option<Level>,
}

/// A parsed filter string: default level plus per-target overrides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    default: Option<Level>,
    /// Sorted by descending target length so the first prefix match is
    /// the longest (most specific) one.
    overrides: Vec<Directive>,
}

impl Filter {
    /// Everything off.
    pub fn off() -> Self {
        Filter {
            default: None,
            overrides: Vec::new(),
        }
    }

    /// A uniform level with no per-target overrides.
    pub fn uniform(level: Level) -> Self {
        Filter {
            default: Some(level),
            overrides: Vec::new(),
        }
    }

    /// Parse the grammar documented at the [module level](self).
    pub fn parse(spec: &str) -> Result<Filter, String> {
        let mut filter = Filter::off();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                None => filter.default = Level::parse(part)?,
                Some((target, level)) => {
                    let target = target.trim();
                    if target.is_empty() {
                        return Err(format!("empty target in directive `{part}`"));
                    }
                    filter.overrides.push(Directive {
                        target: target.to_string(),
                        level: Level::parse(level)?,
                    });
                }
            }
        }
        filter
            .overrides
            .sort_by_key(|d| std::cmp::Reverse(d.target.len()));
        Ok(filter)
    }

    /// The effective level for `target` (longest matching prefix, else
    /// the default).
    fn level_for(&self, target: &str) -> Option<Level> {
        for d in &self.overrides {
            if target.starts_with(d.target.as_str()) {
                return d.level;
            }
        }
        self.default
    }

    /// Would a record at `level` under `target` be emitted?
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        self.level_for(target).is_some_and(|max| level <= max)
    }

    /// The most verbose level any directive allows — the value of the
    /// global fast gate.
    fn max_level(&self) -> u8 {
        self.overrides
            .iter()
            .map(|d| d.level.map_or(0, |l| l as u8))
            .chain([self.default.map_or(0, |l| l as u8)])
            .max()
            .unwrap_or(0)
    }
}

/// Where formatted records go.
pub enum Sink {
    /// Standard error (the default; keeps stdout clean for data).
    Stderr,
    /// Any writer — a file, a test buffer.
    Writer(Box<dyn Write + Send>),
}

impl fmt::Debug for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sink::Stderr => f.write_str("Sink::Stderr"),
            Sink::Writer(_) => f.write_str("Sink::Writer(..)"),
        }
    }
}

/// Full logger configuration, consumed by [`init`].
#[derive(Debug)]
pub struct LogConfig {
    /// Which records pass.
    pub filter: Filter,
    /// Emit JSON lines instead of text.
    pub json: bool,
    /// Destination.
    pub sink: Sink,
    /// Stamp each record with monotonic milliseconds since logger init
    /// (`elapsed_ms` in JSON, `+Nms` in text). Off by default: the
    /// deterministic `seq` counter alone keeps golden log tests
    /// byte-stable.
    pub elapsed: bool,
}

impl LogConfig {
    /// Text records through `filter` to stderr.
    pub fn new(filter: Filter) -> Self {
        LogConfig {
            filter,
            json: false,
            sink: Sink::Stderr,
            elapsed: false,
        }
    }
}

struct Logger {
    filter: Filter,
    json: bool,
    sink: Mutex<Sink>,
    seq: AtomicU64,
    /// `Some(init time)` when records carry `elapsed_ms`.
    elapsed_since: Option<std::time::Instant>,
}

static LOGGER: OnceLock<Logger> = OnceLock::new();
/// Fast gate: the most verbose enabled level (0 = everything off). One
/// relaxed load decides whether a macro call formats anything at all.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Install the global logger. The first call wins; later calls return
/// `Err` with the rejected config (tests and library callers can treat
/// that as success — a logger is installed either way).
pub fn init(config: LogConfig) -> Result<(), LogConfig> {
    let max = config.filter.max_level();
    let logger = Logger {
        filter: config.filter,
        json: config.json,
        sink: Mutex::new(config.sink),
        seq: AtomicU64::new(0),
        elapsed_since: config.elapsed.then(std::time::Instant::now),
    };
    match LOGGER.set(logger) {
        Ok(()) => {
            MAX_LEVEL.store(max, Ordering::Release);
            Ok(())
        }
        Err(rejected) => Err(LogConfig {
            filter: rejected.filter,
            json: rejected.json,
            sink: rejected.sink.into_inner().unwrap_or(Sink::Stderr),
            elapsed: rejected.elapsed_since.is_some(),
        }),
    }
}

/// Cheap pre-check used by the macros: is a record at `level` under
/// `target` worth formatting?
#[inline]
pub fn enabled(level: Level, target: &str) -> bool {
    if (level as u8) > MAX_LEVEL.load(Ordering::Relaxed) {
        return false;
    }
    LOGGER
        .get()
        .is_some_and(|l| l.filter.enabled(level, target))
}

/// Emit one record. Callers should gate on [`enabled`] first (the macros
/// do); calling it unconditionally is correct but formats eagerly.
pub fn log(level: Level, target: &str, args: fmt::Arguments<'_>) {
    let Some(logger) = LOGGER.get() else { return };
    if !logger.filter.enabled(level, target) {
        return;
    }
    let seq = logger.seq.fetch_add(1, Ordering::Relaxed);
    let elapsed_ms = logger
        .elapsed_since
        .map(|since| since.elapsed().as_millis() as u64);
    let line = if logger.json {
        let mut out = String::with_capacity(96);
        out.push_str("{\"seq\":");
        out.push_str(&seq.to_string());
        if let Some(ms) = elapsed_ms {
            out.push_str(",\"elapsed_ms\":");
            out.push_str(&ms.to_string());
        }
        out.push_str(",\"level\":");
        push_str_literal(&mut out, level.as_str());
        out.push_str(",\"target\":");
        push_str_literal(&mut out, target);
        out.push_str(",\"msg\":");
        push_str_literal(&mut out, &args.to_string());
        out.push_str("}\n");
        out
    } else {
        match elapsed_ms {
            Some(ms) => format!("[{} +{}ms {}] {}\n", level.tag(), ms, target, args),
            None => format!("[{} {}] {}\n", level.tag(), target, args),
        }
    };
    let mut sink = logger.sink.lock().unwrap_or_else(|e| e.into_inner());
    let _ = match &mut *sink {
        Sink::Stderr => io::stderr().write_all(line.as_bytes()),
        Sink::Writer(w) => w.write_all(line.as_bytes()).and_then(|()| w.flush()),
    };
}

/// Log at an explicit [`Level`]; prefer the leveled shorthands.
#[macro_export]
macro_rules! log_at {
    (target: $target:expr, $lvl:expr, $($arg:tt)+) => {{
        let lvl = $lvl;
        let target = $target;
        if $crate::log::enabled(lvl, target) {
            $crate::log::log(lvl, target, format_args!($($arg)+));
        }
    }};
    ($lvl:expr, $($arg:tt)+) => {
        $crate::log_at!(target: module_path!(), $lvl, $($arg)+)
    };
}

/// Log at [`Level::Error`].
#[macro_export]
macro_rules! error {
    (target: $t:expr, $($a:tt)+) => { $crate::log_at!(target: $t, $crate::log::Level::Error, $($a)+) };
    ($($a:tt)+) => { $crate::log_at!($crate::log::Level::Error, $($a)+) };
}

/// Log at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    (target: $t:expr, $($a:tt)+) => { $crate::log_at!(target: $t, $crate::log::Level::Warn, $($a)+) };
    ($($a:tt)+) => { $crate::log_at!($crate::log::Level::Warn, $($a)+) };
}

/// Log at [`Level::Info`].
#[macro_export]
macro_rules! info {
    (target: $t:expr, $($a:tt)+) => { $crate::log_at!(target: $t, $crate::log::Level::Info, $($a)+) };
    ($($a:tt)+) => { $crate::log_at!($crate::log::Level::Info, $($a)+) };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    (target: $t:expr, $($a:tt)+) => { $crate::log_at!(target: $t, $crate::log::Level::Debug, $($a)+) };
    ($($a:tt)+) => { $crate::log_at!($crate::log::Level::Debug, $($a)+) };
}

/// Log at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    (target: $t:expr, $($a:tt)+) => { $crate::log_at!(target: $t, $crate::log::Level::Trace, $($a)+) };
    ($($a:tt)+) => { $crate::log_at!($crate::log::Level::Trace, $($a)+) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{self, Command, Program, LOG};

    /// A program that reads only the logging flags and any operands.
    static PROGRAM: Program = Program {
        name: "x",
        about: "",
        commands: &[Command {
            name: "",
            about: "",
            operands: "[ARG]...",
            groups: &[&LOG],
        }],
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The logger `list` asks for, and the operands left once the
    /// logging flags are read, as `cli::parse` would see them.
    fn cli_config(list: &[&str], env: Option<&str>) -> Result<(LogConfig, Vec<String>), String> {
        let (parsed, error) = cli::tokenize(&PROGRAM, args(list));
        if let Some(error) = error {
            return Err(error);
        }
        Ok((cli::log_config(&parsed, env)?, parsed.operands))
    }

    #[test]
    fn cli_config_strips_the_logging_flags() {
        let (config, rest) = cli_config(
            &[
                "run",
                "--log-level",
                "info",
                "5",
                "--log-json",
                "--log-elapsed",
            ],
            Some("trace"),
        )
        .unwrap();
        assert_eq!(rest, args(&["run", "5"]));
        assert_eq!(
            config.filter,
            Filter::uniform(Level::Info),
            "the flag beats the env"
        );
        assert!(config.json && config.elapsed);
    }

    #[test]
    fn cli_config_falls_back_to_the_env_then_to_errors() {
        let filter = |env| cli_config(&["x"], env).unwrap().0.filter;
        assert_eq!(filter(Some("debug")), Filter::uniform(Level::Debug));
        assert_eq!(filter(Some("loud")), Filter::uniform(Level::Warn));
        assert_eq!(filter(Some(" ")), Filter::uniform(Level::Error));
        assert_eq!(filter(None), Filter::uniform(Level::Error));
        let (config, _) = cli_config(&["x"], None).unwrap();
        assert!(!config.json && !config.elapsed);
    }

    #[test]
    fn cli_config_rejects_a_missing_or_bad_spec() {
        let err = |list: &[&str]| cli_config(list, Some("info")).err().unwrap();
        assert_eq!(err(&["--log-level"]), "bad --log-level: missing value SPEC");
        assert!(err(&["--log-level", "loud"]).starts_with("bad --log-level \"loud\": "));
    }

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("TRACE").unwrap(), Some(Level::Trace));
        assert_eq!(Level::parse("off").unwrap(), None);
        assert!(Level::parse("loud").is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn filter_grammar() {
        let f = Filter::parse("warn,service=debug,service::pool=off,sched=trace").unwrap();
        assert!(f.enabled(Level::Warn, "bfsim"));
        assert!(!f.enabled(Level::Info, "bfsim"));
        assert!(f.enabled(Level::Debug, "service::server"));
        // Longest prefix wins: the pool is silenced below its parent.
        assert!(!f.enabled(Level::Error, "service::pool"));
        assert!(f.enabled(Level::Trace, "sched::easy"));
        assert_eq!(f.max_level(), Level::Trace as u8);
    }

    #[test]
    fn filter_default_only_and_off() {
        let f = Filter::parse("info").unwrap();
        assert!(f.enabled(Level::Info, "anything"));
        assert!(!f.enabled(Level::Debug, "anything"));
        let off = Filter::parse("off").unwrap();
        assert!(!off.enabled(Level::Error, "anything"));
        assert_eq!(off.max_level(), 0);
    }

    #[test]
    fn filter_rejects_bad_specs() {
        assert!(Filter::parse("chatty").is_err());
        assert!(Filter::parse("=info").is_err());
        assert!(Filter::parse("a=silly").is_err());
    }

    #[test]
    fn disabled_without_init_is_cheap_and_safe() {
        // The global logger may or may not be installed by another test;
        // either way a disabled-level check must not panic.
        let _ = enabled(Level::Trace, "nope");
        log(Level::Trace, "nope", format_args!("dropped"));
    }
}
