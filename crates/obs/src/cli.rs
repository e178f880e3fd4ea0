//! One table-driven command-line parser for every binary.
//!
//! A binary declares each flag once, as a [`Flag`]: its name, value
//! placeholder, default, help line and value parser. Flags gather into
//! [`Group`]s, the shared ones (such as [`LOG`]) declared once, and
//! groups into the [`Command`]s of a [`Program`]. [`parse`] owns every
//! usage outcome: `-h` or `--help` anywhere prints the generated help and
//! exits 0; the logger is installed from the [`LOG`] flags (else
//! `BFSIM_LOG`) before any other value is checked; an unknown flag, a
//! flag the command does not read, a missing value or a value its parser
//! rejects logs one `bad --FLAG …` line and exits 2. Every value given is
//! parsed up front, so the getters on [`Args`] cannot fail on user input.

use crate::log::{self, Filter, Level, LogConfig};
use std::fmt::Write as _;
use std::io::Write;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One flag whose value parses to a `T`.
pub struct Flag<T> {
    name: &'static str,
    metavar: &'static str,
    default: &'static str,
    help: &'static str,
    parse: fn(&str) -> Result<T, String>,
}

impl<T> Flag<T> {
    /// A flag named `name` (`"-o, --out"` adds a short spelling) that
    /// takes a `metavar` value, or none if `metavar` is empty. `default`
    /// is parsed as if typed when the flag is absent, unless it is empty.
    pub const fn new(
        name: &'static str,
        metavar: &'static str,
        default: &'static str,
        help: &'static str,
        parse: fn(&str) -> Result<T, String>,
    ) -> Self {
        Flag {
            name,
            metavar,
            default,
            help,
            parse,
        }
    }
}

impl Flag<bool> {
    /// A flag that takes no value; [`Args::on`] reads it.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Flag::new(name, "", "", help, |_| Ok(true))
    }
}

/// A flag of any value type, as the tables list it.
pub trait Entry: Sync {
    /// Name, value placeholder, default and help line.
    fn text(&self) -> [&'static str; 4];
    /// Why `raw` is not a value of this flag, if it is not.
    fn check(&self, raw: &str) -> Result<(), String>;
}

impl<T> Entry for Flag<T> {
    fn text(&self) -> [&'static str; 4] {
        [self.name, self.metavar, self.default, self.help]
    }

    fn check(&self, raw: &str) -> Result<(), String> {
        (self.parse)(raw).map(drop)
    }
}

/// Flags that help lists under one heading.
pub struct Group {
    /// The heading.
    pub title: &'static str,
    /// The flags, in help order.
    pub flags: &'static [&'static dyn Entry],
}

/// One command: the flags and operands it reads.
pub struct Command {
    /// The command word; empty for a program without commands.
    pub name: &'static str,
    /// One help line.
    pub about: &'static str,
    /// The operands' placeholder, e.g. `[FILE.swf]`; empty for none.
    pub operands: &'static str,
    /// Every flag the command reads.
    pub groups: &'static [&'static Group],
}

impl Command {
    fn find(&self, arg: &str) -> Option<&'static dyn Entry> {
        let mut flags = self.groups.iter().flat_map(|g| g.flags.iter().copied());
        flags.find(|f| f.text()[0].split(", ").any(|name| name == arg))
    }
}

/// A binary: its name and commands.
pub struct Program {
    /// The binary's name, also its log target.
    pub name: &'static str,
    /// One help line.
    pub about: &'static str,
    /// Its commands; one unnamed command for a program without any.
    pub commands: &'static [Command],
}

/// The logging flags.
pub static LOG: Group = Group {
    title: "logging",
    flags: &[&LOG_LEVEL, &LOG_JSON, &LOG_ELAPSED],
};
/// `--log-level SPEC`: the `obs::log` filter grammar; beats `BFSIM_LOG`.
pub static LOG_LEVEL: Flag<Filter> = Flag::new(
    "--log-level",
    "SPEC",
    "",
    "log filter, e.g. info or warn,service=debug (default: $BFSIM_LOG, else error)",
    Filter::parse,
);
/// `--log-json`: JSON-lines log records.
pub static LOG_JSON: Flag<bool> = Flag::switch("--log-json", "log JSON lines instead of text");
/// `--log-elapsed`: stamp each record with `elapsed_ms`.
pub static LOG_ELAPSED: Flag<bool> =
    Flag::switch("--log-elapsed", "stamp each log record with elapsed_ms");

/// The parsed command line of one command.
pub struct Args {
    /// The command word; empty for a program without commands.
    pub command: &'static str,
    /// Every flag given, in order; the last value wins.
    values: Vec<(&'static dyn Entry, String)>,
    /// The operands, in order.
    pub operands: Vec<String>,
}

impl Args {
    /// The flag's last value, else its default, else `None`.
    pub fn opt<T>(&self, flag: &Flag<T>) -> Option<T> {
        let given = self
            .values
            .iter()
            .rev()
            .find(|(f, _)| f.text()[0] == flag.name);
        let raw = match given {
            Some((_, raw)) => raw.as_str(),
            None if flag.default.is_empty() => return None,
            None => flag.default,
        };
        Some((flag.parse)(raw).expect("parse checked every value; defaults parse"))
    }

    /// The value of a flag that has a default.
    pub fn get<T>(&self, flag: &Flag<T>) -> T {
        self.opt(flag).expect("the flag declares a default")
    }

    /// Whether the switch was given.
    pub fn on(&self, flag: &Flag<bool>) -> bool {
        self.opt(flag).unwrap_or(false)
    }
}

/// Set once a write to stdout found no reader.
static STDOUT_GONE: AtomicBool = AtomicBool::new(false);

/// Write `args` to stdout and flush it. Once stdout has no reader (one
/// that left early, as in `bfsim simulate … | head -1`), that write and
/// every later one are dropped and reported as done, so the program runs
/// on to its own exit code; any other error is returned.
pub fn write_stdout(args: std::fmt::Arguments) -> std::io::Result<()> {
    if STDOUT_GONE.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_GONE.store(true, Ordering::Relaxed);
            Ok(())
        }
        result => result,
    }
}

/// Parse `args` (without the program name) against `program`'s tables,
/// install the logger, and return the command line — or exit: 0 after
/// printing help, 2 after logging the first usage error.
pub fn parse(program: &'static Program, args: Vec<String>) -> Args {
    if args.iter().any(|a| a == "-h" || a == "--help") {
        let text = help(program, args.first().map(String::as_str));
        if let Err(e) = write_stdout(format_args!("{text}")) {
            panic!("failed printing to stdout: {e}");
        }
        std::process::exit(0);
    }
    let (args, error) = tokenize(program, args);
    match log_config(&args, std::env::var("BFSIM_LOG").ok().as_deref()) {
        Ok(config) => {
            let _ = log::init(config);
        }
        Err(err) => {
            eprintln!("{}: {err}", program.name);
            std::process::exit(2);
        }
    }
    let error = error.or_else(|| {
        args.values.iter().find_map(|(flag, raw)| {
            let why = flag.check(raw).err()?;
            Some(format!("bad {} {raw:?}: {why}", flag.text()[0]))
        })
    });
    if let Some(err) = error {
        crate::error!(target: program.name, "{err}");
        std::process::exit(2);
    }
    args
}

/// Split `args` into the command, its flags and its operands, checking
/// names and arity but no values; also return the first usage error.
pub(crate) fn tokenize(program: &'static Program, args: Vec<String>) -> (Args, Option<String>) {
    let mut it = args.into_iter();
    let mut parsed = Args {
        command: "",
        values: Vec::new(),
        operands: Vec::new(),
    };
    let command = match program.commands {
        [only] if only.name.is_empty() => only,
        all => {
            let word = it.next().unwrap_or_default();
            let Some(command) = all.iter().find(|c| c.name == word) else {
                let names: Vec<&str> = all.iter().map(|c| c.name).collect();
                let error = match word.as_str() {
                    "" => "missing command (try --help)".to_string(),
                    _ => format!("unknown command {word:?} ({})", names.join("|")),
                };
                return (parsed, Some(error));
            };
            command
        }
    };
    parsed.command = command.name;
    let usage = format!("{} {}", program.name, command.name);
    let usage = usage.trim_end();
    let mut error = None;
    while let Some(arg) = it.next() {
        let problem = if !arg.starts_with('-') || arg == "-" {
            let unwanted = command.operands.is_empty();
            let problem = unwanted.then(|| format!("bad argument {arg:?}: {usage} takes none"));
            parsed.operands.push(arg);
            problem
        } else if let Some(flag) = command.find(&arg) {
            let metavar = flag.text()[1];
            let raw = if metavar.is_empty() {
                Some(String::new())
            } else {
                it.next()
            };
            let missing = raw
                .is_none()
                .then(|| format!("bad {arg}: missing value {metavar}"));
            parsed.values.extend(raw.map(|raw| (flag, raw)));
            missing
        } else if program.commands.iter().any(|c| c.find(&arg).is_some()) {
            Some(format!("bad {arg}: not read by {usage} (see --help)"))
        } else {
            Some(format!("bad {arg}: unknown to {usage} (see --help)"))
        };
        error = error.or(problem);
    }
    (parsed, error)
}

/// The logger [`parse`] installs: `--log-level` beats `BFSIM_LOG`
/// (`env`), whose unparsable spec falls back to `warn`; with neither,
/// errors only.
pub(crate) fn log_config(args: &Args, env: Option<&str>) -> Result<LogConfig, String> {
    let given = |name: &str| {
        let mut given = args
            .values
            .iter()
            .rev()
            .filter(|(f, _)| f.text()[0] == name);
        given.next().map(|(_, raw)| raw.as_str())
    };
    let filter = match (given(LOG_LEVEL.name), env) {
        (Some(spec), _) => {
            Filter::parse(spec).map_err(|e| format!("bad --log-level {spec:?}: {e}"))?
        }
        (None, Some(env)) if !env.trim().is_empty() => {
            Filter::parse(env).unwrap_or_else(|_| Filter::uniform(Level::Warn))
        }
        (None, _) => Filter::uniform(Level::Error),
    };
    let mut config = LogConfig::new(filter);
    config.json = given(LOG_JSON.name).is_some();
    config.elapsed = given(LOG_ELAPSED.name).is_some();
    Ok(config)
}

/// The help for the command `first` names, else for the program.
fn help(program: &Program, first: Option<&str>) -> String {
    let mut out = String::new();
    let command = match program.commands {
        [only] if only.name.is_empty() => Some(only),
        all => all.iter().find(|c| Some(c.name) == first),
    };
    let Some(command) = command else {
        let (name, about) = (program.name, program.about);
        let width = program.commands.iter().map(|c| c.name.len()).max();
        let _ = writeln!(out, "usage: {name} <command> [flags]\n{about}\n\ncommands:");
        for c in program.commands {
            let _ = writeln!(out, "  {:w$}  {}", c.name, c.about, w = width.unwrap_or(0));
        }
        let _ = writeln!(out, "\n`{name} <command> --help` lists its flags.");
        return out;
    };
    let flags = if command.groups.is_empty() {
        ""
    } else {
        "[flags]"
    };
    let words = [program.name, command.name, flags, command.operands];
    let usage: Vec<&str> = words.into_iter().filter(|w| !w.is_empty()).collect();
    let about = match command.about {
        "" => program.about,
        about => about,
    };
    let _ = writeln!(out, "usage: {}\n{about}", usage.join(" "));
    let left = |flag: &dyn Entry| {
        let [name, metavar, ..] = flag.text();
        format!("{name} {metavar}").trim_end().to_string()
    };
    let all = command.groups.iter().flat_map(|g| g.flags.iter());
    let width = all.map(|f| left(*f).len()).max().unwrap_or(0);
    for group in command.groups {
        let _ = writeln!(out, "\n{}:", group.title);
        for flag in group.flags {
            let [_, _, default, help] = flag.text();
            let _ = write!(out, "  {:width$}  {help}", left(*flag));
            if !default.is_empty() {
                let _ = write!(out, " [default: {default}]");
            }
            out.push('\n');
        }
    }
    out
}

/// Any text.
pub fn text(raw: &str) -> Result<String, String> {
    Ok(raw.to_string())
}

/// One of `choices`.
pub fn one_of(raw: &str, choices: &[&str]) -> Result<String, String> {
    if choices.contains(&raw) {
        Ok(raw.to_string())
    } else {
        Err(format!("need one of {}", choices.join(", ")))
    }
}

/// A number of type `T`.
pub fn number<T: FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| "need a number".to_string())
}

/// An integer of at least 1.
pub fn positive<T: FromStr + PartialOrd + From<u8>>(raw: &str) -> Result<T, String> {
    let n = number(raw).ok().filter(|n| *n >= T::from(1));
    n.ok_or_else(|| "need an integer >= 1".to_string())
}

/// Milliseconds; `0` means none.
pub fn millis(raw: &str) -> Result<Option<Duration>, String> {
    let ms = number(raw).map_err(|_| "need milliseconds (0 disables)".to_string())?;
    Ok((ms > 0).then(|| Duration::from_millis(ms)))
}

/// A non-empty comma-separated list; blanks between commas are skipped.
pub fn list<T: FromStr>(raw: &str) -> Result<Vec<T>, String> {
    let items: Vec<&str> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        return Err("need a comma-separated list".to_string());
    }
    let item = |s: &&str| s.parse().map_err(|_| format!("bad item {s:?}"));
    items.iter().map(item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    static JOBS: Flag<usize> = Flag::new("--jobs", "N", "5000", "jobs", positive::<usize>);
    static OUT: Flag<String> = Flag::new("-o, --out", "FILE", "", "output", text);
    static FAST: Flag<bool> = Flag::switch("--fast", "go fast");
    static RUN_FLAGS: Group = Group {
        title: "run",
        flags: &[&JOBS, &OUT, &FAST],
    };
    static PROGRAM: Program = Program {
        name: "prog",
        about: "A test program.",
        commands: &[
            Command {
                name: "run",
                about: "Run it.",
                operands: "",
                groups: &[&RUN_FLAGS, &LOG],
            },
            Command {
                name: "show",
                about: "Show it.",
                operands: "[FILE]",
                groups: &[&LOG],
            },
        ],
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn split(list: &[&str]) -> (Args, Option<String>) {
        tokenize(&PROGRAM, args(list))
    }

    #[test]
    fn values_defaults_aliases_and_switches() {
        let (a, error) = split(&[
            "run", "--jobs", "7", "-o", "x.json", "--fast", "--jobs", "9",
        ]);
        assert_eq!(error, None);
        assert_eq!(a.command, "run");
        assert_eq!(a.get(&JOBS), 9, "the last value wins");
        assert_eq!(a.opt(&OUT).as_deref(), Some("x.json"));
        assert!(a.on(&FAST));
        let (a, _) = split(&["run"]);
        assert_eq!(a.get(&JOBS), 5000);
        assert_eq!(a.opt(&OUT), None);
        assert!(!a.on(&FAST));
        let (a, error) = split(&["show", "f.swf", "--log-json"]);
        assert_eq!((a.operands, error), (args(&["f.swf"]), None));
    }

    #[test]
    fn usage_errors_name_the_flag() {
        let error = |list: &[&str]| split(list).1.expect("a usage error");
        assert_eq!(
            error(&["run", "--bogus"]),
            "bad --bogus: unknown to prog run (see --help)"
        );
        assert_eq!(
            error(&["show", "--jobs", "3"]),
            "bad --jobs: not read by prog show (see --help)"
        );
        assert_eq!(error(&["run", "--jobs"]), "bad --jobs: missing value N");
        assert_eq!(
            error(&["run", "x"]),
            "bad argument \"x\": prog run takes none"
        );
        assert_eq!(error(&["walk"]), "unknown command \"walk\" (run|show)");
        assert_eq!(error(&[]), "missing command (try --help)");
        // Values are checked after tokenizing, by the flag's own parser.
        let (a, error) = split(&["run", "--jobs", "0"]);
        assert_eq!(error, None);
        assert_eq!(
            JOBS.check(&a.values[0].1).unwrap_err(),
            "need an integer >= 1"
        );
    }

    #[test]
    fn help_lists_every_flag_with_its_default() {
        let command = help(&PROGRAM, Some("run"));
        assert!(
            command.starts_with("usage: prog run [flags]\nRun it.\n\nrun:\n"),
            "{command}"
        );
        assert!(
            command.contains("\n  --jobs N          jobs [default: 5000]\n"),
            "{command}"
        );
        assert!(
            command.contains("\n  -o, --out FILE    output\n"),
            "{command}"
        );
        assert!(
            command.contains("\n\nlogging:\n  --log-level SPEC  log filter"),
            "{command}"
        );
        let top = help(&PROGRAM, None);
        assert!(
            top.starts_with("usage: prog <command> [flags]\nA test program.\n"),
            "{top}"
        );
        assert!(top.contains("  show  Show it.\n"), "{top}");
        assert!(help(&PROGRAM, Some("show")).starts_with("usage: prog show [flags] [FILE]\n"));
    }

    #[test]
    fn value_parsers() {
        assert_eq!(positive::<u32>("3"), Ok(3));
        assert!(positive::<u32>("0").is_err() && positive::<u32>("-1").is_err());
        assert_eq!(millis("0"), Ok(None));
        assert_eq!(millis("5"), Ok(Some(Duration::from_millis(5))));
        assert_eq!(list::<u64>("1, 2,,3"), Ok(vec![1, 2, 3]));
        assert!(list::<u64>(" , ").is_err() && list::<u64>("1,x").is_err());
    }
}
