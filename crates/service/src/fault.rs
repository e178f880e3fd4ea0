//! Deterministic fault injection for the simulation service.
//!
//! A [`FaultPlan`] describes which faults to inject at which **submit
//! indices** — the 0-based order in which the daemon accepts `Submit`
//! requests (other verbs never consume a submit index). Two fault
//! kinds live in their own index spaces instead: `connect` counts
//! accepted TCP connections and `handshake` counts `Capabilities`
//! requests, so coordinator-side recovery (startup handshakes,
//! reprobe loops) is chaos-testable deterministically without
//! perturbing submit indices. Because the plan is pure data evaluated
//! against an index (probabilistic rules hash the plan seed with the
//! index, they never draw from shared mutable RNG state), a chaos
//! scenario is reproducible byte-for-byte: the same plan injects the
//! same fault set in every run, regardless of thread interleaving.
//!
//! # Spec grammar
//!
//! A plan is parsed from a compact spec string (CLI `--fault-plan`,
//! env `BFSIM_FAULT_PLAN`):
//!
//! ```text
//! spec      := directive ( ';' directive )*
//! directive := 'seed=' u64
//!            | ('panic' | 'drop' | 'corrupt' | 'connect' | 'handshake') '@' sel
//!            | 'delay' '@' sel '=' u64 ['ms']
//! sel       := index | start '..' end | 'p' float      (end exclusive)
//! ```
//!
//! Example: `seed=7;panic@2;drop@5;delay@9=150ms;corrupt@p0.05` panics
//! the worker executing submit #2, drops the connection carrying submit
//! #5's response, delays submit #9 by 150 ms inside its worker, and
//! corrupts ~5% of response frames (chosen deterministically from the
//! seed).
//!
//! # Fault kinds and where they bite
//!
//! | kind        | injection point                             | client sees            |
//! |-------------|---------------------------------------------|------------------------|
//! | `panic`     | worker thread, before the simulation runs   | retryable server error |
//! | `delay`     | worker thread, before the simulation runs   | slow response / timeout|
//! | `drop`      | connection handler, instead of the response | EOF / connection reset |
//! | `corrupt`   | connection handler, mangled response frame  | corrupt-frame error    |
//! | `connect`   | accept path, before any frame is read       | EOF / connection reset |
//! | `handshake` | `Capabilities` request                      | non-retryable error    |
//!
//! `panic` and `delay` act inside a worker, so they only apply to cache
//! misses (a hit never reaches the pool); `drop` and `corrupt` act on
//! the wire and apply to hits and misses alike. `connect` is indexed by
//! accepted-connection order and `handshake` by `Capabilities`-request
//! order — each has its own counter, so e.g. `connect@0;handshake@1..3`
//! kills the first connection and refuses the second and third
//! handshakes while leaving submit faults untouched. The connection a
//! `Shutdown` opens to wake the daemon's blocked accept is not a client
//! and claims no `connect` index, so connections opened during the
//! drain keep counting on from the last client connection.

use backfill_sim::canon::fnv1a_64;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which submit indices a fault rule applies to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selector {
    /// Exactly this submit index.
    Index(u64),
    /// The half-open index range `[start, end)`.
    Range(u64, u64),
    /// Each index independently with this probability, decided by a
    /// deterministic hash of `(plan seed, rule position, index)`.
    Prob(f64),
}

impl Selector {
    /// Does this selector fire at `index`? `seed` and `salt` (the rule's
    /// position in the plan) only matter for probabilistic rules, which
    /// must be deterministic yet independent across rules.
    fn matches(&self, seed: u64, salt: u64, index: u64) -> bool {
        match *self {
            Selector::Index(i) => index == i,
            Selector::Range(start, end) => index >= start && index < end,
            Selector::Prob(p) => {
                let mut bytes = [0u8; 24];
                bytes[..8].copy_from_slice(&seed.to_le_bytes());
                bytes[8..16].copy_from_slice(&salt.to_le_bytes());
                bytes[16..].copy_from_slice(&index.to_le_bytes());
                let draw = fnv1a_64(&bytes) as f64 / u64::MAX as f64;
                draw < p
            }
        }
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Selector::Index(i) => write!(f, "{i}"),
            Selector::Range(a, b) => write!(f, "{a}..{b}"),
            Selector::Prob(p) => write!(f, "p{p}"),
        }
    }
}

/// What a fault rule injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Panic the worker thread executing the request (the pool survives;
    /// the requester gets a retryable error).
    Panic,
    /// Drop the TCP connection instead of writing the response.
    Drop,
    /// Write a deliberately undecodable response frame.
    Corrupt,
    /// Sleep this long in the worker before simulating (a slow worker).
    Delay(Duration),
    /// Close an accepted connection before reading anything (indexed by
    /// accepted-connection order, not submit order).
    ConnectDrop,
    /// Answer a `Capabilities` request with a non-retryable error
    /// (indexed by `Capabilities`-request order, not submit order).
    HandshakeRefuse,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Drop => write!(f, "drop"),
            FaultKind::Corrupt => write!(f, "corrupt"),
            FaultKind::Delay(_) => write!(f, "delay"),
            FaultKind::ConnectDrop => write!(f, "connect"),
            FaultKind::HandshakeRefuse => write!(f, "handshake"),
        }
    }
}

/// One directive of a plan: inject `kind` at the indices `sel` selects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// The fault to inject.
    pub kind: FaultKind,
    /// Which submit indices it applies to.
    pub sel: Selector,
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Delay(d) => write!(f, "delay@{}={}ms", self.sel, d.as_millis()),
            kind => write!(f, "{kind}@{}", self.sel),
        }
    }
}

/// A seedable, deterministic chaos scenario: a seed plus fault rules.
///
/// Parse one with [`FaultPlan::parse`] and hand it to the server via
/// `ServiceConfig::fault_plan`; [`FaultPlan::actions`] answers "what
/// happens to submit #i" as a pure function.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed feeding probabilistic selectors (exact-index rules ignore it).
    pub seed: u64,
    /// The fault directives, in spec order.
    pub rules: Vec<FaultRule>,
}

/// The faults that apply to one submit request, merged across rules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultActions {
    /// Panic the executing worker.
    pub panic: bool,
    /// Drop the connection instead of responding.
    pub drop: bool,
    /// Corrupt the response frame.
    pub corrupt: bool,
    /// Sleep in the worker before simulating (longest rule wins).
    pub delay: Option<Duration>,
}

impl FaultActions {
    /// True when no fault applies.
    pub fn is_none(&self) -> bool {
        *self == FaultActions::default()
    }
}

impl FaultPlan {
    /// Parse a spec string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for raw in spec.split([';', ',']) {
            let part = raw.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(seed) = part.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed {seed:?} (need a u64)"))?;
                continue;
            }
            let (kind_str, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("bad directive {part:?} (expected kind@selector)"))?;
            let (sel_str, kind) = match kind_str.trim() {
                "panic" => (rest, FaultKind::Panic),
                "drop" => (rest, FaultKind::Drop),
                "corrupt" => (rest, FaultKind::Corrupt),
                "connect" => (rest, FaultKind::ConnectDrop),
                "handshake" => (rest, FaultKind::HandshakeRefuse),
                "delay" => {
                    let (sel, ms) = rest.split_once('=').ok_or_else(|| {
                        format!("delay directive {part:?} needs '=MILLIS' after the selector")
                    })?;
                    let ms: u64 = ms
                        .trim()
                        .trim_end_matches("ms")
                        .parse()
                        .map_err(|_| format!("bad delay millis in {part:?}"))?;
                    (sel, FaultKind::Delay(Duration::from_millis(ms)))
                }
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} \
                         (panic | drop | corrupt | delay | connect | handshake)"
                    ))
                }
            };
            let sel = Self::parse_selector(sel_str.trim())?;
            plan.rules.push(FaultRule { kind, sel });
        }
        Ok(plan)
    }

    fn parse_selector(s: &str) -> Result<Selector, String> {
        if let Some(p) = s.strip_prefix('p') {
            let p: f64 = p
                .parse()
                .map_err(|_| format!("bad probability {s:?} (pFLOAT)"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of [0, 1]"));
            }
            return Ok(Selector::Prob(p));
        }
        if let Some((a, b)) = s.split_once("..") {
            let start: u64 = a.parse().map_err(|_| format!("bad range start {a:?}"))?;
            let end: u64 = b.parse().map_err(|_| format!("bad range end {b:?}"))?;
            if end <= start {
                return Err(format!("empty range {s:?} (end must exceed start)"));
            }
            return Ok(Selector::Range(start, end));
        }
        s.parse()
            .map(Selector::Index)
            .map_err(|_| format!("bad selector {s:?} (index | start..end | pFLOAT)"))
    }

    /// The merged fault actions for submit `index`. Pure: equal
    /// `(plan, index)` always answer the same actions. Connection- and
    /// handshake-scoped rules never contribute here — they live in
    /// their own index spaces ([`FaultPlan::connect_drops`],
    /// [`FaultPlan::handshake_refuses`]).
    pub fn actions(&self, index: u64) -> FaultActions {
        let mut actions = FaultActions::default();
        for (salt, rule) in self.rules.iter().enumerate() {
            if !rule.sel.matches(self.seed, salt as u64, index) {
                continue;
            }
            match rule.kind {
                FaultKind::Panic => actions.panic = true,
                FaultKind::Drop => actions.drop = true,
                FaultKind::Corrupt => actions.corrupt = true,
                FaultKind::Delay(d) => {
                    actions.delay = Some(actions.delay.map_or(d, |prev| prev.max(d)))
                }
                FaultKind::ConnectDrop | FaultKind::HandshakeRefuse => {}
            }
        }
        actions
    }

    /// Should the `index`-th accepted connection be dropped at accept?
    /// Pure, like [`FaultPlan::actions`].
    pub fn connect_drops(&self, index: u64) -> bool {
        self.rules.iter().enumerate().any(|(salt, rule)| {
            rule.kind == FaultKind::ConnectDrop && rule.sel.matches(self.seed, salt as u64, index)
        })
    }

    /// Should the `index`-th `Capabilities` request be refused?
    pub fn handshake_refuses(&self, index: u64) -> bool {
        self.rules.iter().enumerate().any(|(salt, rule)| {
            rule.kind == FaultKind::HandshakeRefuse
                && rule.sel.matches(self.seed, salt as u64, index)
        })
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for rule in &self.rules {
            write!(f, ";{rule}")?;
        }
        Ok(())
    }
}

/// Shared per-daemon injection state: the plan plus one atomic counter
/// per index space — submits, accepted connections, and `Capabilities`
/// handshakes each count independently.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    next_index: AtomicU64,
    next_connect: AtomicU64,
    next_handshake: AtomicU64,
}

impl FaultInjector {
    /// Wrap a plan for use by a server.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            next_index: AtomicU64::new(0),
            next_connect: AtomicU64::new(0),
            next_handshake: AtomicU64::new(0),
        }
    }

    /// Claim the next submit index and answer its fault actions.
    pub fn next(&self) -> (u64, FaultActions) {
        let index = self.next_index.fetch_add(1, Ordering::SeqCst);
        (index, self.plan.actions(index))
    }

    /// Claim the next accepted-connection index; true = drop it.
    pub fn next_connect(&self) -> (u64, bool) {
        let index = self.next_connect.fetch_add(1, Ordering::SeqCst);
        (index, self.plan.connect_drops(index))
    }

    /// Claim the next `Capabilities`-request index; true = refuse it.
    pub fn next_handshake(&self) -> (u64, bool) {
        let index = self.next_handshake.fetch_add(1, Ordering::SeqCst);
        (index, self.plan.handshake_refuses(index))
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Submit indices assigned so far.
    pub fn assigned(&self) -> u64 {
        self.next_index.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec_and_round_trips_through_display() {
        let spec = "seed=7;panic@2;drop@5..8;delay@9=150ms;corrupt@p0.05";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(
            plan.rules[0],
            FaultRule {
                kind: FaultKind::Panic,
                sel: Selector::Index(2)
            }
        );
        assert_eq!(
            plan.rules[1],
            FaultRule {
                kind: FaultKind::Drop,
                sel: Selector::Range(5, 8)
            }
        );
        assert_eq!(
            plan.rules[2],
            FaultRule {
                kind: FaultKind::Delay(Duration::from_millis(150)),
                sel: Selector::Index(9)
            }
        );
        assert_eq!(
            plan.rules[3],
            FaultRule {
                kind: FaultKind::Corrupt,
                sel: Selector::Prob(0.05)
            }
        );
        // Display renders an equivalent spec; reparsing yields the same plan.
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "panic",           // no selector
            "explode@3",       // unknown kind
            "delay@3",         // missing millis
            "delay@3=fastms",  // unparseable millis
            "panic@p1.5",      // probability out of range
            "drop@5..5",       // empty range
            "seed=notanumber", // bad seed
            "panic@x",         // bad index
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn empty_and_whitespace_specs_inject_nothing() {
        for spec in ["", "  ", ";;", "seed=3"] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert!(plan.is_empty());
            assert!(plan.actions(0).is_none());
        }
    }

    #[test]
    fn exact_index_and_range_selectors_fire_where_specified() {
        let plan = FaultPlan::parse("panic@2;drop@4..6").unwrap();
        assert!(plan.actions(2).panic);
        assert!(!plan.actions(3).panic);
        assert!(!plan.actions(3).drop);
        assert!(plan.actions(4).drop && plan.actions(5).drop);
        assert!(!plan.actions(6).drop, "range end is exclusive");
    }

    #[test]
    fn merged_actions_combine_rules_and_keep_longest_delay() {
        let plan = FaultPlan::parse("panic@3;corrupt@3;delay@3=50;delay@0..10=20ms").unwrap();
        let a = plan.actions(3);
        assert!(a.panic && a.corrupt && !a.drop);
        assert_eq!(a.delay, Some(Duration::from_millis(50)));
        assert_eq!(plan.actions(4).delay, Some(Duration::from_millis(20)));
    }

    #[test]
    fn probabilistic_rules_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::parse("seed=1;panic@p0.3").unwrap();
        let b = FaultPlan::parse("seed=1;panic@p0.3").unwrap();
        let c = FaultPlan::parse("seed=2;panic@p0.3").unwrap();
        let fire = |plan: &FaultPlan| -> Vec<u64> {
            (0..200).filter(|&i| plan.actions(i).panic).collect()
        };
        assert_eq!(fire(&a), fire(&b), "same seed must fire identically");
        assert_ne!(fire(&a), fire(&c), "different seeds must differ");
        let hits = fire(&a).len();
        assert!(
            (30..90).contains(&hits),
            "p=0.3 over 200 indices fired {hits} times"
        );
    }

    #[test]
    fn injector_assigns_consecutive_indices() {
        let injector = FaultInjector::new(FaultPlan::parse("panic@1").unwrap());
        let (i0, a0) = injector.next();
        let (i1, a1) = injector.next();
        assert_eq!((i0, i1), (0, 1));
        assert!(!a0.panic && a1.panic);
        assert_eq!(injector.assigned(), 2);
    }

    #[test]
    fn connect_and_handshake_rules_parse_and_round_trip() {
        let plan = FaultPlan::parse("connect@0;handshake@1..3").unwrap();
        assert!(plan.connect_drops(0));
        assert!(!plan.connect_drops(1));
        assert!(!plan.handshake_refuses(0));
        assert!(plan.handshake_refuses(1) && plan.handshake_refuses(2));
        assert!(!plan.handshake_refuses(3), "range end is exclusive");
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn connection_scoped_rules_never_leak_into_submit_actions() {
        let plan = FaultPlan::parse("connect@0..100;handshake@0..100").unwrap();
        for i in 0..100 {
            assert!(plan.actions(i).is_none(), "submit {i} must see no fault");
        }
    }

    #[test]
    fn injector_counts_each_index_space_independently() {
        let injector = FaultInjector::new(FaultPlan::parse("connect@1;handshake@0").unwrap());
        // Submit indices advance without touching the other counters.
        let _ = injector.next();
        let _ = injector.next();
        assert_eq!(injector.next_connect(), (0, false));
        assert_eq!(injector.next_connect(), (1, true));
        assert_eq!(injector.next_handshake(), (0, true));
        assert_eq!(injector.next_handshake(), (1, false));
    }
}
