//! A minimal, deterministic discrete-event simulation engine.
//!
//! The engine owns the clock and the pending-event set; domain logic lives in
//! an [`Actor`] that receives each event together with a scheduling context.
//! Determinism guarantees:
//!
//! * the clock never moves backwards;
//! * simultaneous events fire in `(class, insertion order)` — a total order;
//! * the engine itself holds no hidden randomness.

use crate::event::{EventClass, EventQueue};
use crate::time::SimTime;

/// Handle through which an [`Actor`] schedules future events while one is
/// being processed.
pub struct Ctx<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
}

impl<E> Ctx<'_, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at` (must be `>= now`).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.queue.push(at, event);
    }

    /// Schedule `event` at `at` with an explicit simultaneity class.
    pub fn schedule_classed(&mut self, at: SimTime, class: EventClass, event: E) {
        self.queue.push_classed(at, class, event);
    }
}

/// Domain logic plugged into the engine.
pub trait Actor<E> {
    /// Handle one event. New events may be scheduled through `ctx`.
    fn handle(&mut self, event: E, ctx: &mut Ctx<'_, E>);
}

/// A loop boundary reported by [`Engine::run_hooked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// The queue pop just finished (the handler has not run yet; on the
    /// final iteration the pop found nothing and the loop is about to
    /// exit).
    Popped,
    /// The actor's handler for the popped event just returned.
    Handled,
}

/// The discrete-event engine.
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Create an engine with an empty event set at `t = 0`.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Seed an initial event before running.
    pub fn prime(&mut self, at: SimTime, event: E) {
        self.queue.push(at, event);
    }

    /// Seed an initial event with an explicit class.
    pub fn prime_classed(&mut self, at: SimTime, class: EventClass, event: E) {
        self.queue.push_classed(at, class, event);
    }

    /// Process a single event, if any. Returns `false` when the event set is
    /// exhausted.
    pub fn step(&mut self, actor: &mut impl Actor<E>) -> bool {
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        self.now = time;
        self.processed += 1;
        let mut ctx = Ctx {
            queue: &mut self.queue,
            now: time,
        };
        actor.handle(event, &mut ctx);
        true
    }

    /// Run until no events remain.
    pub fn run(&mut self, actor: &mut impl Actor<E>) {
        while self.step(actor) {}
    }

    /// Like [`Engine::run`], but invokes `mark` at both boundaries of
    /// every loop iteration: [`Hook::Popped`] right after the queue pop
    /// (including the final, draining pop that finds nothing) and
    /// [`Hook::Handled`] right after the actor's handler returns. The
    /// engine itself never reads a clock — the caller timestamps inside
    /// `mark`, so consecutive phases share their boundary reading (one
    /// clock read per mark, chained across iterations) instead of
    /// paying a start/stop pair per phase. The hooks keep this crate
    /// observability-agnostic, and they are strictly observational:
    /// event order and the simulated clock are identical to
    /// [`Engine::run`].
    pub fn run_hooked(&mut self, actor: &mut impl Actor<E>, mark: &mut impl FnMut(Hook)) {
        loop {
            let popped = self.queue.pop();
            mark(Hook::Popped);
            let Some((time, event)) = popped else {
                return;
            };
            self.now = time;
            self.processed += 1;
            let mut ctx = Ctx {
                queue: &mut self.queue,
                now: time,
            };
            actor.handle(event, &mut ctx);
            mark(Hook::Handled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An actor that records event order and spawns follow-ups.
    struct Recorder {
        seen: Vec<(u64, &'static str)>,
    }

    impl Actor<&'static str> for Recorder {
        fn handle(&mut self, event: &'static str, ctx: &mut Ctx<'_, &'static str>) {
            self.seen.push((ctx.now().as_secs(), event));
            if event == "spawn" {
                ctx.schedule(ctx.now() + crate::time::SimSpan::new(5), "child");
            }
        }
    }

    #[test]
    fn runs_events_in_order_and_children_fire() {
        let mut engine = Engine::new();
        engine.prime(SimTime::new(10), "spawn");
        engine.prime(SimTime::new(1), "first");
        let mut actor = Recorder { seen: vec![] };
        engine.run(&mut actor);
        assert_eq!(actor.seen, vec![(1, "first"), (10, "spawn"), (15, "child")]);
        assert_eq!(engine.processed(), 3);
        assert_eq!(engine.now(), SimTime::new(15));
    }

    #[test]
    fn run_hooked_matches_run_and_marks_every_boundary() {
        let mut plain = Engine::new();
        plain.prime(SimTime::new(10), "spawn");
        plain.prime(SimTime::new(1), "first");
        let mut plain_actor = Recorder { seen: vec![] };
        plain.run(&mut plain_actor);

        let mut hooked = Engine::new();
        hooked.prime(SimTime::new(10), "spawn");
        hooked.prime(SimTime::new(1), "first");
        let mut hooked_actor = Recorder { seen: vec![] };
        let (mut pops, mut handles) = (0u64, 0u64);
        let mut last = None;
        hooked.run_hooked(&mut hooked_actor, &mut |h| {
            match h {
                Hook::Popped => pops += 1,
                Hook::Handled => handles += 1,
            }
            // Boundaries strictly alternate: every handle follows a pop.
            assert_ne!(last, Some(h), "consecutive identical hooks");
            last = Some(h);
        });

        assert_eq!(hooked_actor.seen, plain_actor.seen, "hooks are neutral");
        assert_eq!(hooked.processed(), plain.processed());
        // One pop per processed event plus the final drained pop; one
        // handle mark per processed event.
        assert_eq!(pops, hooked.processed() + 1);
        assert_eq!(handles, hooked.processed());
    }

    #[test]
    fn step_returns_false_when_drained() {
        let mut engine: Engine<&str> = Engine::new();
        let mut actor = Recorder { seen: vec![] };
        assert!(!engine.step(&mut actor));
    }

    #[test]
    fn zero_delay_self_schedule_is_legal() {
        struct Once(bool);
        impl Actor<u32> for Once {
            fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
                if ev == 0 && !self.0 {
                    self.0 = true;
                    ctx.schedule(ctx.now(), 1);
                }
            }
        }
        let mut engine = Engine::new();
        engine.prime(SimTime::new(3), 0);
        let mut a = Once(false);
        engine.run(&mut a);
        assert_eq!(engine.processed(), 2);
        assert_eq!(engine.now(), SimTime::new(3));
    }
}
