//! Microbenchmarks of the availability profile — the inner loop of every
//! backfilling decision. Measures anchor search, reservation, and release
//! at several profile densities (number of live segments), plus the two
//! structural edits conservative backfilling makes on every arrival and
//! every time step: inserting one segment boundary, and trimming one
//! segment off the past.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sched::Profile;
use simcore::{SimRng, SimSpan, SimTime};

/// Build a profile with roughly `n` reservations of mixed shape.
fn dense_profile(n: usize, cap: u32, seed: u64) -> Profile {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut p = Profile::new(cap);
    for _ in 0..n {
        let earliest = SimTime::new(rng.below(500_000));
        let dur = SimSpan::new(1 + rng.below(20_000));
        let width = 1 + rng.below(cap as u64 / 4) as u32;
        let anchor = p.find_anchor(earliest, dur, width);
        p.reserve(anchor, dur, width);
    }
    p
}

/// Query stream for the anchor benches: random earliest instants with
/// widths drawn from the same distribution the reservations were — anchor
/// queries in the simulator carry real job widths, so the bench must span
/// narrow probes (answered near `earliest`) and wide ones (long scans over
/// congested terrain, where the block index pays off).
fn query(rng: &mut SimRng, cap: u32) -> (SimTime, u32) {
    let earliest = SimTime::new(rng.below(500_000));
    let width = 1 + rng.below(cap as u64 / 4) as u32;
    (earliest, width)
}

fn bench_find_anchor(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile/find_anchor");
    for &n in &[16usize, 128, 1024] {
        let p = dense_profile(n, 430, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &p, |b, p| {
            let mut rng = SimRng::seed_from_u64(7);
            b.iter(|| {
                let (earliest, width) = query(&mut rng, 430);
                black_box(p.find_anchor(earliest, SimSpan::new(5_000), width))
            })
        });
    }
    group.finish();
}

fn bench_reserve_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile/reserve_release");
    for &n in &[16usize, 128, 1024] {
        let p = dense_profile(n, 430, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &p, |b, p| {
            let mut rng = SimRng::seed_from_u64(9);
            b.iter_batched(
                || p.clone(),
                |mut p| {
                    let earliest = SimTime::new(rng.below(500_000));
                    let dur = SimSpan::new(5_000);
                    let anchor = p.find_anchor(earliest, dur, 32);
                    p.reserve(anchor, dur, 32);
                    p.release(anchor, dur, 32);
                    p
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// A profile with exactly `segments` segments, grown by reservations of
/// the same mixed shape as [`dense_profile`] (one that overshoots the
/// target is skipped).
fn profile_with_segments(segments: usize, cap: u32, seed: u64) -> Profile {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut p = Profile::new(cap);
    while p.segments().len() < segments {
        let earliest = SimTime::new(rng.below(500_000));
        let dur = SimSpan::new(1 + rng.below(20_000));
        let width = 1 + rng.below(cap as u64 / 4) as u32;
        let anchor = p.find_anchor(earliest, dur, width);
        let mut next = p.clone();
        next.reserve(anchor, dur, width);
        if next.segments().len() <= segments {
            p = next;
        }
    }
    p
}

/// One boundary insert: a one-wide rectangle from one second into a
/// segment to that segment's end, on a fresh copy of the profile (the
/// copy is not timed). Targets cycle over every segment wide enough.
fn bench_split_boundary(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile/split_boundary");
    for &n in &[64usize, 256, 1024] {
        let p = profile_with_segments(n, 430, 42);
        let segs = p.segments();
        let targets: Vec<(SimTime, SimSpan)> = segs
            .windows(2)
            .filter(|w| w[0].free >= 1 && w[1].start.as_secs() - w[0].start.as_secs() >= 2)
            .map(|w| {
                let start = SimTime::new(w[0].start.as_secs() + 1);
                (start, SimSpan::new(w[1].start.as_secs() - start.as_secs()))
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &p, |b, p| {
            let mut k = 0;
            b.iter_batched(
                || p.clone(),
                |mut p| {
                    let (start, dur) = targets[k % targets.len()];
                    k += 1;
                    p.reserve(start, dur, 1);
                    p
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// One trim that drops exactly the first segment, on a fresh copy of the
/// profile (the copy is not timed).
fn bench_trim_one(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile/trim_one");
    for &n in &[64usize, 256, 1024] {
        let p = profile_with_segments(n, 430, 42);
        let cut = p.segments()[1].start;
        group.bench_with_input(BenchmarkId::from_parameter(n), &p, |b, p| {
            b.iter_batched(
                || p.clone(),
                |mut p| {
                    p.trim_before(cut);
                    p
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_free_at(c: &mut Criterion) {
    let p = dense_profile(1024, 430, 42);
    c.bench_function("profile/free_at/1024segs", |b| {
        let mut rng = SimRng::seed_from_u64(11);
        b.iter(|| black_box(p.free_at(SimTime::new(rng.below(1_000_000)))))
    });
}

criterion_group!(
    benches,
    bench_find_anchor,
    bench_reserve_release,
    bench_split_boundary,
    bench_trim_one,
    bench_free_at
);
criterion_main!(benches);
