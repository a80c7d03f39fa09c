//! Coordinated sampling throughput: PPS and bottom-k over large instances.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use monotone_coord::bottomk::BottomK;
use monotone_coord::instance::Instance;
use monotone_coord::pps::CoordPps;
use monotone_coord::seed::SeedHasher;
use std::hint::black_box;

fn big_instance(n: u64) -> Instance {
    Instance::from_pairs((0..n).map(|k| (k, 0.05 + ((k * 31) % 997) as f64 / 997.0)))
}

fn bench_sampling(c: &mut Criterion) {
    let inst = big_instance(100_000);
    let pps = CoordPps::uniform_scale(1, 20.0, SeedHasher::new(3));
    c.bench_function("pps_sample_100k", |b| {
        b.iter(|| black_box(pps.sample_instance(0, black_box(&inst))))
    });

    let bk = BottomK::new(1000, SeedHasher::new(3));
    c.bench_function("bottomk_priority_100k_k1000", |b| {
        b.iter(|| black_box(bk.sample_instance(black_box(&inst))))
    });

    let seeder = SeedHasher::new(9);
    c.bench_function("seed_hash", |b| {
        let mut k = 0u64;
        b.iter_batched(
            || {
                k += 1;
                k
            },
            |k| black_box(seeder.seed(k)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
