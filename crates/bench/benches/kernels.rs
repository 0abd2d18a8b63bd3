//! Criterion microbenchmarks of the core kernels (measured, not modeled):
//! the host-CPU miniature of the paper's Fig. 8 ablations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use swlb_core::collision::{BgkParams, CollisionKind, SmagorinskyParams};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::kernels::{fused_step, fused_step_optimized, InteriorIndex};
use swlb_core::lattice::D3Q19;
use swlb_core::layout::{PopField, SoaField};
use swlb_core::simd::{set_lane_policy, LanePolicy};
use swlb_core::stream::{push_step, split_step};

fn setup(dims: GridDims) -> (FlagField, SoaField<D3Q19>, SoaField<D3Q19>) {
    let flags = FlagField::new(dims);
    let mut src = SoaField::<D3Q19>::new(dims);
    swlb_core::kernels::initialize_with::<D3Q19, _>(&flags, &mut src, |x, y, z| {
        (1.0 + 0.001 * ((x + y + z) % 7) as f64, [0.02, 0.0, 0.0])
    });
    let dst = SoaField::<D3Q19>::new(dims);
    (flags, src, dst)
}

fn bench_kernels(c: &mut Criterion) {
    let dims = GridDims::new(64, 64, 64);
    let (flags, src, mut dst) = setup(dims);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let les = CollisionKind::SmagorinskyLes(
        SmagorinskyParams::new(BgkParams::from_tau(0.8), 0.16).unwrap(),
    );
    let interior = InteriorIndex::build::<D3Q19>(&flags);

    let mut group = c.benchmark_group("kernels_d3q19_64cubed");
    group.throughput(Throughput::Elements(dims.cells() as u64));
    group.sample_size(10);

    group.bench_function("fused_generic", |b| {
        b.iter(|| fused_step(&flags, &src, &mut dst, &coll))
    });
    group.bench_function("fused_optimized_scalar", |b| {
        set_lane_policy(LanePolicy::ForceScalar);
        b.iter(|| fused_step_optimized(&flags, &src, &mut dst, &coll, &interior, 0..dims.ny));
        set_lane_policy(LanePolicy::Auto);
    });
    group.bench_function("fused_optimized_simd", |b| {
        b.iter(|| fused_step_optimized(&flags, &src, &mut dst, &coll, &interior, 0..dims.ny))
    });
    group.bench_function("split_two_pass", |b| {
        b.iter(|| split_step(&flags, &src, &mut dst, &coll))
    });
    group.bench_function("push_scheme", |b| {
        b.iter(|| push_step(&flags, &src, &mut dst, &coll))
    });
    group.bench_function("fused_smagorinsky_les", |b| {
        b.iter(|| fused_step(&flags, &src, &mut dst, &les))
    });
    group.bench_function("fused_mrt", |b| {
        let mrt = CollisionKind::MrtD3Q19(swlb_core::mrt::MrtParams::standard(0.8));
        b.iter(|| fused_step(&flags, &src, &mut dst, &mrt))
    });
    // Moment representation: 10 values/cell instead of 19 — the data-motion
    // reduction of Gounley et al. (paper §II), measurable as higher MLUPS on a
    // memory-bound host.
    group.bench_function("moment_representation", |b| {
        let mut msrc = swlb_core::moment_rep::MomentField::new(dims);
        msrc.initialize_uniform(1.0, [0.02, 0.0, 0.0]);
        let mut mdst = swlb_core::moment_rep::MomentField::new(dims);
        b.iter(|| swlb_core::moment_rep::moment_step::<D3Q19>(&flags, &msrc, &mut mdst, 1.25))
    });
    group.finish();
}

fn bench_grid_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_scaling_with_grid");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let dims = GridDims::new(n, n, n);
        let (flags, src, mut dst) = setup(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        group.throughput(Throughput::Elements(dims.cells() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| fused_step(&flags, &src, &mut dst, &coll))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_grid_sizes);
criterion_main!(benches);
