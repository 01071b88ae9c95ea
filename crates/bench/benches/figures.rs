//! One bench per table/figure of the paper: each measures the scenario
//! kernel that regenerates that figure, at a short duration so the suite
//! stays tractable. The full-scale regeneration is
//! `cargo run --release -p campaign --bin figgen -- all`.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::topos::{CoexistScenario, CrossTraffic, MixedPathScenario, TwoHopScenario};
use experiments::wifi::{McsSpec, WifiScenario};
use experiments::{CellScenario, LinkSpec, Scheme};
use netsim::rate::Rate;
use netsim::time::{SimDuration, SimTime};

const KERNEL_SECS: u64 = 5;

fn cell_kernel(scheme: Scheme) -> f64 {
    let trace = cellular::builtin("Verizon1").unwrap();
    let mut sc = CellScenario::new(scheme, LinkSpec::Trace(trace));
    sc.duration = SimDuration::from_secs(KERNEL_SECS);
    sc.warmup = SimDuration::from_secs(1);
    sc.run().utilization
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);

    // Table 1 / Fig 9 / Fig 15: the scheme×trace matrix kernel
    g.bench_function("table1_fig9_fig15_kernel", |b| {
        b.iter(|| {
            cell_kernel(Scheme::Abc) + cell_kernel(Scheme::Cubic) + cell_kernel(Scheme::CubicCodel)
        })
    });

    // Fig 1: motivation panels
    g.bench_function("fig1_kernel", |b| b.iter(|| cell_kernel(Scheme::Verus)));

    // Fig 2: enqueue-basis ablation
    g.bench_function("fig2_kernel", |b| {
        b.iter(|| cell_kernel(Scheme::AbcEnqueue))
    });

    // Fig 3 / jain: multi-flow fairness
    g.bench_function("fig3_jain_kernel", |b| {
        b.iter(|| {
            let mut sc = CellScenario::new(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(24.0)));
            sc.n_flows = 5;
            sc.duration = SimDuration::from_secs(KERNEL_SECS);
            sc.warmup = SimDuration::from_secs(1);
            sc.run().jain
        })
    });

    // Fig 4 / Fig 5 / Fig 10 / Fig 14: Wi-Fi kernels
    g.bench_function("fig4_fig5_estimator_kernel", |b| {
        b.iter(|| experiments::estimator_accuracy(1, 8.0, SimDuration::from_secs(KERNEL_SECS)).1)
    });
    g.bench_function("fig10_fig14_wifi_kernel", |b| {
        b.iter(|| {
            let mut sc = WifiScenario::new(
                Scheme::AbcDt(60),
                1,
                McsSpec::Alternating(1, 7, SimDuration::from_secs(2)),
            );
            sc.duration = SimDuration::from_secs(KERNEL_SECS);
            sc.warmup = SimDuration::from_secs(1);
            sc.run().total_tput_mbps
        })
    });

    // Fig 6 / Fig 11: mixed wireless+wired path
    g.bench_function("fig6_fig11_mixed_path_kernel", |b| {
        b.iter(|| {
            MixedPathScenario {
                wireless: LinkSpec::Steps(vec![
                    (SimTime::ZERO, Rate::from_mbps(16.0)),
                    (
                        SimTime::ZERO + SimDuration::from_secs(2),
                        Rate::from_mbps(6.0),
                    ),
                ]),
                wired_rate: Rate::from_mbps(12.0),
                rtt: SimDuration::from_millis(100),
                buffer_pkts: 250,
                cross: CrossTraffic::OnOffCubic {
                    on: SimDuration::from_secs(2),
                    off: SimDuration::from_secs(1),
                },
                duration: SimDuration::from_secs(KERNEL_SECS),
            }
            .run()
            .report
            .total_tput_mbps
        })
    });

    // Fig 7 / Fig 12: dual-queue coexistence
    g.bench_function("fig7_fig12_coexist_kernel", |b| {
        b.iter(|| {
            CoexistScenario {
                link_rate: Rate::from_mbps(48.0),
                duration: SimDuration::from_secs(KERNEL_SECS),
                warmup: SimDuration::from_secs(1),
                short_flow_load: 0.125,
                ..Default::default()
            }
            .run()
            .abc_tputs
            .len()
        })
    });

    // Fig 8: Pareto panels incl. the two-hop path
    g.bench_function("fig8_twohop_kernel", |b| {
        b.iter(|| {
            let up = cellular::builtin("Verizon2").unwrap();
            let down = cellular::builtin("Verizon1").unwrap();
            let mut sc =
                TwoHopScenario::new(Scheme::Abc, LinkSpec::Trace(up), LinkSpec::Trace(down));
            sc.duration = SimDuration::from_secs(KERNEL_SECS);
            sc.warmup = SimDuration::from_secs(1);
            sc.run().utilization
        })
    });

    // Fig 13: application-limited flows
    g.bench_function("fig13_app_limited_kernel", |b| {
        b.iter(|| {
            let trace = cellular::builtin("Verizon1").unwrap();
            let mut sc = CellScenario::new(Scheme::Abc, LinkSpec::Trace(trace));
            sc.n_flows = 20;
            sc.app = netsim::flow::TrafficSource::RateLimited {
                rate: Rate::from_kbps(50.0),
                burst_bytes: 4500.0,
            };
            sc.duration = SimDuration::from_secs(KERNEL_SECS);
            sc.warmup = SimDuration::from_secs(1);
            sc.run().total_tput_mbps
        })
    });

    // Fig 16 / Fig 17: explicit schemes
    g.bench_function("fig16_explicit_kernel", |b| {
        b.iter(|| cell_kernel(Scheme::Xcpw))
    });
    g.bench_function("fig17_square_wave_kernel", |b| {
        b.iter(|| {
            let mut sc = CellScenario::new(
                Scheme::Rcp,
                LinkSpec::Square {
                    a: Rate::from_mbps(12.0),
                    b: Rate::from_mbps(24.0),
                    half_period: SimDuration::from_millis(500),
                },
            );
            sc.duration = SimDuration::from_secs(KERNEL_SECS);
            sc.warmup = SimDuration::from_secs(1);
            sc.run().utilization
        })
    });

    // Fig 18: RTT sweep kernel
    g.bench_function("fig18_rtt_kernel", |b| {
        b.iter(|| {
            let trace = cellular::builtin("Verizon1").unwrap();
            let mut sc = CellScenario::new(Scheme::Abc, LinkSpec::Trace(trace));
            sc.rtt = SimDuration::from_millis(20);
            sc.duration = SimDuration::from_secs(KERNEL_SECS);
            sc.warmup = SimDuration::from_secs(1);
            sc.run().utilization
        })
    });

    // PK-ABC oracle
    g.bench_function("pk_abc_kernel", |b| {
        b.iter(|| {
            let trace = cellular::builtin("Verizon2").unwrap();
            let mut sc = CellScenario::new(Scheme::Abc, LinkSpec::Trace(trace));
            sc.oracle_lookahead = Some(SimDuration::from_millis(100));
            sc.duration = SimDuration::from_secs(KERNEL_SECS);
            sc.warmup = SimDuration::from_secs(1);
            sc.run().qdelay_ms.p95
        })
    });

    // stability fluid model
    g.bench_function("stability_fluid_kernel", |b| {
        b.iter(|| {
            abc_core::stability::integrate_fluid(
                0.05,
                SimDuration::from_millis(133),
                SimDuration::from_millis(20),
                SimDuration::from_millis(100),
                0.4,
                20.0,
                1e-3,
            )
            .residual
        })
    });

    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
