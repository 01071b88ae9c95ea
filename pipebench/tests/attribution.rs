//! The traced run's self-tests: a known busy-wait injected into one
//! node kind's decorator must be charged to that kind and to no other
//! layer, and the decorators must leave every event where it was.

use campaign::file;
use experiments::engine::ScenarioEngine;
use experiments::figures::Scale;
use pipebench::layers::{self, Kind, LayerTimes, Slowdown};
use pipebench::median;
use pipebench::pipeline::{run_rep, Tracing};
use pipebench::workloads::{CampaignFile, Figure};
use std::time::Duration;

/// Web churn over a loss+reorder wire, plus a Wi-Fi point: every node
/// kind the traced run attributes appears.
const CAMPAIGN: &str = r#"
[campaign]
name = "attribution"

[base]
link = { constant_mbps = 12.0 }
duration_s = 10
warmup_s = 0
flows = 1
seed = 5
workloads = [{ web = { load = 0.5, link_mbps = 12.0 } }]
impairments = [{ kind = "drop", p = 0.01 }, { kind = "reorder", p = 0.02, hold_ms = 5 }]

[[axis]]
name = "path"

  [[axis.values]]
  label = "cell"
  link = { constant_mbps = 12.0 }

  [[axis.values]]
  label = "wifi"
  topology = { wifi = { mcs = { fixed = 5 }, ap_buffer_pkts = 2000 } }
"#;

fn files() -> Vec<CampaignFile> {
    vec![CampaignFile {
        toml: CAMPAIGN.to_string(),
        figure: Figure::AggregateOnly,
    }]
}

/// Per-layer self seconds of one traced repetition, the event loop's
/// included.
fn self_times(slowdown: Option<Slowdown>) -> (Vec<(&'static str, f64)>, LayerTimes) {
    let rep = run_rep(
        &files(),
        Tracing {
            nodes: true,
            slowdown,
        },
        None,
    );
    let l = rep.layers.expect("traced repetition has layer times");
    let selfs = vec![
        ("sender", l.self_s(Kind::Sender)),
        ("sink", l.self_s(Kind::Sink)),
        ("linkqueue", l.self_s(Kind::LinkQueue)),
        ("qdisc", l.qdisc_s()),
        ("impair", l.self_s(Kind::Impair)),
        ("wifi_ap", l.self_s(Kind::WifiAp)),
        ("loop", rep.stages.run.as_secs_f64() - l.all_nodes_s()),
    ];
    (selfs, l)
}

/// Median of column `i` over repetitions.
fn median_of(reps: &[Vec<(&'static str, f64)>], i: usize) -> f64 {
    median(&reps.iter().map(|r| r[i].1).collect::<Vec<_>>())
}

#[test]
fn injected_sender_slowdown_is_charged_to_the_sender() {
    const REPS: usize = 7;
    let slowdown = Slowdown {
        kind: Kind::Sender,
        per_event: Duration::from_micros(5),
    };
    // warm caches and lazy set-up before either side is measured
    let (_, counts) = self_times(None);
    for kind in [
        Kind::Sender,
        Kind::Sink,
        Kind::LinkQueue,
        Kind::Impair,
        Kind::WifiAp,
    ] {
        assert!(counts.events(kind) > 0, "{kind:?} never dispatched");
    }
    // alternate the two sides so a drift in machine speed hits both
    let (mut base, mut slow) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        base.push(self_times(None).0);
        let (times, slow_counts) = self_times(Some(slowdown));
        assert_eq!(counts.events, slow_counts.events, "slowdown moved events");
        slow.push(times);
    }

    let injected = counts.events(Kind::Sender) as f64 * slowdown.per_event.as_secs_f64();
    let added = median_of(&slow, 0) - median_of(&base, 0);
    assert!(
        added > 0.9 * injected && added < 1.5 * injected,
        "sender.self_s grew {added:.4} s for {injected:.4} s injected"
    );
    // Every other layer stays within 25% (or 2 ms) of its own baseline,
    // and together they absorb under a tenth of the injected time.
    let mut others = 0.0;
    for (i, (name, _)) in base[0].iter().enumerate().skip(1) {
        let (b, s) = (median_of(&base, i), median_of(&slow, i));
        assert!(
            (s - b).abs() <= (0.25 * b).max(0.002),
            "{name} moved from {b:.5} s to {s:.5} s under a sender slowdown"
        );
        others += s - b;
    }
    assert!(
        others.abs() < 0.1 * injected,
        "other layers moved {others:.4} s in total for {injected:.4} s injected"
    );
}

#[test]
fn decorators_change_no_event_and_match_the_profiler() {
    let sweep = file::from_str(CAMPAIGN, Scale::Fast).expect("test campaign compiles");
    let engine = ScenarioEngine::with_threads(1);
    for p in sweep.expand() {
        let mut plain = engine.build(&p.spec);
        plain.run_to_end();

        let mut traced = engine.build(&p.spec);
        traced.sim.enable_profiler();
        let probe = layers::instrument(&mut traced, None);
        traced.run_to_end();
        assert_eq!(
            plain.sim.events_fingerprint(),
            traced.sim.events_fingerprint(),
            "{}: decorators reordered events",
            p.coords
        );
        let times = probe.times();
        let profile = traced.sim.profile_report().expect("profiler enabled");
        assert_eq!(times.all_events(), profile.events, "{}", p.coords);
        assert_eq!(times.batch_events, profile.batch_events, "{}", p.coords);
        // finish() downcasts through the decorators to the real nodes
        let line = |report| {
            campaign::store::render_record(&campaign::RunRecord {
                ordinal: p.ordinal,
                coords: p.coords.clone(),
                report,
            })
        };
        assert_eq!(line(plain.finish()), line(traced.finish()), "{}", p.coords);
    }
}
