//! `pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Checks the outputs, then repeats the workload for `--seconds` and
//! prints, as its last stdout line, one JSON object: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). Exits 1 when a check failed, 2 on a bad
//! command line.

use campaign::ResultsStore;
use pipebench::calib::HostClock;
use pipebench::layers::Kind;
use pipebench::pipeline::{run_rep, run_with_runner, Rep, Tracing};
use pipebench::workloads::Workload;
use pipebench::{median, COVERAGE_TOLERANCE};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end repetitions run on one worker; the runner check runs at
/// every core.
const JOBS: usize = 1;
/// Repetitions measured even when `--seconds` is shorter than they take.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Points attempted and points that failed or failed a check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn note(&mut self, attempted: usize, failed: usize, what: impl FnOnce() -> String) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 {
            self.problems.push(what());
        }
    }

    /// Compare a repetition's stores and points with the reference run,
    /// which runs unsliced and untraced.
    fn check_rep(&mut self, reference: &Rep, rep: &Rep, what: &str) {
        let panicked = rep.points.iter().filter(|p| p.panicked).count();
        self.note(rep.points.len(), panicked, || {
            format!("{what}: {panicked} point(s) panicked")
        });
        let moved = reference
            .points
            .iter()
            .zip(&rep.points)
            .filter(|(a, b)| a.fingerprint != b.fingerprint || a.events != b.events)
            .count();
        self.note(0, moved, || {
            format!("{what}: {moved} point(s) changed events_fingerprint")
        });
        for (r, s) in reference.stores.iter().zip(&rep.stores) {
            let bad = mismatched_points(r, s);
            self.note(0, bad, || format!("{what}: {bad} store line(s) differ"));
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!(
                "usage: pipebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository")
        .to_path_buf();
    let out_dir = root.join("pipebench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("pipebench: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let files = args.workload.files(args.seed);
    let mut tally = Tally::default();

    // Output checks before anything is timed; the multi-worker runner's
    // comparison follows the timed repetitions.
    check_tiny_baseline(&root, &mut tally);
    let reference = run_rep(&files, Tracing::default(), None);
    // counts its points and panics; its stores are the reference
    tally.check_rep(&reference, &reference, "reference run");
    for (i, text) in reference.stores.iter().enumerate() {
        let back = ResultsStore::from_jsonl(text).map(|s| s.to_jsonl());
        let bad = match back {
            Ok(b) => mismatched_points(text, &b),
            Err(_) => text.lines().count().saturating_sub(1),
        };
        tally.note(0, bad, || format!("store {i} does not round-trip"));
    }

    // Read before the host clock allocates its reference state and before
    // the multi-worker runner runs: peak_rss_mb is the one-worker
    // pipeline's.
    let rss_mb = peak_rss_mb();

    // The measured repetitions. The host clock samples host speed
    // before, within the points of, and after each plain repetition.
    let mut clock = HostClock::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain: Vec<Rep> = Vec::new();
    let mut slowdowns: Vec<f64> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while Instant::now() < deadline
        || plain.len() < MIN_REPS
        || (args.trace && traced.len() < MIN_REPS)
    {
        clock.start();
        let mut rep = run_rep(&files, Tracing::default(), Some(&mut || clock.sample()));
        clock.sample();
        slowdowns.push(clock.take_slowdown());
        tally.check_rep(&reference, &rep, "repetition");
        // checked: drop the stores so memory does not grow with the count
        rep.stores.clear();
        plain.push(rep);
        if args.trace {
            let mut rep = run_rep(
                &files,
                Tracing {
                    nodes: true,
                    slowdown: None,
                },
                None,
            );
            tally.check_rep(&reference, &rep, "traced repetition");
            rep.stores.clear();
            traced.push(rep);
        }
    }

    let (runner_stores, runner) = run_with_runner(&files, nproc, &out_dir);
    for (i, (r, s)) in reference.stores.iter().zip(&runner_stores).enumerate() {
        let points = r.lines().count().saturating_sub(1);
        let bad = mismatched_points(r, s);
        tally.note(points, bad, || {
            format!("store {i}: {bad} line(s) differ between jobs {JOBS} and jobs {nproc}")
        });
    }
    for e in &runner.ledger_errors {
        tally.problems.push(format!("run ledger: {e}"));
    }

    // Timed metrics at nominal host speed: each repetition's wall divided
    // by the host slowdown sampled across it.
    let sim_x: Vec<f64> = plain
        .iter()
        .zip(&slowdowns)
        .map(|(r, k)| r.sim_x_realtime() * k)
        .collect();
    let setup_s: Vec<f64> = plain
        .iter()
        .zip(&slowdowns)
        .map(|(r, k)| r.setup.as_secs_f64() / k)
        .collect();
    let raw_sim_x = median(&plain.iter().map(Rep::sim_x_realtime).collect::<Vec<_>>());
    let raw_setup_s = median(
        &plain
            .iter()
            .map(|r| r.setup.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    let points = reference.points.len();
    let store_bytes: usize = reference.stores.iter().map(String::len).sum();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let m = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let layer = |f: &dyn Fn(&pipebench::layers::LayerTimes) -> f64| {
            m(&|r: &Rep| {
                f(r.layers
                    .as_ref()
                    .expect("traced repetition has layer times"))
            })
        };
        let s = |d: Duration| d.as_secs_f64();
        let coverage = m(&|r: &Rep| s(r.stages.total()) / s(r.wall));
        let plain_wall = median(&plain.iter().map(|r| s(r.wall)).collect::<Vec<_>>());
        if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
            tally.note(0, points, || {
                format!("layer sum covers {coverage:.4} of traced wall (tolerance {COVERAGE_TOLERANCE})")
            });
        }
        metrics.extend([
            ("file.parse_s", m(&|r| s(r.stages.parse)), "s"),
            ("spec.expand_s", m(&|r| s(r.stages.expand)), "s"),
            ("engine.build_s", m(&|r| s(r.stages.build)), "s"),
            ("engine.finish_s", m(&|r| s(r.stages.finish)), "s"),
            ("store.encode_s", m(&|r| s(r.stages.encode)), "s"),
            ("store.decode_s", m(&|r| s(r.stages.decode)), "s"),
            ("aggregate_s", m(&|r| s(r.stages.aggregate)), "s"),
            ("figures.render_s", m(&|r| s(r.stages.render)), "s"),
            ("store.bytes", store_bytes as f64, "B"),
            ("runner.utilization", runner.utilization(), "frac"),
            ("runner.straggler_ratio", runner.straggler_ratio(), "x"),
            ("engine.run_s", m(&|r| s(r.stages.run)), "s"),
            ("sim.events", reference.events() as f64, "count"),
            (
                "sim.ns_per_event",
                m(&|r| s(r.stages.run) * 1e9 / r.events() as f64),
                "ns",
            ),
            (
                "sim.loop_self_s",
                m(&|r| s(r.stages.run) - r.layers.as_ref().map_or(0.0, |l| l.all_nodes_s())),
                "s",
            ),
            (
                "sim.batch_frac",
                layer(&|l| l.batch_events as f64 / l.all_events().max(1) as f64),
                "frac",
            ),
            (
                "linkqueue.self_s",
                layer(&|l| l.self_s(Kind::LinkQueue)),
                "s",
            ),
            ("qdisc.self_s", layer(&|l| l.qdisc_s()), "s"),
            ("qdisc.drops", traced[0].qdisc_drops as f64, "count"),
            ("sink.self_s", layer(&|l| l.self_s(Kind::Sink)), "s"),
            ("sender.self_s", layer(&|l| l.self_s(Kind::Sender)), "s"),
            (
                "sender.dispatches",
                layer(&|l| l.events(Kind::Sender) as f64),
                "count",
            ),
            ("sender.retransmits", traced[0].retransmits as f64, "count"),
            ("impair.self_s", layer(&|l| l.self_s(Kind::Impair)), "s"),
            ("wifi_ap.self_s", layer(&|l| l.self_s(Kind::WifiAp)), "s"),
            (
                "trace.overhead_frac",
                m(&|r| s(r.wall)) / plain_wall - 1.0,
                "frac",
            ),
            ("trace.coverage", coverage, "frac"),
        ]);
        // Per-point wall and events, so a runaway point stands out.
        for (i, p) in reference.points.iter().enumerate() {
            let wall = median(
                &traced
                    .iter()
                    .map(|r| s(r.points[i].wall))
                    .collect::<Vec<_>>(),
            );
            println!(
                "{{\"point\":{},\"traced_wall_s\":{},\"events\":{},\"sim_s\":{}}}",
                json_str(&p.key),
                num(wall),
                p.events,
                num(p.sim_s)
            );
        }
    } else {
        metrics.extend([
            ("sim_x_realtime", median(&sim_x), "x"),
            ("setup_s", median(&setup_s), "s"),
            (
                "store_bytes_per_point",
                store_bytes as f64 / points.max(1) as f64,
                "B",
            ),
            ("peak_rss_mb", rss_mb, "MB"),
            (
                "ok_frac",
                1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
                "frac",
            ),
        ]);
    }

    for p in &tally.problems {
        eprintln!("pipebench: check failed: {p}");
    }
    println!(
        "{{\"setup\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"jobs\":{JOBS},\"runner_jobs\":{nproc},\"nproc\":{nproc},\"reps\":{},\"traced_reps\":{},\"points\":{points},\"events\":{},\"commit\":{},\"source_fnv\":\"{:016x}\",\"rustc\":{},\"profile\":\"{}\",\"host_slowdown\":{},\"wall_sim_x_realtime\":{},\"wall_setup_s\":{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        plain.len(),
        traced.len(),
        reference.events(),
        json_str(&commit_id(&root)),
        source_digest(&root),
        json_str(&rustc_version()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        num(median(&slowdowns)),
        num(raw_sim_x),
        num(raw_setup_s),
    );
    let correct = tally.failed == 0 && tally.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Points whose store line differs between two stores of one campaign.
/// A differing header or line count fails every point.
fn mismatched_points(reference: &str, other: &str) -> usize {
    let (mut a, mut b) = (reference.lines(), other.lines());
    let (na, nb) = (reference.lines().count(), other.lines().count());
    if a.next() != b.next() || na != nb {
        return na.max(nb).saturating_sub(1).max(1);
    }
    a.zip(b).filter(|(x, y)| x != y).count()
}

/// The `tiny` preset's store must be byte-identical to the committed
/// baseline.
fn check_tiny_baseline(root: &Path, tally: &mut Tally) {
    let campaign = campaign::presets::tiny(experiments::figures::Scale::Tiny);
    let opts = campaign::RunOptions::quiet().with_jobs(Some(JOBS));
    let (records, errors) =
        campaign::split_outcomes(campaign::run_campaign_outcomes(&campaign, &opts));
    let ours = ResultsStore::with_errors(&campaign, records, errors).to_jsonl();
    let points = ours.lines().count() - 1;
    let path = root.join("ci").join("campaign-tiny-baseline.jsonl");
    let bad = match std::fs::read_to_string(&path) {
        Ok(baseline) => mismatched_points(&baseline, &ours),
        Err(_) => points,
    };
    tally.note(points, bad, || {
        format!(
            "tiny store differs from {} in {bad} line(s)",
            path.display()
        )
    });
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
fn commit_id(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version`, or `"unknown"`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and bytes of the sources the benchmark builds —
/// identifies the code where no git commit is available.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("pipebench").join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A finite number in JSON (`null` for NaN/∞, which JSON cannot hold).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
